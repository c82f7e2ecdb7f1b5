"""Run slices of the benchmark experiment suite at demo scale.

The harness replays the estimator-quality and test-calibration benchmarks:
RRMSE tables for both families, empirical size and power of the tests, and
confidence-interval coverage.  Replicate r of cell c at sample size n is
row r mod B of block r // B, one draw of B = max(1, 2**12 // n) samples from
the stream (base_seed, c, r // B), so any slice is reproducible bit for bit,
serial or parallel, whatever its replication count.  Full-scale runs use `run_table(k)` or the CLI
(`laplacefit experiment --table k`).
"""

from laplacefit import DistributionSpec
from laplacefit.montecarlo import (
    ExperimentConfig,
    run_configs,
    run_table,
)

# -- a small slice of the stable-law RRMSE benchmark -------------------------
config = ExperimentConfig(
    generator=DistributionSpec.parse("ps:0.5,15"),
    fit_target="ps",
    n_grid=(100, 300),
    replications=300,
    base_seed=1,
    metrics=("rrmse", "coverage"),
)
report = run_configs([config], jobs=1)
print("PS(0.5,15), 300 replicates (benchmark values at 3500 reps: "
      "rrmse 7.31/18.81 at n=100, 4.22/10.54 at n=300):")
for record in report.records:
    print(f"  n={record.n:3d} {record.metric:<8} {record.parameter:<6} "
          f"{record.value:8.4f}  (mc se {record.mc_se:.4f})")

# -- empirical size and power of the stable-law test --------------------------
for text, label in (("ps:0.4,5", "size"), ("pa:5,2", "power")):
    config = ExperimentConfig(
        generator=DistributionSpec.parse(text),
        fit_target="ps",
        n_grid=(200,),
        replications=400,
        base_seed=2,
        metrics=("size",) if label == "size" else ("power",),
    )
    record = run_configs([config], jobs=1).records[0]
    print(f"\n{label} of the stable gof test under {text} at n=200: "
          f"{100 * record.value:.2f}%  (failures: {record.n_failed})")

# -- the deterministic conversion table --------------------------------------
print("\nmean/zero-probability conversions (native gamma, lambda, theta):")
for record in run_table(6).records:
    print(f"  {record.generator:<18} {record.parameter:<7} {record.value:12.7f}")
