"""Fresh-process side of the benchmark; ``run.py`` starts it with ``src`` on PYTHONPATH.

Modes:

``setup --workload W --seed S``
    Time ``import laplacefit`` and the rest of the workload's set-up (the CLI
    module, or the Monte Carlo module and the workload's configs), and print
    the times as JSON.
``mc --workload W --seed S --seconds T --trace K --out PATH``
    Run whole rounds of ``laplacefit.montecarlo.run_configs`` for T seconds
    and write the per-round reports and wall times to PATH. With K = 1 it
    then runs the same rounds again with the span wrappers installed.
``cli SPANS_PATH ARGS...``
    Install the span wrappers, call ``laplacefit.cli.main(ARGS)`` and write
    the spans to SPANS_PATH, also when the call raises.

Nothing is imported before the set-up clock starts apart from the standard
library and ``designs``, which is pure Python.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from designs import MC_DESIGNS, round_base_seed
from tracing import Tracer


def build_configs(workload: str, seed: int, round_index: int) -> list:
    from laplacefit.distributions import DistributionSpec
    from laplacefit.montecarlo import ExperimentConfig

    design = MC_DESIGNS[workload]
    return [
        ExperimentConfig(
            generator=DistributionSpec.parse(row),
            fit_target=design["fit_target"],
            n_grid=design["n_grid"],
            replications=replications,
            alpha=0.05,
            base_seed=round_base_seed(seed, round_index, i),
            metrics=metrics,
        )
        for i, (row, metrics, replications) in enumerate(design["rows"])
    ]


def timed_setup(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    import laplacefit

    imported = time.perf_counter()
    if workload in MC_DESIGNS:
        build_configs(workload, seed, 0)
    else:
        import laplacefit.cli  # noqa: F401
    done = time.perf_counter()
    return {"import_s": imported - start, "setup_s": done - start, "module": laplacefit.__file__}


def run_round(workload: str, seed: int, round_index: int) -> dict:
    from laplacefit.montecarlo import run_configs

    configs = build_configs(workload, seed, round_index)
    start = time.perf_counter()
    report = run_configs(configs, jobs=1)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "replicates": sum(c.replications * len(c.n_grid) for c in configs),
        "records": [r.to_dict() for r in report.records],
    }


def run_mc(workload: str, seed: int, seconds: float, trace: int) -> dict:
    rounds: list[dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, seed, len(rounds)))
    out = {"rounds": rounds}
    if trace:
        tracer = Tracer()
        tracer.install()
        out["traced_rounds"] = [run_round(workload, seed, k) for k in range(len(rounds))]
        out["trace"] = tracer.summary()
    return out


def run_traced_cli(spans_path: str, argv: list[str]) -> int:
    import laplacefit.cli

    tracer = Tracer()
    tracer.install()
    try:
        return laplacefit.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


def main() -> int:
    if sys.argv[1:2] == ["cli"]:
        return run_traced_cli(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "mc"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.mode == "setup":
        print(json.dumps(timed_setup(args.workload, args.seed)))
        return 0
    result = run_mc(args.workload, args.seed, args.seconds, args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
