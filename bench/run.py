"""laplacefit benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload cli_fit_1e6 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                  # every workload, untraced and traced
    python3 bench/run.py --seconds 1      # short run: checks the metric names
    python3 bench/run.py --write-spec     # rewrite BENCHMARK.json from spec()

A single-workload run prints its metrics by name and unit, then, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The program is driven only through its public
entry points, the ``laplacefit`` CLI and ``laplacefit.montecarlo.run_configs``,
each in a fresh process with ``src`` on PYTHONPATH. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

from designs import MC_DESIGNS  # noqa: E402
from tracing import SOLVE, SPANS  # noqa: E402

RUN_SECONDS = 10

#: fresh processes timed for the set-up metric in every run
SETUP_PROBES = 3

WORKLOADS = {
    "cli_fit_1e6": "10^6-row CLI fits: import, text and CSV ingest, solve, moments and rows at scale",
    "mc_ps_small_n": "stable-law Monte Carlo at n=100..300: per-call overhead, repeated solves, scipy normal calls",
    "mc_tweedie": "Tweedie Monte Carlo at n=500,1500: samplers and numdiff Jacobian, one solve per sample",
}

END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = tuple(
    (f"{span}.{kind}", unit, "lower") for span in SPANS for kind, unit in (("self_s", "s"), ("calls", "count"))
) + (
    ("import.laplacefit_s", "s", "lower"),
    (f"{SOLVE}.per_sample", "ratio", "lower"),
    (f"{SOLVE}.iterations_mean", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def spec() -> dict:
    """The BENCHMARK.json document this benchmark is written to."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d} for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Exit:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str], workdir: Path) -> Exit:
    """Run ``python3 ARGS`` to its end; wall time from spawn to exit and its peak RSS."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def worker(args: list[str], workdir: Path) -> Exit:
    done = spawn([str(BENCH / "worker.py"), *args], workdir)
    if done.code != 0:
        raise RuntimeError(f"worker {args[0]} exited {done.code}:\n{done.stderr}")
    return done


def probe_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Median set-up and import seconds over SETUP_PROBES fresh processes."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        probe = json.loads(worker(["setup", "--workload", workload, "--seed", str(seed)], workdir).stdout)
        if not Path(probe["module"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"laplacefit imported from {probe['module']}, not from {SRC}")
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans: dict, rounds: int, import_s: float, overhead_pct: float) -> dict:
    """Per-layer metrics, per round, from merged span totals."""
    metrics = {}
    for name in SPANS:
        span = spans["spans"][name]
        metrics[f"{name}.self_s"] = span["self_s"] / rounds
        metrics[f"{name}.calls"] = span["calls"] / rounds
    solves = spans["spans"][SOLVE]["calls"]
    metrics["import.laplacefit_s"] = import_s
    metrics[f"{SOLVE}.per_sample"] = solves / spans["distinct_samples"] if spans["distinct_samples"] else 0.0
    metrics[f"{SOLVE}.iterations_mean"] = spans["solver_iterations"] / solves if solves else 0.0
    metrics["trace.overhead_pct"] = overhead_pct
    if spans["absent"]:
        print(f"absent spans (reported as 0): {', '.join(sorted(set(spans['absent'])))}", file=sys.stderr)
    return metrics


def merge_spans(parts: list[dict]) -> dict:
    merged = {
        "spans": {name: {"calls": 0, "self_s": 0.0} for name in SPANS},
        "absent": [],
        "solver_iterations": 0,
        "distinct_samples": 0,
    }
    for part in parts:
        for name in SPANS:
            merged["spans"][name]["calls"] += part["spans"][name]["calls"]
            merged["spans"][name]["self_s"] += part["spans"][name]["self_s"]
        merged["absent"] += part["absent"]
        merged["solver_iterations"] += part["solver_iterations"]
        merged["distinct_samples"] += part["distinct_samples"]
    return merged


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    problems: list[str]
    attempted: int
    failed: int
    metrics: dict


def run_cli(seed: int, seconds: float, trace: int, workdir: Path) -> Outcome:
    import checks
    from inputs import make_cli_inputs

    data = make_cli_inputs(seed, workdir)
    setup_s, import_s = probe_setup("cli_fit_1e6", seed, workdir)
    invocations = (
        ("ps", "ps", [str(data.ps_path)], data.ps),
        ("tweedie", "tweedie", [str(data.tweedie_path)], data.tweedie),
        ("tweedie_csv", "tweedie", [str(data.tweedie_csv_path), "--column", "amount"], data.tweedie),
        ("ps_rescaled", "ps", [str(data.rescaled_path)], data.rescaled_base),
    )
    problems: list[str] = []
    attempted = failed = 0

    def run_round(traced: bool) -> tuple[list[Exit], list[dict]]:
        nonlocal attempted, failed
        exits, spans = [], []
        outputs = {}
        for label, family, tail, values in invocations:
            argv = ["fit", family, *tail]
            if traced:
                spans_path = workdir / "spans.json"
                spans_path.unlink(missing_ok=True)
                done = spawn([str(BENCH / "worker.py"), "cli", str(spans_path), *argv], workdir)
                spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
            else:
                done = spawn(["-m", "laplacefit.cli", *argv], workdir)
            attempted += 1
            exits.append(done)
            if done.code != 0:
                failed += 1
                if label != "ps_rescaled":
                    problems.append(f"{label}: exit {done.code}\n{done.stderr[-2000:]}")
                continue
            payload = json.loads(done.stdout)
            outputs[label] = done.stdout
            if label == "ps_rescaled":
                found = checks.check_rescaled(payload, values)
                failed += bool(found)
            else:
                found = checks.check_cli_fit(label, family, payload, values)
            problems.extend(found)
        if "tweedie" in outputs and "tweedie_csv" in outputs:
            problems.extend(checks.check_same_json(outputs["tweedie"], outputs["tweedie_csv"]))
        return exits, spans

    plain: list[Exit] = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        plain += run_round(traced=False)[0]
        rounds += 1
    if trace:
        traced: list[Exit] = []
        parts: list[dict] = []
        for _ in range(rounds):
            exits, spans = run_round(traced=True)
            traced += exits
            parts += spans
        overhead = 100.0 * (sum(e.wall_s for e in traced) / sum(e.wall_s for e in plain) - 1.0)
        metrics = layer_metrics(merge_spans(parts), rounds, import_s, overhead)
    else:
        ok = [e for e in plain if e.code == 0]
        metrics = {
            "setup_s": setup_s,
            "op_ms": 1000.0 * statistics.fmean(e.wall_s for e in ok) if ok else float("nan"),
            "peak_rss_mb": max(e.peak_rss_mb for e in plain),
        }
    return Outcome(problems, attempted, failed, metrics)


def run_mc(workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> Outcome:
    import checks

    setup_s, import_s = probe_setup(workload, seed, workdir)
    out_path = workdir / "mc.json"
    done = worker(
        ["mc", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", str(out_path)],
        workdir,
    )
    result = json.loads(out_path.read_text(encoding="utf-8"))
    rounds = result["rounds"]
    problems = checks.check_mc(workload, rounds)
    attempted = sum(r["replicates"] for r in rounds)
    failed = checks.replicate_failures(rounds)
    wall = sum(r["wall_s"] for r in rounds)
    if trace:
        traced = result["traced_rounds"]
        if [r["records"] for r in traced] != [r["records"] for r in rounds]:
            problems.append("traced rounds report different results from the same seeds")
        attempted += sum(r["replicates"] for r in traced)
        failed += checks.replicate_failures(traced)
        overhead = 100.0 * (sum(r["wall_s"] for r in traced) / wall - 1.0)
        metrics = layer_metrics(result["trace"], len(rounds), import_s, overhead)
    else:
        metrics = {
            "setup_s": setup_s,
            "op_ms": 1000.0 * statistics.median(r["wall_s"] / r["replicates"] for r in rounds),
            "peak_rss_mb": done.peak_rss_mb,
        }
    return Outcome(problems, attempted, failed, metrics)


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    commit = "unknown"  # a checkout without .git, e.g. an exported tree
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> None:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        if workload in MC_DESIGNS:
            outcome = run_mc(workload, seed, seconds, trace, workdir)
        else:
            outcome = run_cli(seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    env = environment()
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{workload} seed={seed} trace={trace}: attempted {outcome.attempted}, failed {outcome.failed}")
    for name, value in outcome.metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in outcome.metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace, env=env, problems=outcome.problems)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process.

    Fails unless BENCHMARK.json matches spec(), every run emits exactly the
    metric names and units BENCHMARK.json declares, and every check passes.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures = [] if declared == spec() else ["BENCHMARK.json differs from spec(); run --write-spec"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{workload} trace={trace}: no result (exit {done.returncode})")
                continue
            result = json.loads(lines[-1])
            if {n: m["unit"] for n, m in result["metrics"].items()} != expected[trace]:
                failures.append(f"{workload} trace={trace}: metric names or units differ from BENCHMARK.json")
            if not result["correct"]:
                failures.append(f"{workload} trace={trace}: a correctness check failed")
    for failure in failures:
        print(f"FAILED: {failure}")
    if not failures:
        print("all workloads ran; metric names match BENCHMARK.json; all checks passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (SRC / "laplacefit" / "__init__.py").is_file():
        print(f"error: no laplacefit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
