"""Command-line front end.

Subcommands: ``fit`` and ``gof`` read a sample from a file or stdin and write
a result object; ``sample`` draws from a distribution spec; ``convert`` maps
mean/zero-probability Tweedie triples to native parameters; ``experiment``
runs a config file or a bundled benchmark table and writes CSV+JSON reports.

Exit codes: 0 success, 1 input problems (I/O and every ``InputError``:
parsing, specs, config), 2 every other ``LaplaceFitError``, a statistical
regime problem (all-zero sample, excessive zero fraction, degenerate or
near-singular data, no sampler).  Input errors print ``error (code): message``
on stderr; regime errors emit a machine-readable
``{"error": code, "message": ...}`` object on stdout so pipelines can
distinguish data problems from model-regime problems.  When ``fit`` fits the
sample but the test raises a regime error, the one object holds the fit's
fields and the error's, and the exit code is 2.  Warnings print one
``warning: message`` line each on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from typing import Any, Sequence

from .errors import ConfigError, InputError, LaplaceFitError, _at_least
from .families import FAMILIES
from .ingest import load_sample
from .laplace_core import Sample
from .results import json_safe

# the samplers (distributions) and the harness (montecarlo) are imported in
# the subcommands that run them, so ``fit`` and ``gof`` start without them

DEFAULT_SEED = 123456789


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laplacefit",
        description="Censored Laplace-transform estimation and goodness-of-fit testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-", help="data file, or '-' for stdin")
        p.add_argument("--alpha", type=float, default=0.05, help="significance level")
        p.add_argument("--column", default=None, help="read this column of a CSV file")
        p.add_argument(
            "--format", choices=("json", "csv", "human"), default="json", dest="fmt"
        )

    p_fit = sub.add_parser("fit", help="fit a family and report estimates plus the GOF test")
    p_fit.add_argument("family", choices=tuple(FAMILIES))
    add_io_args(p_fit)

    p_gof = sub.add_parser("gof", help="goodness-of-fit test only")
    p_gof.add_argument("family", choices=tuple(FAMILIES))
    add_io_args(p_gof)

    p_sample = sub.add_parser("sample", help="draw from a distribution spec")
    p_sample.add_argument("spec", help="e.g. ps:0.5,15 tw:0.5,2,0.5 tw0:1,1,0.1 pa0:5,2,0.1")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_conv = sub.add_parser("convert", help="convert parametrizations")
    p_conv.add_argument("kind", choices=("tw0",))
    for name in ("mu", "w", "p"):
        p_conv.add_argument(name, type=float, metavar=name.upper())
    p_conv.add_argument("--format", choices=("json", "csv", "human"), default="human", dest="fmt")

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument("config", nargs="?", default=None, help="JSON config file")
    p_exp.add_argument("--table", type=int, default=None, help="bundled benchmark table 1..7")
    p_exp.add_argument("--desk-scale", action="store_true", help="reduced replications")
    p_exp.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_exp.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_exp.add_argument("--out", default="experiment_report", help="output file prefix")
    p_exp.add_argument("--format", choices=("json", "human"), default="human", dest="fmt")
    return parser


def _read_sample(args: argparse.Namespace) -> Sample:
    stdin = getattr(sys.stdin, "buffer", sys.stdin)  # its bytes: refused as a file's, whatever the encoding
    return load_sample(stdin if args.input == "-" else args.input, column=args.column)


def _emit(payload: dict[str, Any], fmt: str) -> None:
    payload = json_safe(payload)
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        import csv as _csv

        keys = sorted(payload)
        writer = _csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerow([json.dumps(payload[k]) if isinstance(payload[k], (list, dict)) else payload[k] for k in keys])
    else:
        width = max(len(k) for k in payload)
        for key in sorted(payload):
            print(f"{key:<{width}}  {payload[key]}")


def _cmd_fit(args: argparse.Namespace) -> int:
    family = FAMILIES[args.family]
    sample = _read_sample(args)
    payload = family.fit(sample, alpha=args.alpha).to_dict()
    try:
        payload.update(family.gof(sample, alpha=args.alpha).to_dict())
    except LaplaceFitError as exc:
        # the fit stands (a constant sample's gamma = 1 boundary, say), so the
        # test's regime error rides along in the same object
        payload.update(error=exc.code, message=str(exc))
        _emit(payload, args.fmt)
        return 2
    _emit(payload, args.fmt)
    return 0


def _cmd_gof(args: argparse.Namespace) -> int:
    sample = _read_sample(args)
    _emit(FAMILIES[args.family].gof(sample, alpha=args.alpha).to_dict(), args.fmt)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from .distributions import DistributionSpec, derive_substream, sample_spec

    n, seed = _at_least("n", args.n, 1), _at_least("seed", args.seed, 0)
    spec = DistributionSpec.parse(args.spec)
    values = Sample.from_values(sample_spec(spec, derive_substream(seed), size=n)).values
    sys.stdout.write("\n".join(repr(float(v)) for v in values) + "\n")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from .distributions import Tw0Params, tw0_to_tw

    tw = tw0_to_tw(Tw0Params(args.mu, args.w, args.p))
    payload = {"gamma": tw.gamma, "lambda": tw.lam, "theta": tw.theta}
    if args.fmt == "human":
        print(f"({tw.gamma:.7f}, {tw.lam:.6f}, {tw.theta:.6f})")
    else:
        _emit(payload, args.fmt)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .montecarlo import parse_config_document, run_configs, run_table
    from .tables import DESK_REPLICATIONS

    if (args.config is None) == (args.table is None):
        raise ConfigError("experiment: pass exactly one of CONFIG or --table N")
    if args.table is not None:
        report = run_table(
            args.table, desk_scale=args.desk_scale, base_seed=args.seed, jobs=args.jobs
        )
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: invalid JSON ({exc})") from None
        configs = parse_config_document(payload)
        if args.seed is not None:
            configs = [replace(c, base_seed=args.seed + i) for i, c in enumerate(configs)]
        if args.desk_scale:
            configs = [replace(c, replications=min(c.replications, DESK_REPLICATIONS)) for c in configs]
        report = run_configs(configs, jobs=args.jobs)
    json_path, csv_path = report.write(args.out)
    if args.fmt == "json":
        print(report.to_json())
    else:
        print(f"wrote {json_path} and {csv_path} ({len(report.records)} records)")
        for record in report.records:
            label = f"{record.generator} n={record.n} {record.metric}"
            if record.parameter:
                label += f"[{record.parameter}]"
            value = "nan" if record.value != record.value else f"{record.value:.4f}"
            print(f"  {label:<44} {value}  (failures: {record.n_failed})")
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line per warning, without the source line Python would echo
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fit": _cmd_fit,
        "gof": _cmd_gof,
        "sample": _cmd_sample,
        "convert": _cmd_convert,
        "experiment": _cmd_experiment,
    }
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return handlers[args.command](args)
    except InputError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except LaplaceFitError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}))
        return 2
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
