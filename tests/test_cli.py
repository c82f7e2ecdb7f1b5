import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from laplacefit import DistributionSpec, derive_substream, sample_spec
from laplacefit import distributions
from laplacefit.cli import main
from laplacefit.errors import (
    ConfigError,
    InputError,
    LaplaceFitError,
    SampleValidationError,
    SpecFormatError,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sample


def test_sample_degenerate_rows(capsys):
    code, out, _ = run_cli(capsys, "sample", "ps:1,3", "--n", "2")
    assert code == 0
    assert out == "3.0\n3.0\n"


def test_sample_seed_reproducibility(capsys):
    code1, out1, _ = run_cli(capsys, "sample", "ps:0.5,15", "--n", "50", "--seed", "9")
    code2, out2, _ = run_cli(capsys, "sample", "ps:0.5,15", "--n", "50", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_zero_inflated_fraction(capsys):
    code, out, _ = run_cli(capsys, "sample", "pa0:5,2,0.1", "--n", "100000", "--seed", "3")
    assert code == 0
    values = np.array([float(tok) for tok in out.split()])
    assert values.size == 100000
    assert abs((values == 0.0).mean() - 0.1) < 0.006


@pytest.mark.parametrize("spec", ["bogus:1", "ln:nan,1", "tw0:1,1,0.5"])
def test_sample_bad_spec_exit_1(capsys, spec):
    code, out, err = run_cli(capsys, "sample", spec, "--n", "5")
    assert code == 1 and out == ""
    assert "spec_format" in err


@pytest.mark.parametrize(
    "argv,row",
    [
        (("lnsqrt:30,1", "--n", "2"), 1),
        (("pa:0.01,1", "--n", "20000", "--seed", "1"), 1330),
        # the stable scale lam**(1/gamma) overflows
        (("ps:0.5,1e300", "--n", "3"), 1),
        (("tw:0.3,1e200,0", "--n", "3"), 1),
    ],
)
def test_sample_overflow_exit_1(capsys, argv, row):
    # a draw that overflows is refused like an inf in a data file, never printed
    code, out, err = run_cli(capsys, "sample", *argv)
    assert (code, out) == (1, "")
    assert err == f"error (invalid_sample): row {row}: non-finite value inf\n"


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (("--n", "0"), "n: must be >= 1, got 0"),
        (("--n", "-1"), "n: must be >= 1, got -1"),
        (("--n", "5", "--seed", "-1"), "seed: must be >= 0, got -1"),
    ],
)
def test_sample_bad_size_or_seed_exit_1(capsys, argv, fragment):
    code, out, err = run_cli(capsys, "sample", "ps:0.5,15", *argv)
    assert code == 1 and out == ""
    assert f"error (config): {fragment}" in err


def test_sample_unallocatable_size_exit_1(capsys):
    # 10**14 values are beyond the address space, so numpy refuses the array
    # before it allocates anything
    code, out, err = run_cli(capsys, "sample", "ps:0.5,1", "--n", str(10**14))
    assert code == 1 and out == ""
    assert err.startswith("error (config): size: 100000000000000 values cannot be allocated")


def test_sample_refuses_tilted_rejection_beyond_the_work_bound(capsys, monkeypatch):
    # 1000 values at acceptance 2e-6 expect about 5e8 proposals: refused
    # before a single proposal is drawn (the stand-in's zeros would all be kept)
    calls = []
    monkeypatch.setattr(
        distributions, "_standard_one_sided_stable", lambda *args: calls.append(args) or np.zeros(args[2])
    )
    code, out, err = run_cli(capsys, "sample", "tw:0.6,13.1,1", "--n", "1000")
    assert (code, err, calls) == (2, "", [])
    payload = json.loads(out)
    assert payload["error"] == "tilted_rejection_infeasible"
    assert payload["message"].startswith("1000 values at acceptance rate 2.05e-06 expect more than")


# ---------------------------------------------------------------------------
# fit / gof


@pytest.fixture
def stable_data_file(tmp_path):
    spec = DistributionSpec.parse("ps:0.5,15")
    values = sample_spec(spec, derive_substream(99), size=10**5)
    path = tmp_path / "draws.txt"
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return path


def test_fit_ps_from_file(capsys, stable_data_file):
    code, out, _ = run_cli(capsys, "fit", "ps", str(stable_data_file))
    assert code == 0
    payload = json.loads(out)
    assert 0.48 <= payload["gamma_hat"] <= 0.52
    for key in ("lambda_hat", "se_gamma", "ci_lambda", "a", "t_stat", "sigma_hat", "p_value"):
        assert key in payload


def test_python_dash_m_runs_the_cli(stable_data_file):
    # ``python -m laplacefit`` prints the bytes ``python -m laplacefit.cli`` prints
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    outputs = [
        subprocess.run(
            [sys.executable, "-m", module, "fit", "ps", str(stable_data_file)],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            check=True,
        ).stdout
        for module in ("laplacefit", "laplacefit.cli")
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["family"] == "ps"


def test_fit_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.0\n0.0\n0.0\n"))
    code, out, _ = run_cli(capsys, "fit", "tweedie", "-")
    assert code == 2
    assert json.loads(out)["error"] == "all_zero_sample"


@pytest.mark.parametrize("family", ["ps", "jacobi"])
def test_fit_value_where_a_x_overflows(capsys, monkeypatch, family):
    # A*1.7e308 overflows; the observation adds 0 to every censored moment, so
    # the fit and test stay finite
    text = "0.5\n10\n0.5\n1e-20\n2\n1.7e308\n1e-310\n1e-200\n3\n4\n5\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "fit", family, "-")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert "nonfinite_covariance" not in payload["diagnostics"]
    numbers = [v for k, v in payload.items() if k not in ("family", "diagnostics", "reject")]
    assert np.isfinite(np.hstack(numbers)).all()


@pytest.mark.parametrize("n", [12, 20, 30, 50])
def test_gof_jacobi_constant_sample_exit_2(capsys, monkeypatch, n):
    monkeypatch.setattr("sys.stdin", io.StringIO("2\n" * n))
    code, out, _ = run_cli(capsys, "gof", "jacobi", "-")
    assert code == 2
    assert json.loads(out) == {
        "error": "degenerate_sample", "message": "constant sample: test variance is zero"
    }


CONSTANT_WARNING = (
    "warning: constant sample: point estimates are the gamma = 1 boundary "
    "and the covariance rows are constant\n"
)


def test_fit_constant_sample_shows_the_boundary_fit_and_the_test_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n" * 40))
    code, out, err = run_cli(capsys, "fit", "ps", "-")
    assert code == 2
    assert err == CONSTANT_WARNING
    payload = json.loads(out)
    assert payload["gamma_hat"] == 1.0 and payload["lambda_hat"] == 3.0
    assert payload["se_gamma"] == 0.0 and payload["diagnostics"] == ["degenerate_sample"]
    assert payload["error"] == "degenerate_sample"
    assert payload["message"] == "constant sample: test variance is zero"
    assert "t_stat" not in payload


@pytest.mark.parametrize("fmt", ["csv", "human"])
def test_fit_constant_sample_other_formats(capsys, monkeypatch, fmt):
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n" * 40))
    code, out, err = run_cli(capsys, "fit", "ps", "-", "--format", fmt)
    assert code == 2
    assert err == CONSTANT_WARNING
    if fmt == "csv":
        row = dict(zip(*csv.reader(io.StringIO(out))))
    else:
        row = dict(line.split(None, 1) for line in out.splitlines())
    assert row["gamma_hat"] == "1.0" and row["error"] == "degenerate_sample"
    assert row["message"] == "constant sample: test variance is zero"


@pytest.mark.parametrize(
    "data,column,row",
    [(b"1.5\n\xff2\n", None, 2), (b"w,v\n1,1.5\n2,\xff2\n", "v", 3)],
    ids=["text", "csv"],
)
def test_fit_refuses_a_file_that_is_not_utf8(capsys, tmp_path, data, column, row):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    argv = ["fit", "ps", str(path)] + (["--column", column] if column else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error (invalid_sample): row {row}: not UTF-8 text\n"


@pytest.mark.parametrize(
    "encoding", ["utf-8:strict", "utf-8:surrogateescape", "latin-1"],
    ids=["strict", "surrogateescape", "latin-1"],
)
@pytest.mark.parametrize(
    "data,column,row",
    [(b"1.5\n\xff2\n", None, 2), (b"w,v\n1,1.5\n2,\xff2\n", "v", 3)],
    ids=["text", "csv"],
)
def test_fit_refuses_stdin_that_is_not_utf8(data, column, row, encoding):
    # stdin's bytes are read whatever its encoding: strict or escaping UTF-8, or one
    # that decodes every byte
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "laplacefit", "fit", "ps", "-"] + (["--column", column] if column else []),
        input=data,
        env=dict(os.environ, PYTHONPATH=pythonpath, PYTHONIOENCODING=encoding),
        capture_output=True,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == f"error (invalid_sample): row {row}: not UTF-8 text\n".encode()


@pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
def test_fit_stdin_prints_the_bytes_of_the_file_fit(tmp_path, pipe):
    # stdin large enough for a split read gives the output of the path read
    from laplacefit.ingest import SPLIT_BYTES

    path = tmp_path / "draws.txt"
    values = sample_spec(DistributionSpec.parse("ps:0.5,15"), derive_substream(31), 480_000)
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    assert path.stat().st_size > 2 * SPLIT_BYTES
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])

    def fit(source, stdin):
        return subprocess.run(
            [sys.executable, "-m", "laplacefit", "fit", "ps", source],
            stdin=stdin, input=path.read_bytes() if stdin is None else None,
            env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, check=True,
        ).stdout

    with open(path, "rb") as fh:
        from_stdin = fit("-", None if pipe else fh)
    assert from_stdin == fit(str(path), subprocess.DEVNULL)


def test_fit_at_a_tiny_alpha_gives_finite_intervals(capsys, tmp_path):
    path = tmp_path / "draws.txt"
    values = sample_spec(DistributionSpec.parse("ps:0.5,15"), derive_substream(32), 200)
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    code, out, err = run_cli(capsys, "fit", "ps", str(path), "--alpha", "1e-17")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["alpha"] == 1e-17
    assert np.isfinite(payload["ci_gamma"] + payload["ci_lambda"]).all()


def test_fit_rejects_bad_rows(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n-2.0\n")
    code, _, err = run_cli(capsys, "fit", "ps", str(path))
    assert code == 1
    assert "row 2" in err


def test_fit_csv_column(capsys, tmp_path):
    rng = derive_substream(5)
    path = tmp_path / "data.csv"
    rows = "\n".join(f"{i},{v}" for i, v in enumerate(rng.gamma(2.0, 1.0, 200)))
    path.write_text("idx,val\n" + rows + "\n")
    code, out, _ = run_cli(capsys, "fit", "jacobi", str(path), "--column", "val")
    assert code == 0
    assert "gamma_hat" in json.loads(out)


def test_gof_json_keys(capsys, stable_data_file):
    code, out, _ = run_cli(capsys, "gof", "ps", str(stable_data_file))
    assert code == 0
    payload = json.loads(out)
    for key in ("t_stat", "sigma_hat", "z", "p_value", "reject"):
        assert key in payload


def test_fit_human_format(capsys, stable_data_file):
    code, out, _ = run_cli(capsys, "fit", "ps", str(stable_data_file), "--format", "human")
    assert code == 0
    assert "gamma_hat" in out and "{" not in out.splitlines()[0]


@pytest.mark.parametrize("command", ["fit", "gof"])
@pytest.mark.parametrize("alpha", ["1.5", "0"])
def test_alpha_outside_unit_interval_exit_1(capsys, stable_data_file, command, alpha):
    code, out, err = run_cli(capsys, command, "ps", str(stable_data_file), "--alpha", alpha)
    assert code == 1 and out == ""
    assert "error (config): alpha: must be in (0, 1)" in err


def test_tiny_scale_fit_matches_unscaled(capsys, tmp_path):
    # at scale 1e-300 the fit and test read unit-free statistics, so gamma_hat
    # and z equal those of the unscaled sample at the reported A times 1e-300
    values = sample_spec(DistributionSpec.parse("ps:0.5,15"), derive_substream(98), size=500)
    path = tmp_path / "tiny.txt"
    path.write_text("\n".join(repr(float(v) * 1e-300) for v in values) + "\n")
    code, out, _ = run_cli(capsys, "fit", "ps", str(path))
    assert code == 0
    payload = json.loads(out)
    a = payload["a"] * 1e-300
    weights = np.exp(-a * values)
    m1, m2, m3 = (np.mean(values**r * weights) for r in (1, 2, 3))
    terms = weights * ((a * m3 - 2.0 * m2) / m1 + values * (1.0 - a * values))
    z = np.sqrt(values.size) * (a * m2 - m1) / terms.std(ddof=1)
    assert payload["gamma_hat"] == pytest.approx(np.e * a * m1, rel=1e-9)
    assert payload["z"] == pytest.approx(z, rel=1e-9)


def test_tweedie_fit_in_other_units_matches_unscaled(capsys, tmp_path):
    # the Tweedie fit and test read the unit-free point (m_tilde, 1), so data
    # in millionths give the same index and z
    values = sample_spec(DistributionSpec.parse("tw0:1,1,0.1"), derive_substream(95), size=1000)
    payloads = []
    for scale in (1.0, 1e-6):
        path = tmp_path / f"draws_{scale:g}.txt"
        path.write_text("\n".join(repr(float(v) * scale) for v in values) + "\n")
        code, out, _ = run_cli(capsys, "fit", "tweedie", str(path))
        assert code == 0
        payloads.append(json.loads(out))
    unit, micro = payloads
    assert micro["gamma_hat"] == pytest.approx(unit["gamma_hat"], rel=1e-9)
    assert micro["z"] == pytest.approx(unit["z"], rel=1e-9)


@pytest.mark.parametrize("family,spec", [("ps", "ps:0.5,15"), ("tweedie", "tw0:1,1,0.1"), ("jacobi", "ps:0.5,15")])
def test_fit_human_format_prints_plain_floats(capsys, tmp_path, family, spec):
    values = sample_spec(DistributionSpec.parse(spec), derive_substream(96), size=500)
    path = tmp_path / "draws.txt"
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    code, out, _ = run_cli(capsys, "fit", family, str(path), "--format", "human")
    assert code == 0 and "ci_gamma" in out
    assert "np.float64" not in out


def test_subnormal_sample_exit_2(capsys, tmp_path):
    # the largest value is 1e-310, so the censoring point is not a finite float
    values = sample_spec(DistributionSpec.parse("ps:0.5,15"), derive_substream(97), size=500)
    path = tmp_path / "subnormal.txt"
    path.write_text("\n".join(repr(float(v)) for v in values / values.max() * 1e-310) + "\n")
    code, out, _ = run_cli(capsys, "fit", "ps", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "degenerate_sample"


def test_missing_file_exit_1(capsys):
    code, out, err = run_cli(capsys, "fit", "ps", "/no/such/file.txt")
    assert (code, out) == (1, "")
    assert err.startswith("error (io): [Errno 2] No such file or directory")


def test_directory_exit_1(capsys, tmp_path):
    code, out, err = run_cli(capsys, "fit", "ps", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error (io): [Errno 21] Is a directory")


# ---------------------------------------------------------------------------
# convert


def test_convert_tw0(capsys):
    code, out, _ = run_cli(capsys, "convert", "tw0", "1", "1", "0.1")
    assert code == 0
    assert out.strip() == "(-0.7677042, 3.565768, 1.767704)"


def test_convert_json(capsys):
    code, out, _ = run_cli(capsys, "convert", "tw0", "1", "1", "0.1", "--format", "json")
    payload = json.loads(out)
    assert payload["gamma"] == pytest.approx(-0.767704164110660, rel=1e-12)


def test_convert_invalid_regime(capsys):
    code, out, _ = run_cli(capsys, "convert", "tw0", "1", "1", "0.5")
    assert code == 2
    assert json.loads(out)["error"] == "invalid_regime"


@pytest.mark.parametrize(
    "values, message",
    [
        (("1", "inf", "0.5"), "mean and w must be finite, got 1.0 and inf"),
        (("inf", "1", "0.5"), "mean and w must be finite, got inf and 1.0"),
    ],
)
def test_convert_refuses_an_infinite_mean_or_w(capsys, values, message):
    # an input error, not a traceback (w = inf) or a regime error (mu = inf)
    code, out, err = run_cli(capsys, "convert", "tw0", *values)
    assert (code, out, err) == (1, "", f"error (spec_format): {message}\n")


def test_convert_missing_value_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["convert", "tw0", "1", "2"])
    assert excinfo.value.code == 2
    assert "the following arguments are required: P" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# help


@pytest.mark.parametrize("command", [None, "fit", "gof", "sample", "convert", "experiment"], ids=str)
def test_help_exits_0(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: laplacefit", *argv[:-1], ""]))


# ---------------------------------------------------------------------------
# experiment


def test_experiment_config_file(capsys, tmp_path):
    config = {
        "generator": "ps:0.5,2",
        "fit_target": "ps",
        "n_grid": [60],
        "replications": 10,
        "base_seed": 4,
        "metrics": ["rrmse"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_prefix = str(tmp_path / "report")
    code, out, _ = run_cli(capsys, "experiment", str(path), "--out", out_prefix)
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["records"]) == 2
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("generator,")


def test_experiment_table6(capsys, tmp_path):
    out_prefix = str(tmp_path / "conv")
    code, out, _ = run_cli(
        capsys, "experiment", "--table", "6", "--out", out_prefix, "--format", "json"
    )
    assert code == 0
    payload = json.loads((tmp_path / "conv.json").read_text())
    assert len(payload["records"]) == 9


def test_experiment_invalid_config_field_path(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiments": [{"generator": "ps:0.5,2", "fit_target": "ps"}]}))
    code, _, err = run_cli(capsys, "experiment", str(path))
    assert code == 1
    assert "experiments[0].n_grid" in err


@pytest.mark.parametrize(
    "field,argv,fragment",
    [
        ({"replications": "many"}, (), "replications: must be an integer"),
        ({"n_grid": ["x"]}, (), "n_grid: must be an integer"),
        ({"n_grid": 100}, (), "n_grid: must be a list"),
        ({"base_seed": -1}, (), "base_seed: must be >= 0"),
        ({"metrics": "size"}, (), "metrics: must be a list, got the string"),
        ({}, ("--seed", "-1"), "base_seed: must be >= 0"),
        (None, ("--table", "1", "--seed", "-1"), "base_seed: must be >= 0"),
        ({"metrics": []}, (), "metrics: must be non-empty"),
        (
            {"generator": "tw:0.5,2,0", "fit_target": "tweedie", "metrics": ["rrmse"]},
            (),
            "metrics: rrmse divides by the true theta, which is 0",
        ),
        (None, ("--table", "6", "--seed", "-1"), "base_seed: must be >= 0"),
        (None, ("--table", "3", "--jobs", "0"), "jobs: must be >= 1, got 0"),
        (None, ("--table", "3", "--jobs", "-3"), "jobs: must be >= 1, got -3"),
        ({}, ("--jobs", "0"), "jobs: must be >= 1, got 0"),
    ],
)
def test_experiment_malformed_config_exit_1(capsys, tmp_path, field, argv, fragment):
    config = {"generator": "ps:0.5,2", "fit_target": "ps", "n_grid": [60], "replications": 5}
    source = ()
    if field is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(config, **field)))
        source = (str(path),)
    code, out, err = run_cli(capsys, "experiment", *source, *argv, "--out", str(tmp_path / "r"))
    assert code == 1 and out == ""
    assert err.startswith("error (config): ") and fragment in err


def test_experiment_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "experiment")
    assert code == 1
    assert "exactly one" in err


# ---------------------------------------------------------------------------
# error contract


def leaf_errors(cls=LaplaceFitError):
    """Every LaplaceFitError class that has no subclass of its own."""
    for sub in cls.__subclasses__():
        yield from (leaf_errors(sub) if sub.__subclasses__() else (sub,))


def test_input_errors_are_the_three_input_kinds():
    inputs = {error for error in leaf_errors() if issubclass(error, InputError)}
    assert inputs == {SampleValidationError, SpecFormatError, ConfigError}


@pytest.mark.parametrize("error", list(leaf_errors()), ids=lambda error: error.__name__)
def test_every_error_kind_has_its_exit_code(capsys, monkeypatch, error):
    # an input error is one line on stderr and exit 1; any other is a JSON
    # object on stdout and exit 2
    def raise_it(*args):
        raise error("the message")

    monkeypatch.setattr(distributions, "tw0_to_tw", raise_it)
    code, out, err = run_cli(capsys, "convert", "tw0", "1", "1", "0.1")
    if issubclass(error, InputError):
        assert (code, out, err) == (1, "", f"error ({error.code}): the message\n")
    else:
        assert (code, err) == (2, "")
        assert json.loads(out) == {"error": error.code, "message": "the message"}
