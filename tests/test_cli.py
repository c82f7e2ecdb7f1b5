import io
import json

import numpy as np
import pytest

from laplacefit import DistributionSpec, derive_substream, sample_spec
from laplacefit import cli
from laplacefit.cli import main
from laplacefit.errors import (
    ConfigError,
    InputError,
    LaplaceFitError,
    SampleValidationError,
    SpecFormatError,
)


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


def test_sample_bad_spec_exit_1(capsys):
    code, out, err = run_cli(capsys, "sample", "bogus:1", "--n", "5")
    assert code == 1
    assert "spec_format" in err


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


def test_fit_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.0\n0.0\n0.0\n"))
    code, out, _ = run_cli(capsys, "fit", "tweedie", "-")
    assert code == 2
    assert json.loads(out)["error"] == "all_zero_sample"


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
    assert "error (config): alpha must be in (0, 1)" in err


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
    code, _, err = run_cli(capsys, "fit", "ps", "/no/such/file.txt")
    assert code == 1
    assert "error" in err


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

    monkeypatch.setattr(cli, "tw0_to_tw", raise_it)
    code, out, err = run_cli(capsys, "convert", "tw0", "1", "1", "0.1")
    if issubclass(error, InputError):
        assert (code, out, err) == (1, "", f"error ({error.code}): the message\n")
    else:
        assert (code, err) == (2, "")
        assert json.loads(out) == {"error": error.code, "message": "the message"}
