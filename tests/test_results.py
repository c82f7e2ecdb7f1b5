import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from laplacefit.results import normal_quantile, two_sided_p_value

SRC = Path(__file__).resolve().parents[1] / "src"


def test_normal_quantile_matches_scipy():
    for alpha in np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001), [0.05, 0.01, 1e-12]]):
        assert normal_quantile(alpha) == pytest.approx(stats.norm.ppf(1.0 - alpha / 2.0), rel=1e-12)


def test_two_sided_p_value_matches_scipy():
    for z in np.linspace(-37.0, 37.0, 7401):
        assert two_sided_p_value(z) == pytest.approx(2.0 * stats.norm.sf(abs(z)), rel=1e-12)


def test_import_leaves_scipy_out():
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    code = "import sys, laplacefit, laplacefit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
