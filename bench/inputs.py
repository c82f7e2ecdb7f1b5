"""Input files for the ``cli_fit_1e6`` workload.

The samples are drawn here with plain numpy, apart from
``laplacefit.distributions``, so that a fault in the package's samplers
cannot also hide in the data the benchmark checks it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: rows per CLI input file
N_ROWS = 10**6

#: ps:0.5,15, the positive stable law with transform exp(-15 * s**0.5)
PS_GAMMA, PS_LAMBDA = 0.5, 15.0

#: tw0:1,1,0.1 in native form, as published in the paper's conversion table
TW_GAMMA, TW_LAMBDA, TW_THETA = -0.7677042, 3.565768, 1.767704

#: factor applied to the scale-equivariance sample
RESCALE = 1e-300

#: seed of the scale-equivariance sample; fixed so that its operation fails
#: (or passes) alike in every run, whatever the workload seed
RESCALE_SEED = 20240515


def kanter_stable(gamma: float, lam: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive stable draws with transform exp(-lam * s**gamma), 0 < gamma < 1.

    Kanter's representation: with U ~ Uniform(0, pi) and W ~ Exp(1),
    (sin(gamma U) / sin U) * (sin((1-gamma) U) / (W sin U))**((1-gamma)/gamma)
    has transform exp(-s**gamma); the scale enters as lam**(1/gamma).
    """
    u = rng.uniform(0.0, math.pi, n)
    w = rng.standard_exponential(n)
    su = np.sin(u)
    shape = np.sin(gamma * u) / su * (np.sin((1.0 - gamma) * u) / (w * su)) ** ((1.0 - gamma) / gamma)
    return lam ** (1.0 / gamma) * shape


def poisson_gamma(gamma: float, lam: float, theta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Compound Poisson-gamma draws for the Tweedie branch gamma < 0.

    N ~ Poisson(lam * theta**gamma) jumps, each Gamma(-gamma, rate theta), so
    the sum given N is Gamma(-gamma * N, rate theta) and X = 0 when N = 0.
    """
    counts = rng.poisson(lam * theta**gamma, n)
    out = np.zeros(n)
    pos = counts > 0
    out[pos] = rng.gamma(-gamma * counts[pos], 1.0 / theta)
    return out


def _write_lines(path: Path, values: np.ndarray) -> None:
    # repr round-trips every float64 exactly, so the checks can use `values`
    path.write_text("\n".join(map(repr, values.tolist())) + "\n", encoding="utf-8")


def _write_csv(path: Path, values: np.ndarray) -> None:
    rows = (f"{i},{v!r}" for i, v in enumerate(values.tolist(), start=1))
    path.write_text("policy,amount\n" + "\n".join(rows) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CliInputs:
    """The generated samples and the files that hold them."""

    ps: np.ndarray
    tweedie: np.ndarray
    rescaled_base: np.ndarray
    ps_path: Path
    tweedie_path: Path
    tweedie_csv_path: Path
    rescaled_path: Path


def make_cli_inputs(seed: int, directory: Path) -> CliInputs:
    """Draw the CLI samples from ``seed`` and write them under ``directory``."""
    n = N_ROWS
    ps = kanter_stable(PS_GAMMA, PS_LAMBDA, np.random.default_rng([seed, 1]), n)
    tweedie = poisson_gamma(TW_GAMMA, TW_LAMBDA, TW_THETA, np.random.default_rng([seed, 2]), n)
    base = kanter_stable(PS_GAMMA, PS_LAMBDA, np.random.default_rng(RESCALE_SEED), n)
    inputs = CliInputs(
        ps=ps,
        tweedie=tweedie,
        rescaled_base=base,
        ps_path=directory / "ps.txt",
        tweedie_path=directory / "tweedie.txt",
        tweedie_csv_path=directory / "tweedie.csv",
        rescaled_path=directory / "ps_rescaled.txt",
    )
    _write_lines(inputs.ps_path, ps)
    _write_lines(inputs.tweedie_path, tweedie)
    _write_csv(inputs.tweedie_csv_path, tweedie)
    _write_lines(inputs.rescaled_path, base * RESCALE)
    return inputs
