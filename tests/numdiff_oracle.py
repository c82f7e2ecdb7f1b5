"""Central-difference Jacobians with a Richardson-extrapolated variant: a test oracle.

The tests check closed-form and complex-step derivatives of the library
against these independent estimates; ``test_numdiff`` checks the plain
central differences against the higher-order Richardson estimate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: cube root of machine epsilon, the standard central-difference step scale
CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)

#: coordinates smaller than this still get a step proportional to it
STEP_FLOOR = 1e-3


def _steps(x: np.ndarray, scale: float) -> np.ndarray:
    return np.maximum(np.abs(x), STEP_FLOOR) * scale


def central_diff_jacobian(
    f: Callable[[np.ndarray], Sequence[float] | np.ndarray | float],
    x: Sequence[float] | np.ndarray,
    step_scale: float = CBRT_EPS,
) -> np.ndarray:
    """Jacobian of ``f`` at ``x`` by central differences.

    The step in coordinate j is max(|x_j|, STEP_FLOOR) * step_scale.  ``f``
    is called once, on the 2d displaced points stacked along a new axis after
    the first, so it must map an array of shape (d, ...) to (k, ...), or to
    (...) when scalar-valued, acting on each point on its own.  For x of
    shape (d,) the result has shape (k, d); scalar-valued ``f`` gives one
    row.  ``x`` may carry trailing batch axes, (d, R), and the result is then
    (k, d, R).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    h = _steps(x, step_scale)
    points = np.repeat(x[:, None], 2 * d, axis=1)
    for j in range(d):
        points[j, j] += h[j]
        points[j, d + j] -= h[j]
    values = np.asarray(f(points), dtype=float).reshape(-1, 2 * d, *x.shape[1:])
    return (values[:, :d] - values[:, d:]) / (2.0 * h)


def central_diff_gradient(
    f: Callable[[np.ndarray], float],
    x: Sequence[float] | np.ndarray,
    step_scale: float = CBRT_EPS,
) -> np.ndarray:
    """Gradient of a scalar map as a flat array."""
    return central_diff_jacobian(f, x, step_scale=step_scale)[0]


def richardson_jacobian(
    f: Callable[[np.ndarray], Sequence[float] | np.ndarray | float],
    x: Sequence[float] | np.ndarray,
    step_scale: float = CBRT_EPS,
) -> np.ndarray:
    """Richardson extrapolation of the central difference over steps h and h/2.

    Central differences have error O(h^2), so (4*D(h/2) - D(h)) / 3 cancels
    the leading term and is accurate to O(h^4).
    """
    coarse = central_diff_jacobian(f, x, step_scale=step_scale)
    fine = central_diff_jacobian(f, x, step_scale=0.5 * step_scale)
    return (4.0 * fine - coarse) / 3.0
