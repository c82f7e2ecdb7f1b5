import numpy as np
import pytest

from numdiff_oracle import (
    central_diff_gradient,
    central_diff_jacobian,
    richardson_jacobian,
)


def test_linear_map_exact():
    a = np.array([[1.0, 2.0, -3.0], [0.5, 0.0, 4.0]])
    jac = central_diff_jacobian(lambda x: a @ x, np.array([0.3, -1.2, 2.0]))
    assert np.allclose(jac, a, rtol=1e-9)


def test_scalar_gradient_shape():
    grad = central_diff_gradient(lambda x: x[0] ** 2 + 3.0 * x[1], np.array([2.0, 5.0]))
    assert grad.shape == (2,)
    assert np.allclose(grad, [4.0, 3.0], rtol=1e-8)


def test_analytic_jacobian_agreement():
    def f(x):
        return np.array([np.exp(x[0]) * x[1], np.sin(x[0]) + x[1] ** 3])

    x0 = np.array([0.4, 1.7])
    expected = np.array(
        [[np.exp(0.4) * 1.7, np.exp(0.4)], [np.cos(0.4), 3 * 1.7**2]]
    )
    assert np.allclose(central_diff_jacobian(f, x0), expected, rtol=1e-7)
    assert np.allclose(richardson_jacobian(f, x0), expected, rtol=1e-9)


def test_richardson_beats_central_on_curved_map():
    def f(x):
        return np.array([np.exp(3.0 * x[0])])

    x0 = np.array([1.1])
    truth = 3.0 * np.exp(3.3)
    err_central = abs(central_diff_jacobian(f, x0)[0, 0] - truth)
    err_rich = abs(richardson_jacobian(f, x0)[0, 0] - truth)
    assert err_rich < err_central


def test_step_floor_for_tiny_coordinates():
    # coordinates below the floor still get a usable step
    grad = central_diff_gradient(lambda x: x[0] ** 2, np.array([1e-9]))
    assert grad[0] == pytest.approx(0.0, abs=1e-8)
