"""The data-driven censoring machinery, step by step.

Exponential censoring replaces X by X*1{a*X < T} with T a unit exponential,
so the censored moments are E[X**r * exp(-a*X)] -- finite even when E[X] is
not.  The working point A is chosen where the empirical transform equals 1/e
(or a zero-adjusted level when many observations are exact zeros), which keeps
the censored sample informative for any scale of data.
"""

import numpy as np

from laplacefit import (
    DistributionSpec,
    Sample,
    censored_moments,
    derive_substream,
    empirical_laplace,
    sample_spec,
    solve_censoring_point,
)

rng = derive_substream(7)
spec = DistributionSpec.parse("ps:0.5,15")
sample = Sample.from_values(sample_spec(spec, rng, size=50_000))

point = solve_censoring_point(sample)
a_star = 15.0**-2  # population point lam**(-1/gamma)
print(f"solved A = {point.a:.6f}  (population a* = {a_star:.6f})")
print(f"L_n(A) = {empirical_laplace(sample, point.a):.15f} vs target {point.c_target:.15f}")
print(f"solver iterations: {point.iterations}, residual {point.residual:.2e}")

# the sample solves for A once and makes one statistics pass in the frame
# y = A*X; every fit and test of this sample reads this same set.  The
# normalized moments m~_r = A**r * mean(X**r exp(-A X)) do not depend on the
# data's units; the fits read them and A, never the raw moments
moments = censored_moments(sample)
print("\nnormalized censored moments m~_r = mean(y**r exp(-y)):")
for r in range(5):
    print(f"  m~_{r} = {moments.m_tilde[r]:.6f}")
print(f"population m~_1 = gamma/e = {0.5 / np.e:.6f}")

# the covariance of the power products y**r exp(-y), r <= 3, drives every
# standard error in the package through a small fixed matrix
print("\npower-product covariance (r = 0..3, frame y = A*X):")
print(np.array2string(moments.cov, precision=4, suppress_small=True))

# zero-heavy data switch to the adjusted target level
zeros = Sample.from_values(np.where(rng.random(1000) < 0.45, 0.0, rng.gamma(2.0, 1.0, 1000)))
adjusted = solve_censoring_point(zeros)
print(f"\nzero fraction {zeros.p_hat:.3f} >= 1/e: adjusted target {adjusted.c_target:.6f}")
