"""The data-driven censoring machinery, step by step.

Exponential censoring replaces X by X*1{a*X < T} with T a unit exponential,
so the censored moments are E[X**r * exp(-a*X)] -- finite even when E[X] is
not.  The working point A is chosen where the empirical transform equals 1/e,
which keeps the censored sample informative for any scale of data.
"""

import numpy as np

from laplacefit import (
    DistributionSpec,
    Sample,
    derive_substream,
    empirical_laplace,
    sample_spec,
)

rng = derive_substream(7)
spec = DistributionSpec.parse("ps:0.5,15")
sample = Sample.from_values(sample_spec(spec, rng, size=50_000))

# the sample is a batch of one: it solves for A once, keeps the record of the
# solve and makes one statistics pass in the frame y = A*X, and every fit and
# test of this sample reads this same row
batch = sample.batch
a_star = 15.0**-2  # population point lam**(-1/gamma)
print(f"solved A = {batch.a[0]:.6f}  (population a* = {a_star:.6f})")
print(f"L_n(A) = {empirical_laplace(sample, batch.a[0]):.15f} vs target 1/e = {1.0 / np.e:.15f}")
print(f"solver iterations: {batch.iterations[0]}, residual {batch.residual[0]:.2e}")

# the normalized moments m~_r = A**r * mean(X**r exp(-A X)) do not depend on
# the data's units; the fits read them and A, never the raw moments
print("\nnormalized censored moments m~_r = mean(y**r exp(-y)):")
for r in range(5):
    print(f"  m~_{r} = {batch.m_tilde[0, r]:.6f}")
print(f"population m~_1 = gamma/e = {0.5 / np.e:.6f}")

# the covariance of the power products y**r exp(-y), r <= 3, drives every
# standard error in the package through a small fixed matrix
print("\npower-product covariance (r = 0..3, frame y = A*X):")
print(np.array2string(batch.cov[0], precision=4, suppress_small=True))

# L_n falls from 1 to the zero fraction, so zero-heavy data have no censoring
# point: the solve refuses them, and every fit and test raises its error
zeros = Sample.from_values(np.where(rng.random(1000) < 0.45, 0.0, rng.gamma(2.0, 1.0, 1000)))
error = zeros.batch.errors[0]
print(f"\n{type(error).__name__} ({error.code}): {error}")
