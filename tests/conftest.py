import warnings

import numpy as np
import pytest

# Hypothesis imports this module while it reports a failing property, and the
# import emits libcst's mypy_extensions DeprecationWarning.  Under a test's
# filterwarnings("error") that warning becomes an INTERNALERROR which ends the
# whole session; importing the module once here, outside any test and with the
# warning silenced, keeps a failing property a plain failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from laplacefit import DistributionSpec, Sample, derive_substream, sample_spec


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def draw_sample(spec_text: str, n: int, seed: int = 7) -> Sample:
    spec = DistributionSpec.parse(spec_text)
    return Sample.from_values(sample_spec(spec, derive_substream(seed), size=n))
