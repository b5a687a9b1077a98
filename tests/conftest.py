import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # reproducible property tests: examples derive from each test's name,
    # nothing is stored between runs, and the example count bounds the time
    settings.register_profile("projnewton", derandomize=True, database=None, deadline=None,
                              max_examples=10)
    settings.load_profile("projnewton")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.T)


def random_skew(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * 0.5 * (a - a.T)
