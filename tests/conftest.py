import numpy as np
import pytest

from projnewton.decomp import sym_eig
from projnewton.lagrange import symplectic_frame_from_basis, sympl_form

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


# a Newton step of norm ~1.9e154 on Gr(2, 6): its sum of squares overflows,
# its sigma_max^2 (1.7e308) does not, so every chart can push it
LONG_STEP = np.array([
    [3.9221831029637414e+153, 3.4712853130772397e+153, 1.0553232387396958e+153, -1.0696857508103120e+152],
    [7.6506021655121645e+153, 7.8137166019757931e+153, -2.5008147156300203e+152, 5.7622056337666854e+153],
])


def newton_solve_at(cost, frame, cls=None):
    """The Newton solve of ``cls`` at ``frame`` (the cost's own class unless
    given; ``CostFunction``: the dense fallback), from that class's frame
    terms: (Z, the state the solve hands on)."""
    cls = type(cost) if cls is None else cls
    return cls.newton_solve(cost, frame, cls.frame_terms(cost, frame)[2])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.T)


def random_skew(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * 0.5 * (a - a.T)


def lagrangian_trace_problem(rng, n):
    """A random symmetric A of size 2n that is not Hamiltonian, and the
    symplectic frame of the maximizer of tr(A P) on the Lagrange
    Grassmannian.  For Lagrangian P, J P J^T = I - P, so tr(A P) = tr(H P) +
    tr(A) / 2 with H = (A + J A J) / 2 symmetric Hamiltonian; H's positive
    eigenspace, which J maps onto the negative one, is the maximizer."""
    a = random_symmetric(rng, 2 * n)
    j = sympl_form(n)
    _, vectors = sym_eig(0.5 * (a + j @ a @ j))
    return a, symplectic_frame_from_basis(vectors[:, :n])
