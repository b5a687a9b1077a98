"""Check once, form once: a Newton iterate forms B = Theta A Theta^T once,
and nothing inside ``run_newton`` re-runs ``require_symmetric``.  The
costs check their matrix when built, and the Newton solves hand blocks
they have just symmetrized to the solvers' unchecked cores.  The public
solvers and kernels keep their entry checks, and each unchecked core
returns exactly what its checked entry returns."""

import sys

import numpy as np
import pytest

import projnewton.decomp
from projnewton.costs import HamiltonianRayleighCost, InvariantSubspaceCost, RayleighCost
from projnewton.decomp import eigh_descending, require_symmetric, sym_eig
from projnewton.errors import NotSymmetric
from projnewton.grassmann import CHART_NAMES, OrthoFrame
from projnewton.lagrange import symplectic_frame_from_basis
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton
from projnewton.solvers import (
    solve_lyapunov,
    solve_lyapunov_unchecked,
    solve_sylvester,
    solve_sylvester_unchecked,
)

from conftest import random_symmetric


class _CountingMatrix(np.ndarray):
    """A cost matrix that counts the products Theta @ A: one per B formed."""

    def __rmatmul__(self, other):
        self.products += 1
        return np.matmul(other, self.view(np.ndarray))


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _problem(method, seed):
    """(cost, start, reference projector, run_newton method) near a
    nondegenerate critical point."""
    rng = np.random.default_rng(seed)
    if method == "rayleigh-lg":
        s, t = random_symmetric(rng, 3), random_symmetric(rng, 3)
        cost = HamiltonianRayleighCost.from_blocks(s, t)
        natural = symplectic_frame_from_basis(sym_eig(cost.h)[1][:, :3])
    else:
        n, m = 7, 2
        q = _orthogonal(rng, n)
        if method == "rayleigh-gr":
            a = (q * np.arange(2.0 * n, n, -1.0)) @ q.T
            cost = RayleighCost(0.5 * (a + a.T))
        else:  # a planted invariant subspace: block upper-triangular T
            t = np.triu(0.3 * rng.standard_normal((n, n)), 1) + np.diag(np.arange(n, 0.0, -1.0))
            cost = InvariantSubspaceCost(q @ t @ q.T)
        natural = OrthoFrame(q.T, m)
    start = perturb_frame(natural, 0.05, seed)
    return cost, start, natural.projector(), method


METHODS = ("rayleigh-gr", "rayleigh-lg", "invariant-direct", "invariant-recursive")


@pytest.mark.parametrize("nu", CHART_NAMES)
@pytest.mark.parametrize("method", METHODS)
def test_b_is_formed_once_per_recorded_iterate(method, nu):
    cost, start, reference, method = _problem(method, 1)
    counting = cost.a.view(_CountingMatrix)
    counting.products = 0
    object.__setattr__(cost, "a", counting)
    trace = run_newton(cost, start, NewtonConfig(nu=nu), reference=reference, method=method)
    assert trace.status == Status.CONVERGED
    assert len(trace.records) >= 3
    # the last record's certification solve reuses its B as well
    assert counting.products == len(trace.records)


def _count_calls(monkeypatch, func):
    """Rebind every module-level binding of ``func`` in the library to a
    counting wrapper; returns the list of the ``what`` labels it saw."""
    seen = []

    def counting(*args, **kwargs):
        seen.append(kwargs.get("what"))
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "projnewton" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counting)
    return seen


class TestNoRecheckInTheLoop:
    @pytest.mark.parametrize("nu", CHART_NAMES)
    @pytest.mark.parametrize("method", METHODS)
    def test_require_symmetric_is_not_called(self, monkeypatch, method, nu):
        cost, start, _, method = _problem(method, 2)  # the entry checks run here
        seen = _count_calls(monkeypatch, require_symmetric)
        assert projnewton.decomp.require_symmetric is not require_symmetric
        trace = run_newton(cost, start, NewtonConfig(nu=nu), method=method)
        assert trace.status == Status.CONVERGED
        assert seen == []

    def test_reference_is_checked_once_per_run(self, monkeypatch):
        cost, start, reference, method = _problem("rayleigh-gr", 3)
        seen = _count_calls(monkeypatch, require_symmetric)
        trace = run_newton(cost, start, NewtonConfig(), reference=reference, method=method)
        assert len(trace.records) >= 3
        assert seen == ["sym_eig input"]


def _gapped_blocks(rng):
    a11 = random_symmetric(rng, 3) + 6.0 * np.eye(3)
    a22 = random_symmetric(rng, 4) - 6.0 * np.eye(4)
    return a11, a22


class TestUncheckedCoresMatch:
    """On input that passes the entry checks, the checked entry returns
    exactly (bit for bit) what its core returns."""

    def test_sylvester(self, rng):
        a11, a22 = _gapped_blocks(rng)
        c = rng.standard_normal((3, 4))
        assert np.array_equal(solve_sylvester(a11, a22, c), solve_sylvester_unchecked(a11, a22, c))

    def test_lyapunov(self, rng):
        a11, _ = _gapped_blocks(rng)
        c = random_symmetric(rng, 3)
        assert np.array_equal(solve_lyapunov(a11, c), solve_lyapunov_unchecked(a11, c))

    def test_sym_eig(self, rng):
        s = random_symmetric(rng, 6)
        for checked, core in zip(sym_eig(s), eigh_descending(s)):
            assert np.array_equal(checked, core)


def _asymmetric(n):
    a = np.diag(np.arange(1.0, n + 1.0))
    a[0, -1] = 1.0
    return a


# the full messages of the entry checks; ``tests/test_decomp.py``
# ``TestNonFiniteRejected`` covers non-finite entries at the same entries
ENTRY_CHECKS = {
    "solve_sylvester": (lambda: solve_sylvester(_asymmetric(3), -np.eye(2), np.ones((3, 2))),
                        "A11 symmetry defect"),
    "solve_lyapunov": (lambda: solve_lyapunov(np.eye(3), _asymmetric(3)),
                       "Lyapunov right-hand side symmetry defect"),
    "sym_eig": (lambda: sym_eig(_asymmetric(3)), "sym_eig input symmetry defect"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_CHECKS))
def test_public_entries_keep_their_checks(entry):
    call, what = ENTRY_CHECKS[entry]
    with pytest.raises(NotSymmetric) as info:
        call()
    assert str(info.value) == f"{what} 1.000e+00 exceeds 1.0e-12 relative"


def test_counting_matrix_forms_the_same_b():
    # the counter changes no bit of B
    rng = np.random.default_rng(0)
    a = random_symmetric(rng, 5)
    theta = _orthogonal(rng, 5)
    counting = a.view(_CountingMatrix)
    counting.products = 0
    b = theta @ counting @ theta.T
    assert counting.products == 1 and type(b) is np.ndarray
    assert np.array_equal(b, theta @ a @ theta.T)
