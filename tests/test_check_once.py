"""Check once, form once: a Newton iterate forms B = Theta A Theta^T once,
and nothing inside ``run_newton`` re-runs ``require_symmetric``.  The
costs check their matrix when built, and the Newton solves hand blocks
they have just symmetrized to the solvers, which check nothing.  The
public kernel and the costs keep their entry checks, and ``sym_eig``
returns exactly what its unchecked core returns."""

import inspect
import sys

import numpy as np
import pytest

import projnewton.decomp
import projnewton.newton
from projnewton.cli import main
from projnewton.config import TOL
from projnewton.costs import HamiltonianRayleighCost, InvariantSubspaceCost, RayleighCost
from projnewton.decomp import eigh_descending, require_symmetric, sym_eig
from projnewton.errors import NotSymmetric
from projnewton.grassmann import CHART_NAMES, OrthoFrame
from projnewton.lagrange import require_hamiltonian, symplectic_frame_from_basis
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton

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


METHODS = ("rayleigh-gr", "rayleigh-lg", "invariant-direct")


@pytest.mark.parametrize("nu", CHART_NAMES)
@pytest.mark.parametrize("method", METHODS)
def test_b_is_formed_once_per_recorded_iterate(method, nu):
    cost, start, reference, method = _problem(method, 1)
    counting = cost.a_n.view(_CountingMatrix)  # B is formed from A_n, in the cost's units
    counting.products = 0
    object.__setattr__(cost, "a_n", counting)
    trace = run_newton(cost, start, NewtonConfig(nu=nu), reference=reference, method=method)
    assert trace.status == Status.CONVERGED
    assert len(trace.records) >= 3
    # the last record's certification, by bound (or solve), reuses its B as well
    assert counting.products == len(trace.records)


def _count_calls(monkeypatch, func, argument="what"):
    """Rebind every module-level binding of ``func`` in the library to a
    counting wrapper; returns the list of the values of ``argument`` it saw."""
    seen, signature = [], inspect.signature(func)

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments[argument])
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
        # where it enters: its dimension, rank and finite entries; a
        # Projector is symmetric by construction, and nothing eigendecomposes it
        cost, start, reference, method = _problem("rayleigh-gr", 3)
        symmetric = _count_calls(monkeypatch, require_symmetric)
        checked = _count_calls(monkeypatch, projnewton.newton._reference_matrix, "reference")
        trace = run_newton(cost, start, NewtonConfig(), reference=reference, method=method)
        assert len(trace.records) >= 3
        assert symmetric == []
        assert len(checked) == 1 and checked[0] is reference


@pytest.mark.parametrize("command", ["rayleigh-gr", "rayleigh-lg"])
def test_a_cli_run_checks_symmetry_twice(tmp_path, monkeypatch, command):
    # once at the file tolerance, in the CLI, and once in the cost: the
    # natural start eigendecomposes the cost's checked matrix as it is
    cost, _, _, _ = _problem(command, 4)
    path = tmp_path / "a.txt"
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in cost.a.tolist()))
    seen = _count_calls(monkeypatch, require_symmetric, "tol")
    argv = [command, str(path), "--out", str(tmp_path / "r.json")]
    assert main(argv + (["--m", "2"] if command == "rayleigh-gr" else [])) == 0
    assert seen == [TOL.input_symmetry, TOL.symmetry]


def test_a_rayleigh_lg_cli_run_checks_the_structure_once(tmp_path, monkeypatch):
    # at the file tolerance, in the CLI: its projection is Hamiltonian bit for
    # bit, so the cost it builds does not check it again
    cost, _, _, _ = _problem("rayleigh-lg", 4)
    path = tmp_path / "h.txt"
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in cost.a.tolist()))
    seen = _count_calls(monkeypatch, require_hamiltonian, "tol")
    assert main(["rayleigh-lg", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert seen == [TOL.input_symmetry]


class TestUncheckedCoresMatch:
    """On input that passes the entry check, the checked kernel returns
    exactly (bit for bit) what its core returns."""

    def test_sym_eig(self, rng):
        s = random_symmetric(rng, 6)
        for checked, core in zip(sym_eig(s), eigh_descending(s)):
            assert np.array_equal(checked, core)


def _asymmetric(n):
    a = np.diag(np.arange(1.0, n + 1.0))
    a[0, -1] = 1.0
    return a


# the full messages of the entry checks; ``tests/test_decomp.py``
# ``TestNonFiniteRejected`` covers non-finite entries at the same entries.  The
# cost measures the defect of A_n = A / 4, max|A_n| in [1/2, 1)
ENTRY_CHECKS = {
    "sym_eig": (lambda: sym_eig(_asymmetric(3)), "sym_eig input symmetry defect 1.000e+00"),
    "RayleighCost": (lambda: RayleighCost(_asymmetric(3)), "Rayleigh matrix symmetry defect 2.500e-01"),
    "HamiltonianRayleighCost.from_blocks-S": (
        lambda: HamiltonianRayleighCost.from_blocks(_asymmetric(3), np.zeros((3, 3))),
        "S block symmetry defect 1.000e+00"),
    "HamiltonianRayleighCost.from_blocks-T": (
        lambda: HamiltonianRayleighCost.from_blocks(np.eye(3), _asymmetric(3)),
        "T block symmetry defect 1.000e+00"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_CHECKS))
def test_public_entries_keep_their_checks(entry):
    call, what = ENTRY_CHECKS[entry]
    with pytest.raises(NotSymmetric) as info:
        call()
    assert str(info.value) == f"{what} exceeds 1.0e-12 relative"


@pytest.mark.parametrize("c", [1.0, 1e-13, 2.0**-600])
def test_cost_checks_are_relative_to_the_entries(c):
    # the costs check A_n = A 2^-e: at 1e-13 the check's floor of 1 made it
    # absolute, and RayleighCost accepted a random non-symmetric X and symmetrized it
    x = np.random.default_rng(9).standard_normal((4, 4))
    with pytest.raises(NotSymmetric, match="Rayleigh matrix symmetry defect"):
        RayleighCost(c * x)
    with pytest.raises(NotSymmetric, match="symmetric Hamiltonian JHJ - H defect"):
        HamiltonianRayleighCost(c * (x + x.T))


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
