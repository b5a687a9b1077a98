"""The run ledger: terminal status, iteration count and certificate of
seeded runs of every method under every push-forward chart.

The pinned values were recorded before the chart pushes became row
updates from the m x m Gram of Z; a push that changes a status or an
iteration count on these problems changes what a run reports.
"""

import numpy as np
import pytest

from projnewton.costs import HamiltonianRayleighCost, InvariantSubspaceCost, RayleighCost
from projnewton.grassmann import OrthoFrame, Projector
from projnewton.lagrange import symplectic_frame_from_basis
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _problem(method, seed):
    """(cost, frame of the planted answer) for one seeded problem."""
    rng = np.random.default_rng([2007, seed])
    if method == "rayleigh-gr":
        n, m = 9, 3
        q = _orthogonal(rng, n)
        a = (q * np.arange(2.0 * n, n, -1.0)) @ q.T
        return RayleighCost(0.5 * (a + a.T)), OrthoFrame(q.T, m)
    if method == "rayleigh-lg":
        n = 4
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, r = np.linalg.qr(z)
        u = u * (np.diag(r) / np.abs(np.diag(r)))
        frame = np.block([[u.real, -u.imag], [u.imag, u.real]])
        lam = np.arange(n, 0, -1.0) + 1.0
        h = (frame * np.concatenate([lam, -lam])) @ frame.T
        return HamiltonianRayleighCost(0.5 * (h + h.T)), symplectic_frame_from_basis(frame[:, :n])
    n, m = 8, 3
    t = 0.3 * np.triu(rng.standard_normal((n, n)), 1)
    t[m:, :m] = 0.0
    t += np.diag(np.concatenate([np.linspace(3.0, 2.0, m), np.linspace(1.0, -1.0, n - m)]))
    q = _orthogonal(rng, n)
    return InvariantSubspaceCost(q @ t @ q.T), OrthoFrame(q.T, m)


def _run(method, nu, seed, eps):
    cost, planted = _problem(method, seed)
    start = perturb_frame(planted, eps, 100 + seed)
    reference = Projector(planted.basis() @ planted.basis().T, planted.rank)
    trace = run_newton(cost, start, NewtonConfig(nu=nu), reference=reference, method=method)
    return trace.status, len(trace.records) - 1, trace.extras.get("certified_by")


METHODS = ("rayleigh-gr", "rayleigh-lg", "invariant-direct")
CHARTS = ("exp", "qr", "cayley")


def _cases(method):
    """(seed, start distance) pairs.  From 0.6, invariant-direct runs wander
    for tens of iterations and a 1e-13 change of the start moves their
    count, so that distance pins nothing there.  "invariant-recursive" runs
    the same direct solve, so it has no rows of its own."""
    far = () if method == "invariant-direct" else (0.6,)
    return [(seed, eps) for seed in range(2) for eps in (0.05, 0.3) + far]


C, B, K = Status.CONVERGED, "bound", "cholesky"
# (method, nu) -> [(status, iterations, certified_by) for (seed, eps) in _cases(method)];
# the certificates are those the runs had when Algorithm 3 assembled its
# operator once more to certify: certifying from the last step's changes none
LEDGER = {
    ("rayleigh-gr", "exp"): [(C, 2, B), (C, 3, B), (C, 3, B), (C, 2, B), (C, 3, B), (C, 4, B)],
    ("rayleigh-gr", "qr"): [(C, 2, B), (C, 3, B), (C, 3, B), (C, 2, B), (C, 3, B), (C, 3, B)],
    ("rayleigh-gr", "cayley"): [(C, 2, B), (C, 3, B), (C, 3, B), (C, 2, B), (C, 3, B), (C, 4, B)],
    ("rayleigh-lg", "exp"): [(C, 2, B), (C, 3, B), (C, 3, B), (C, 2, B), (C, 3, B), (C, 3, B)],
    ("rayleigh-lg", "qr"): [(C, 2, B), (C, 3, B), (C, 3, B), (C, 2, B), (C, 3, B), (C, 3, B)],
    ("rayleigh-lg", "cayley"): [(C, 2, B), (C, 3, B), (C, 3, B), (C, 2, B), (C, 3, B), (C, 3, B)],
    ("invariant-direct", "exp"): [(C, 3, K), (C, 4, K), (C, 3, K), (C, 4, K)],
    ("invariant-direct", "qr"): [(C, 3, K), (C, 4, K), (C, 3, K), (C, 4, K)],
    ("invariant-direct", "cayley"): [(C, 3, K), (C, 4, K), (C, 3, K), (C, 4, K)],
}


@pytest.mark.parametrize("nu", CHARTS)
@pytest.mark.parametrize("method", METHODS)
def test_ledger_is_pinned(method, nu):
    got = [_run(method, nu, seed, eps) for seed, eps in _cases(method)]
    assert got == LEDGER[method, nu]
