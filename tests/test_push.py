"""Property tests of the chart push: the frame rows stay orthogonal (and
symplectic) with no correction step, the pushed subspace is the chart's,
and the push commutes with the symmetries of the frame coordinates."""

import numpy as np
import pytest
import scipy.linalg

from projnewton.costs import HamiltonianRayleighCost, RayleighCost
from projnewton.errors import NotSymmetric
from projnewton.grassmann import CHART_NAMES, OrthoFrame, push_frame
from projnewton.lagrange import random_lag_projector
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton

from oracles import cayley_transform

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _defect(frame):
    return np.abs(frame.theta @ frame.theta.T - np.eye(frame.dim)).max()


def _projector(theta, m):
    return theta[:m].T @ theta[:m]


@st.composite
def frames(draw, min_dim=2, max_dim=8):
    """A random orthogonal frame of a random rank."""
    n = draw(st.integers(min_dim, max_dim))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return OrthoFrame(_orthogonal(rng, n).T, m), rng


def _step(rng, m, k, length, shape="gaussian"):
    """A step of Frobenius norm ``length``: Gaussian, rank one, or with all
    entries equal (rank one and exactly structured)."""
    if shape == "gaussian":
        z = rng.standard_normal((m, k))
    elif shape == "rank-one":
        z = np.outer(rng.standard_normal(m), rng.standard_normal(k))
    else:
        z = np.ones((m, k))
    return z * (length / np.linalg.norm(z))


@pytest.mark.parametrize("chart", CHART_NAMES)
@hypothesis.given(data=st.data())
def test_orthogonal_over_200_steps(chart, data):
    frame, rng = data.draw(frames())
    m, k = frame.rank, frame.dim - frame.rank
    for _ in range(200):
        frame = push_frame(frame, _step(rng, m, k, 0.3), chart)
    assert _defect(frame) <= 2e-14


@pytest.mark.parametrize("length", [1e4, 1e9])
@pytest.mark.parametrize("chart", CHART_NAMES)
@hypothesis.given(data=st.data())
def test_long_steps_stay_orthogonal(chart, length, data):
    # rank-deficient long steps included: their Gram Z Z^T has eigenvalues
    # that round-off makes wrong by eps ||Z||^2, which the SVD of Z avoids
    frame, rng = data.draw(frames())
    shape = data.draw(st.sampled_from(["gaussian", "rank-one", "constant"]))
    z = _step(rng, frame.rank, frame.dim - frame.rank, length, shape)
    assert _defect(push_frame(frame, z, chart)) <= 1e-14


def _dense_oracle(frame, z, chart):
    """The pushed projector from dense matrices in hat space: expm of the
    hat matrix for exp, the span of Theta^T [I; Z^T] for qr, the Cayley
    transform of the hat commutator for cayley."""
    n, m = frame.dim, frame.rank
    if chart == "qr":
        basis = frame.theta.T @ np.vstack([np.eye(m), z.T])
        return basis @ np.linalg.solve(basis.T @ basis, basis.T)
    hat = np.zeros((n, n))
    hat[:m, m:] = z
    hat[m:, :m] = -z.T
    rot = scipy.linalg.expm(hat) if chart == "exp" else cayley_transform(hat)
    return _projector(rot @ frame.theta, m)


@pytest.mark.parametrize("chart", CHART_NAMES)
@hypothesis.given(data=st.data())
def test_subspace_matches_dense_oracle(chart, data):
    frame, rng = data.draw(frames())
    length = data.draw(st.sampled_from([1e-3, 0.3, 3.0]))
    z = _step(rng, frame.rank, frame.dim - frame.rank, length)
    pushed = push_frame(frame, z, chart)
    assert np.abs(_projector(pushed.theta, frame.rank) - _dense_oracle(frame, z, chart)).max() <= 1e-13


@pytest.mark.parametrize("chart", CHART_NAMES)
@hypothesis.given(data=st.data())
def test_symplectic_frames_stay_symplectic(chart, data):
    n = data.draw(st.integers(1, 4))
    frame = random_lag_projector(n, data.draw(st.integers(0, 2**32 - 1)))[1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(100):
        z = _step(rng, n, n, 0.3)
        frame = push_frame(frame, z + z.T, chart)
    assert frame.symplecticity_residual() <= 2e-14
    assert _defect(frame) <= 2e-14


@pytest.mark.parametrize("chart", CHART_NAMES)
def test_nonsymmetric_step_on_a_symplectic_frame_is_rejected(chart):
    # this step left the Lagrange Grassmannian (symplecticity residual 0.84)
    # while the pushed frame stayed typed SymplecticFrame
    frame = random_lag_projector(2, 0)[1]
    with pytest.raises(NotSymmetric, match="symmetry defect 1.000e\\+00"):
        push_frame(frame, [[0.0, 1.0], [0.0, 0.0]], chart)
    # round-off asymmetry still pushes, relative to max(1, max |Z|) as the
    # entry checks measure it: a short step's is not relative to the step
    # (the last: norm 1e-6, asymmetric by 1e-17, as a solve in units of ||A||
    # may leave a step near convergence)
    for z in ([[1.0, 1e-3], [1e-3 + 1e-15, 2.0]], [[1e-9, 1e-7], [1e-7 + 1e-17, 0.0]],
              [[8e-7, 4e-7], [4e-7 + 1e-17, -2e-7]]):
        assert push_frame(frame, z, chart).symplecticity_residual() <= 1e-10


def test_trace_cost_runs_on_symplectic_frames():
    # the plain trace cost of a symmetric Hamiltonian H on a symplectic
    # frame runs Algorithm 2, the same Lyapunov solve as HamiltonianRayleighCost:
    # its steps are symmetric, and the frame stays symplectic to the end
    h = HamiltonianRayleighCost.from_blocks(np.diag([3.0, 2.0, 1.0]), np.diag([0.5, 0.1, 0.2]))
    trace = run_newton(RayleighCost(h.h), random_lag_projector(3, 1)[1], NewtonConfig(),
                       method="rayleigh-lg")
    assert trace.status == Status.CONVERGED
    assert max(trace.extras["symplecticity_residuals"]) <= 1e-14


@pytest.mark.parametrize("chart", CHART_NAMES)
@hypothesis.given(data=st.data())
def test_push_is_equivariant(chart, data):
    # rotating the two row blocks by (Q1, Q2) in O(m) x O(k) keeps the
    # subspace; the same step in the rotated coordinates is Q1 Z Q2^T
    frame, rng = data.draw(frames())
    m, k = frame.rank, frame.dim - frame.rank
    z = _step(rng, m, k, data.draw(st.sampled_from([0.3, 3.0])))
    rot = scipy.linalg.block_diag(_orthogonal(rng, m), _orthogonal(rng, k))
    turned = push_frame(OrthoFrame(rot @ frame.theta, m), rot[:m, :m] @ z @ rot[m:, m:].T, chart)
    assert np.abs(turned.theta - rot @ push_frame(frame, z, chart).theta).max() <= 2e-14


@pytest.mark.parametrize("chart", CHART_NAMES)
@hypothesis.given(data=st.data())
def test_block_swap_gives_the_same_push(chart, data):
    # the frame (Theta_2, Theta_1) of the complement, pushed by -Z^T, is the
    # pushed frame with its blocks swapped: rank m > k and m < k agree.  The
    # SVDs of Z and Z^T round sigma differently, and exp turns by sigma itself
    frame, rng = data.draw(frames())
    m, k = frame.rank, frame.dim - frame.rank
    length = data.draw(st.sampled_from([0.3, 3.0, 1e4]))
    z = _step(rng, m, k, length)
    swap = np.roll(np.eye(m + k), k, axis=0)
    swapped = push_frame(OrthoFrame(swap @ frame.theta, k), -z.T, chart)
    diff = np.abs(swapped.theta - swap @ push_frame(frame, z, chart).theta).max()
    assert diff <= 1e-14 * max(1.0, length)


@pytest.mark.parametrize("nu", CHART_NAMES)
def test_pushes_call_no_qr_cholesky_or_inverse(monkeypatch, nu):
    import projnewton.newton

    def forbidden(*args, **kwargs):
        raise AssertionError("QR, Cholesky or an inverse inside a push")

    real_push = projnewton.newton.push_frame
    pushed = []

    def guarded_push(frame, z, chart):
        with monkeypatch.context() as patch:
            for name in ("qr", "cholesky", "inv", "solve"):
                patch.setattr(np.linalg, name, forbidden)
            pushed.append(real_push(frame, z, chart))
        return pushed[-1]

    rng = np.random.default_rng(4)
    q = _orthogonal(rng, 9)
    a = (q * np.arange(18.0, 9.0, -1.0)) @ q.T
    start = perturb_frame(OrthoFrame(q.T, 3), 0.3, 5)
    monkeypatch.setattr(projnewton.newton, "push_frame", guarded_push)
    trace = run_newton(RayleighCost(0.5 * (a + a.T)), start, NewtonConfig(nu=nu),
                       method="rayleigh-gr")
    assert trace.status == Status.CONVERGED
    assert len(pushed) == len(trace.records) - 1
    # the last iterate is the pushed frame itself: nothing re-orthogonalizes it
    assert trace.extras["final_frame"] is pushed[-1]
