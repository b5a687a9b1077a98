"""Certifying ``Converged`` at the last iterate without a blind re-solve.

``run_newton`` certifies a critical point by one call, ``cost.certify``,
handing it the iterate's state and the one the last step's solve handed on.
``RayleighCost.separation_bound`` moves that solve's separation to the next
iterate, by the change of the blocks of B in between, and the trace cost
certifies with it when the bound clears the solver's floor; otherwise by one
more Newton solve.  The invariant-subspace cost certifies by one Cholesky
factorization of the four-term operator L' the last step's solve read, less
a margin and a bound on the change of L since (Weyl), else of its own L less
the margin (``solvers.certify_invariant_newton``), with the dense inverse
behind it.  The property tests check that no bound exceeds the separation a
solve measures at the same iterate, and that a Cholesky certificate, from
either operator, holds L's spectrum above the floor; the fallback tests
check that the solve still runs, and still fails, where nothing else
certifies."""

import numpy as np
import pytest

import projnewton.solvers
from projnewton.config import TOL
from projnewton.costs import HamiltonianRayleighCost, InvariantSubspaceCost, RayleighCost
from projnewton.decomp import frobenius_norm, symmetrize
from projnewton.errors import SingularOperator, SpectralOverlap
from projnewton.grassmann import CHART_NAMES, OrthoFrame, push_frame
from projnewton.lagrange import SymplecticFrame, hamiltonian_part
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton
from projnewton.solvers import (
    _blocks,
    _checked_inverse,
    _operator_change,
    _shifted_cholesky,
    certify_invariant_newton,
    four_term_floor,
    invariant_newton_operator,
    invariant_newton_rhs,
    separation_floor,
    solve_invariant_newton,
    solve_sylvester,
)

from oracles import four_term_operator_reference, sympl_form

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# rayleigh-lg-general: the trace cost of a symmetric A that is not
# Hamiltonian, on the Lagrange Grassmannian (Algorithm 2 in (B11 - B22) / 2)
METHODS = ("rayleigh-gr", "rayleigh-lg", "rayleigh-lg-general", "invariant-direct")
TRACE_METHODS = METHODS[:3]


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _orthosymplectic(rng, n):
    """[[X, -Y], [Y, X]] from a random unitary X + iY (complex QR)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def _planted_triangular(rng, n, m, scale):
    """Q and T for A = Q T Q^T: T upper triangular, with m eigenvalues in
    [2, 3] and n - m in [-1, 1] on its diagonal, times ``scale``, and 0.3
    ``scale`` N(0, 1) above it.  The leading m rows of Q^T span an
    A-invariant subspace."""
    q = _orthogonal(rng, n)
    spectrum = scale * np.concatenate([rng.uniform(2.0, 3.0, m), rng.uniform(-1.0, 1.0, n - m)])
    return q, 0.3 * scale * np.triu(rng.standard_normal((n, n)), 1) + np.diag(spectrum)


def _basin_measure(t, m, distance):
    """distance ||T12||_2 ||T||_2 / gap^2, gap the eigenvalue gap between the
    leading m diagonal entries of T and the rest.  Newton's iterates contract
    as ||B21|| ||B12|| / sep^2 (Stewart 1973), and a start ``distance`` away
    has ||B21|| up to about distance ||T||, ||B12|| about ||T12||."""
    diag = np.diag(t)
    gap = diag[:m].min() - diag[m:].max()
    return distance * np.linalg.norm(t[:m, m:], 2) * np.linalg.norm(t, 2) / gap**2


# well inside Newton's basin; the start of
# test_start_outside_the_basin_certifies_a_point_that_is_not_invariant
# measures 0.24 and converges to a critical point that is not the planted one
BASIN = 0.1


@st.composite
def problems(draw, method):
    """(cost, start) for a well-separated problem of the method, its
    spectrum scaled by 1e-3 to 1e3, started 0.01 to 0.3 from its solution,
    and for invariant-direct inside the basin (``_basin_measure`` at most
    ``BASIN``).  rayleigh-lg-general adds to H a symmetric K with J K J = -K,
    as large: tr(K P) = tr(K) / 2 on every Lagrangian P, so the solution stays."""
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    distance = draw(st.floats(0.01, 0.3))
    rng = np.random.default_rng(seed)
    if method.startswith("rayleigh-lg"):
        n = draw(st.integers(2, 5))
        u = _orthosymplectic(rng, n)
        lam = scale * np.sort(rng.uniform(1.0, 3.0, n))[::-1]
        h = (u * np.concatenate([lam, -lam])) @ u.T
        cost, planted = HamiltonianRayleighCost(0.5 * (h + h.T)), SymplecticFrame(u.T)
        if method == "rayleigh-lg-general":
            x, j = scale * rng.standard_normal((2 * n, 2 * n)), sympl_form(n)
            cost = RayleighCost(cost.h + 0.5 * (x + x.T - j @ (x + x.T) @ j))
    else:
        n = draw(st.integers(4, 10))
        m = draw(st.integers(1, n - 1))
        q, t = _planted_triangular(rng, n, m, scale)
        if method == "rayleigh-gr":
            a = (q * np.diag(t)) @ q.T
            cost = RayleighCost(0.5 * (a + a.T))
        else:
            hypothesis.assume(_basin_measure(t, m, distance) <= BASIN)
            cost = InvariantSubspaceCost(q @ t @ q.T)
        planted = OrthoFrame(q.T, m)
    return cost, perturb_frame(planted, distance, seed)


def _trace_problem(method, seed):
    """(trace cost, start 0.1 from its solution) of a fixed well-separated problem."""
    rng = np.random.default_rng(seed)
    if method == "rayleigh-gr":
        q = _orthogonal(rng, 7)
        a = (q * np.arange(7.0, 0.0, -1.0)) @ q.T
        return RayleighCost(0.5 * (a + a.T)), perturb_frame(OrthoFrame(q.T, 3), 0.1, seed)
    u = _orthosymplectic(rng, 3)
    lam = np.array([3.0, 2.0, 1.0])
    h = (u * np.concatenate([lam, -lam])) @ u.T
    cost = HamiltonianRayleighCost(0.5 * (h + h.T))
    if method == "rayleigh-lg-general":
        x, j = rng.standard_normal((6, 6)), sympl_form(3)
        cost = RayleighCost(cost.h + 0.5 * (x + x.T - j @ (x + x.T) @ j))
    return cost, perturb_frame(SymplecticFrame(u.T), 0.1, seed)


def _certify(cost, frame, state, last=None):
    """``cost.certify``, "singular" for ``SingularOperator``."""
    try:
        return cost.certify(frame, state, last)
    except SingularOperator:
        return "singular"


def _operator(b, m):
    return invariant_newton_operator(b[:m, :m], b[:m, m:], b[m:, :m], b[m:, m:])


def _checked_certificate(b, m, scale):
    """``certify_invariant_newton`` at B, held to the spectrum of its operator L:
    "cholesky" only with lambda_min above sqrt(d) ``four_term_floor``, of L (the
    lower triangle, as eigvalsh reads it) and of sym(L), and with an inverse
    that the singularity test accepts; any other outcome only with lambda_min(L)
    below twice the shift tau (its docstring's formula, without the underflow
    term), and "solve" exactly where that test accepts L.  Returns the outcome,
    "singular" for ``SingularOperator``."""
    op = _operator(b, m)
    d = op.shape[0]
    floor = np.sqrt(d) * four_term_floor(m, d // m, scale)
    nu = (d + 1) * np.finfo(float).eps / 2
    g = nu / (1.0 - nu)
    tau = floor + np.sqrt(d) * TOL.separation_roundoff * 3.0 * d * scale
    tau += g / (1.0 - g) * np.abs(np.diag(op)).sum()
    data_scale = max(np.linalg.norm(x, 1) for x in (b[:m, :m], b[:m, m:], b[m:, :m], b[m:, m:])) ** 2
    try:
        _checked_inverse(op, max(np.linalg.norm(op, 1), data_scale))
        accepted = True
    except SingularOperator:
        accepted = False
    try:
        outcome = certify_invariant_newton(b, m, scale)
    except SingularOperator:
        outcome = "singular"
    lam = np.linalg.eigvalsh(op).min()
    if outcome == "cholesky":
        assert lam > floor, f"lambda_min {lam:.17e} <= sqrt(d) floor {floor:.17e}"
        assert np.linalg.eigvalsh(0.5 * (op + op.T)).min() > floor
        assert accepted
    else:
        assert lam <= 2.0 * tau, f"lambda_min {lam:.3e} above twice the shift {tau:.3e}"
        assert accepted == (outcome == "solve")
    return outcome


@pytest.mark.parametrize("nu", CHART_NAMES)
@pytest.mark.parametrize("method", TRACE_METHODS)
@hypothesis.given(data=st.data())
def test_bound_never_exceeds_the_measured_separation(method, nu, data):
    # the Newton iteration by hand, with a solve at every iterate: the
    # bound from the solve before is held to the separation this one measures
    cost, frame = data.draw(problems(method))
    grad_tol = NewtonConfig().grad_tol * cost.scale
    last, bounds = None, 0
    for _ in range(10):
        _, grad, state = cost.frame_terms(frame)
        z, solved = cost.newton_solve(frame, state)
        separation = solved[1]
        if last is not None:
            bound, floor = cost.separation_bound(frame, *state, *last)
            assert bound <= separation, f"bound {bound:.17e} > separation {separation:.17e}"
            assert floor > 0.0
            bounds += 1
        if np.sqrt(2.0) * np.linalg.norm(grad) <= grad_tol:
            break
        last = solved
        frame = push_frame(frame, z, nu)
    else:
        pytest.fail("no critical point within 10 steps")
    # at the critical point the bound certifies, as run_newton finds
    assert bounds >= 1 and bound > floor


@pytest.mark.parametrize("method", TRACE_METHODS)
def test_trace_cost_certifies_from_the_last_solve(monkeypatch, method):
    # with the last step's state (B, separation) the trace cost certifies by
    # its bound, and solves nothing; without it, or where the bound falls to
    # its floor, by one more Newton solve
    cost, frame = _trace_problem(method, 1)
    grad_tol = NewtonConfig().grad_tol * cost.scale
    last = None
    for _ in range(10):
        _, grad, state = cost.frame_terms(frame)
        if np.sqrt(2.0) * np.linalg.norm(grad) <= grad_tol:
            break
        z, last = cost.newton_solve(frame, state)
        frame = push_frame(frame, z, "qr")
    else:
        pytest.fail("no critical point within 10 steps")
    solves = []
    newton_solve = RayleighCost.newton_solve
    monkeypatch.setattr(RayleighCost, "newton_solve",
                        lambda self, *args: solves.append(1) or newton_solve(self, *args))
    assert last is not None and cost.certify(frame, state, last) == "bound" and solves == []
    assert cost.certify(frame, state) == "solve" and len(solves) == 1
    assert cost.certify(frame, state, (last[0], 0.0)) == "solve" and len(solves) == 2


def _counted_assemblies(monkeypatch):
    """A list that grows by one at each assembly of a four-term operator."""
    built, assemble = [], projnewton.solvers.invariant_newton_operator
    monkeypatch.setattr(projnewton.solvers, "invariant_newton_operator",
                        lambda *blocks: built.append(1) or assemble(*blocks))
    return built


def test_invariant_cost_certifies_from_the_last_operator(monkeypatch):
    # given the last step's state (B', L'), the certificate factors L' and
    # assembles nothing, and leaves L' as it was; given none, it assembles L
    # of B, once.  At the solution the step is 0: L' is L, its change bound 0
    rng = np.random.default_rng(6)
    q, t = _planted_triangular(rng, 6, 2, 1.0)
    cost = InvariantSubspaceCost(q @ t @ q.T)
    frame = OrthoFrame(q.T, 2)
    state = cost.frame_terms(frame)[2]
    last = cost.newton_solve(frame, state)[1]
    kept = last[1].copy()
    built = _counted_assemblies(monkeypatch)
    assert cost.certify(frame, state, last) == "cholesky" and built == []
    assert last[1].tobytes() == kept.tobytes()
    assert cost.certify(frame, state) == "cholesky" and len(built) == 1


def _four_term_case(gen, m, k, kind):
    """B of blocks m and k at a random scale: "separated", diag(10 + i, -10 - j)
    plus 0.1 N(0, 1), whose operator is positive definite, or "random", N(0, 1)."""
    n = m + k
    if kind == "separated":
        b = np.diag(np.r_[10.0 + np.arange(m), -10.0 - np.arange(k)]) + 0.1 * gen.standard_normal((n, n))
    else:
        b = gen.standard_normal((n, n))
    return b * 10.0 ** gen.uniform(-3.0, 3.0)


def _assert_reference_bits(b, m, step):
    """The operator of B is F-contiguous and byte-equal to the four-product
    reference; the step's Z and the certificate of B, without and with the last
    state (B - ``step``, its operator), are those the reference operator gives."""
    a11, a12, a21, a22 = _blocks(b, m)
    op = invariant_newton_operator(a11, a12, a21, a22)
    assert op.flags.f_contiguous
    assert np.ascontiguousarray(op).tobytes() == four_term_operator_reference(a11, a12, a21, a22).tobytes()
    rhs, scale, before = invariant_newton_rhs(a11, a21, a22), np.vdot(b, b), b - step

    def outcomes():
        z, _ = solve_invariant_newton(b, rhs)
        last = (before, projnewton.solvers.invariant_newton_operator(*_blocks(before, m)))
        verdicts = []
        for given in (None, last):
            try:
                verdicts.append(certify_invariant_newton(b, m, scale, given))
            except SingularOperator:
                verdicts.append("singular")
        return z.tobytes(), verdicts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projnewton.solvers, "invariant_newton_operator", four_term_operator_reference)
        expected = outcomes()
    assert outcomes() == expected
    return expected[1]


@pytest.mark.parametrize("kind", ["separated", "random"])
@pytest.mark.parametrize("m,k", [(1, 1), (1, 5), (5, 1), (2, 3), (4, 2), (8, 16)])
def test_operator_keeps_the_bits_of_the_four_product_assembly(m, k, kind):
    # each product is multiplied once and subtracted with its transpose, and L
    # is written in column order: the operator, the step and the certificate
    # keep the bits of the assembly that multiplied all four products
    gen = np.random.default_rng([m, k, len(kind)])
    b = _four_term_case(gen, m, k, kind)
    verdicts = _assert_reference_bits(b, m, 1e-9 * np.abs(b).max() * gen.standard_normal(b.shape))
    assert kind == "random" or verdicts == ["cholesky", "cholesky"]


@hypothesis.given(data=st.data())
def test_operator_keeps_the_bits_of_the_four_product_assembly_drawn(data):
    m, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b = _four_term_case(gen, m, k, data.draw(st.sampled_from(["separated", "random"])))
    step = 10.0 ** data.draw(st.integers(-12, 0)) * np.abs(b).max() * gen.standard_normal(b.shape)
    _assert_reference_bits(b, m, step)


@pytest.mark.parametrize("slack", [0.0, 1.0])
@pytest.mark.parametrize("kind", ["separated", "random"])
@pytest.mark.parametrize("m,k", [(2, 3), (8, 16)])
def test_shifted_cholesky_reads_either_layout(m, k, kind, slack):
    # the shift is written through op.flat, which walks either layout in row
    # order: a C- and an F-ordered copy of one operator get one verdict and
    # come back as they were, byte for byte
    gen = np.random.default_rng([m, k, len(kind)])
    b = _four_term_case(gen, m, k, kind)
    op = _operator(b, m)
    copies = np.ascontiguousarray(op), np.asfortranarray(op)
    assert copies[0].flags.c_contiguous and copies[1].flags.f_contiguous
    scale = np.vdot(b, b)
    verdicts = [_shifted_cholesky(x, m, scale, slack * scale) for x in copies]
    assert verdicts == [kind == "separated" and slack == 0.0] * 2
    assert copies[0].tobytes() == copies[1].tobytes() == op.tobytes()


def _saddle():
    """(cost, final frame) of the run that ends Converged at a saddle, from
    test_start_outside_the_basin_certifies_a_point_that_is_not_invariant."""
    rng = np.random.default_rng(2274029156)
    q, t = _planted_triangular(rng, 6, 1, 1.0)
    cost = InvariantSubspaceCost(q @ t @ q.T)
    start = perturb_frame(OrthoFrame(q.T, 1), 0.3, 2274029156)
    return cost, run_newton(cost, start, NewtonConfig()).extras["final_frame"]


@pytest.mark.parametrize("point", ["minimizer", "saddle"])
@pytest.mark.parametrize("seed", range(3))
def test_a_distant_last_state_falls_back_to_the_iterates_operator(monkeypatch, point, seed):
    # a last state from a frame far from this one: the change bound swamps
    # L', its Cholesky fails, and the certificate assembles L of B once and
    # says what it says without a last state
    if point == "saddle":
        cost, frame = _saddle()
    else:
        q, t = _planted_triangular(np.random.default_rng(seed), 6, 1, 1.0)
        cost, frame = InvariantSubspaceCost(q @ t @ q.T), OrthoFrame(q.T, 1)
    far = OrthoFrame(_orthogonal(np.random.default_rng(100 + seed), 6), 1)
    last = cost.newton_solve(far, cost.frame_terms(far)[2])[1]
    state = cost.frame_terms(frame)[2]
    expected = _certify(cost, frame, state)
    assert expected == ("cholesky" if point == "minimizer" else "solve")
    built = _counted_assemblies(monkeypatch)
    assert _certify(cost, frame, state, last) == expected and len(built) == 1
    assert not _checked_last_step(state[0], last, 1, cost.scale)


@pytest.mark.parametrize("nu", CHART_NAMES)
@hypothesis.given(data=st.data())
def test_the_certificate_holds_along_the_run(nu, data):
    # the Newton iteration by hand, with the certificate at every iterate:
    # wherever it says "cholesky", L's spectrum clears the floor; at the
    # critical point, which is inside the basin, it says "cholesky" as
    # run_newton finds
    cost, frame = data.draw(problems("invariant-direct"))
    grad_tol = NewtonConfig().grad_tol * cost.scale
    for _ in range(10):
        _, grad, state = cost.frame_terms(frame)
        outcome = _checked_certificate(state[0], frame.rank, cost.scale)
        assert _certify(cost, frame, state) == outcome
        if np.sqrt(2.0) * np.linalg.norm(grad) <= grad_tol:
            break
        frame = push_frame(frame, cost.newton_solve(frame, state)[0], nu)
    else:
        pytest.fail("no critical point within 10 steps")
    assert outcome == "cholesky"


def _checked_last_step(b, last, m, scale):
    """The Cholesky of ``certify_invariant_newton`` from the last step's state
    ``last`` = (B', L'), held to the spectrum of B's own operator L: where it
    succeeds, lambda_min of L (the lower triangle, as eigvalsh reads it) and of
    sym(L) clear sqrt(d) ``four_term_floor``.  The change bound s covers
    ||L - L'||_2 up to the two operators' round-off, 8 d u ||A||_F^2 3 sqrt(d)
    each, and is at most 16 ||B - B'||_F ||A||_F.  Returns whether it succeeded."""
    last_b, last_op = last
    op = _operator(b, m)
    d = op.shape[0]
    floor = np.sqrt(d) * four_term_floor(m, d // m, scale)
    slack = _operator_change(b, last_b, m)
    roundoff = 2.0 * 8 * d * (np.finfo(float).eps / 2) * 3.0 * np.sqrt(d) * scale
    assert np.linalg.norm(op - last_op, 2) <= slack + roundoff
    assert slack <= 8.0 * np.linalg.norm(b - last_b) * (np.linalg.norm(b) + np.linalg.norm(last_b)) * (1 + 1e-10)
    kept = last_op.copy()
    certified = _shifted_cholesky(last_op, m, scale, slack)
    assert last_op.tobytes() == kept.tobytes()
    if certified:
        lam = np.linalg.eigvalsh(op).min()
        assert lam > floor, f"lambda_min {lam:.17e} <= sqrt(d) floor {floor:.17e}"
        assert np.linalg.eigvalsh(0.5 * (op + op.T)).min() > floor
    return certified


@pytest.mark.parametrize("nu", CHART_NAMES)
@hypothesis.given(data=st.data())
def test_the_last_step_certificate_holds_along_the_run(nu, data):
    # the Newton iteration by hand, certifying every iterate from the last
    # step's state: wherever the last step's operator certifies, L's own
    # spectrum clears the floor, and where it does not, the certificate is
    # the one without a last state.  The critical point, inside the basin,
    # is certified from the last step, as on the benchmark's grids
    cost, frame = data.draw(problems("invariant-direct"))
    grad_tol = NewtonConfig().grad_tol * cost.scale
    last = None
    for _ in range(10):
        _, grad, state = cost.frame_terms(frame)
        if last is not None:
            from_last = _checked_last_step(state[0], last, frame.rank, cost.scale)
            expected = "cholesky" if from_last else _checked_certificate(state[0], frame.rank, cost.scale)
            assert _certify(cost, frame, state, last) == expected
        if np.sqrt(2.0) * np.linalg.norm(grad) <= grad_tol:
            break
        z, last = cost.newton_solve(frame, state)
        frame = push_frame(frame, z, nu)
    else:
        pytest.fail("no critical point within 10 steps")
    assert last is not None and from_last


def test_a_converging_run_assembles_once_per_step_in_bounded_memory(monkeypatch):
    # (n, m) = (24, 8), d = 128, where an operator's 128 KiB is glibc's mmap
    # threshold: each step assembles L once, the certificate factors the
    # last step's L and assembles none, and the run drops that L before the
    # next step assembles its own.  An assembly peaks at 2.52 operators
    # (test_solvers), and the loop's frames add about 0.04 an iterate: a
    # second operator alive at an assembly would put the peak above 3.5
    import tracemalloc

    q, t = _planted_triangular(np.random.default_rng(24), 24, 8, 1.0)
    cost = InvariantSubspaceCost(q @ t @ q.T)
    start = perturb_frame(OrthoFrame(q.T, 8), 0.05, 24)
    built = _counted_assemblies(monkeypatch)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = run_newton(cost, start, NewtonConfig())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert trace.status == Status.CONVERGED and trace.extras["certified_by"] == "cholesky"
    assert len(trace.records) >= 3 and len(built) == len(trace.records) - 1
    assert peak < 3.0 * 128 * 128 * 8


def test_start_outside_the_basin_certifies_a_point_that_is_not_invariant():
    # 0.3 from this planted subspace (basin measure 0.24) both method names
    # run the one direct solve and end Converged at a nondegenerate critical
    # point of ||(I - P) A P||^2 that is no invariant subspace: the residual
    # ||B21|| is 0.898, 28% of ||A||_F, and B11 = 1.610 is no eigenvalue of A.
    # It is a saddle, L having the eigenvalue -2.08: the Cholesky certificate
    # fails there and the dense inverse certifies it.  Converged certifies a
    # critical point, not an answer
    rng = np.random.default_rng(2274029156)
    q, t = _planted_triangular(rng, 6, 1, 1.0)
    assert _basin_measure(t, 1, 0.3) > 2.0 * BASIN
    a = q @ t @ q.T
    start = perturb_frame(OrthoFrame(q.T, 1), 0.3, 2274029156)
    for method in ("invariant-direct", "invariant-recursive"):
        trace = run_newton(InvariantSubspaceCost(a), start, NewtonConfig(), method=method)
        assert trace.status == Status.CONVERGED
        assert trace.extras["certified_by"] == "solve"
        residual = np.sqrt(trace.records[-1].cost)  # ||B21||, the invariance residual
        assert abs(residual - 0.898) <= 1e-3
        assert 0.28 <= residual / np.linalg.norm(a) <= 0.29
        final = trace.extras["final_frame"].theta
        b = final @ a @ final.T
        assert np.abs(np.linalg.eigvals(a) - b[0, 0]).min() >= 0.5
        spectrum = np.linalg.eigvalsh(_operator(b, 1))
        assert abs(spectrum[0] + 2.08) <= 5e-3 and spectrum[1] > 0.0
        assert _checked_certificate(b, 1, np.sum(a * a)) == "solve"


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("m,k", [(1, 1), (1, 6), (6, 1), (2, 5), (4, 4)])
@pytest.mark.parametrize("kind", ["random", "near-rank-one", "near-diagonal"])
def test_a_cholesky_certificate_is_confirmed_by_the_spectrum(kind, m, k, scale):
    # frames any rotation away from an invariant subspace of A, near-singular
    # L included: the invariant cost's certificate says "cholesky" only where
    # L's spectrum clears sqrt(d) four_term_floor, and fails only within twice
    # its shift of it (_checked_certificate)
    gen = np.random.default_rng([m, k, len(kind), round(np.log10(scale)) + 3])
    n, d = m + k, m * k
    certified = 0
    for _ in range(40):
        if kind == "random":
            t = gen.standard_normal((n, n))
        elif kind == "near-rank-one":
            t = np.outer(gen.standard_normal(n), gen.standard_normal(n)) + 1e-3 * gen.standard_normal((n, n))
        else:
            t = np.diag(gen.standard_normal(n)) + 1e-3 * gen.standard_normal((n, n))
        t[m:, :m] = 0.0
        q = _orthogonal(gen, n)
        cost = InvariantSubspaceCost(scale * q @ t @ q.T)
        turn = 10.0 ** gen.uniform(-12.0, 0.0) * gen.standard_normal((n, n))
        r_q, r = np.linalg.qr(np.eye(n) + turn)
        frame = OrthoFrame((r_q * np.sign(np.diag(r))) @ q.T, m)
        state = cost.frame_terms(frame)[2]
        outcome = _checked_certificate(state[0], m, cost.scale)
        assert _certify(cost, frame, state) == outcome
        certified += outcome == "cholesky"
    # near the subspace it certifies; far from it, for d > 1, not always
    assert 1 <= certified and (certified < 40 or d == 1)


def _gapped_rayleigh(seed=3, n=7, m=2):
    q = _orthogonal(np.random.default_rng(seed), n)
    a = (q * np.arange(2.0 * n, n, -1.0)) @ q.T
    return RayleighCost(0.5 * (a + a.T)), OrthoFrame(q.T, m)


def _degenerate_problem(method):
    """A cost with a degenerate critical point, and a start one Newton step
    from it.  Grassmann (m = 1): A = diag(2, 1, 1), whose line e2 is
    critical and degenerate, as B22 keeps the eigenvalue 1 of e3; the start
    is turned 1.5e-4 from it towards e1.  Lagrange: H = diag(S, -S) with
    S = diag(2, 1, 1), whose Lagrangian span(e1, e2, e6) is critical with
    B11 eigenvalues 2, 1, -1, and 1 + (-1) = 0; the start is pushed along
    Z = 1e-4 (E01 + E10)."""
    if method == "rayleigh-lg":
        e = np.eye(6)
        planted = SymplecticFrame(e[[0, 1, 5, 3, 4, 2]] * [[1], [1], [1], [1], [1], [-1]])
        z = np.zeros((3, 3))
        z[0, 1] = z[1, 0] = 1e-4
        cost = HamiltonianRayleighCost.from_blocks(np.diag([2.0, 1.0, 1.0]), np.zeros((3, 3)))
        return cost, push_frame(planted, z, "exp")
    t = 1.5e-4
    theta = np.array([[np.sin(t), np.cos(t), 0.0], [np.cos(t), -np.sin(t), 0.0], [0, 0, 1]])
    cost_type = RayleighCost if method == "rayleigh-gr" else InvariantSubspaceCost
    return cost_type(np.diag([2.0, 1.0, 1.0])), OrthoFrame(theta, 1)


class _CountingRayleigh(RayleighCost):
    """The trace cost, counting its Newton solves; ``separation`` replaces
    the one each solve measured, when given."""

    def __init__(self, a, separation=None):
        super().__init__(a)
        object.__setattr__(self, "solves", [])
        object.__setattr__(self, "forced", separation)

    def newton_solve(self, frame, state):
        z, (b, separation) = super().newton_solve(frame, state)
        self.solves.append(separation)
        return z, (b, separation if self.forced is None else self.forced)


class TestFallback:
    def test_converged_run_solves_once_per_step(self):
        cost, planted = _gapped_rayleigh()
        counting = _CountingRayleigh(cost.a)
        trace = run_newton(counting, perturb_frame(planted, 0.05, 1), NewtonConfig())
        assert trace.status == Status.CONVERGED
        assert trace.extras["certified_by"] == "bound"
        assert len(counting.solves) == len(trace.records) - 1

    def test_critical_start_solves_once(self):
        cost, planted = _gapped_rayleigh()
        counting = _CountingRayleigh(cost.a)
        trace = run_newton(counting, planted, NewtonConfig())
        assert trace.status == Status.CONVERGED
        assert len(trace.records) == 1
        assert trace.extras["certified_by"] == "solve"
        assert len(counting.solves) == 1

    def test_zero_separation_falls_back_to_the_solve(self):
        cost, planted = _gapped_rayleigh()
        start = perturb_frame(planted, 0.05, 1)
        counting = _CountingRayleigh(cost.a, separation=0.0)
        trace = run_newton(counting, start, NewtonConfig())
        assert trace.status == Status.CONVERGED
        assert trace.extras["certified_by"] == "solve"
        assert len(counting.solves) == len(trace.records)
        # the same run as with the measured separations, bit for bit
        plain = run_newton(cost, start, NewtonConfig())
        assert [r.grad_norm for r in trace.records] == [r.grad_norm for r in plain.records]
        assert np.array_equal(trace.extras["final_frame"].theta,
                              plain.extras["final_frame"].theta)

    @pytest.mark.parametrize("nu", CHART_NAMES)
    @pytest.mark.parametrize("method, status", [
        ("rayleigh-gr", Status.SPECTRAL_OVERLAP),
        ("rayleigh-lg", Status.SPECTRAL_OVERLAP),
        ("invariant-direct", Status.SINGULAR_HESSIAN),
    ])
    def test_degenerate_final_point_fails_through_the_solve(self, method, status, nu):
        # one step, whose solve still measures a gap above the floor, reaches
        # the gradient tolerance at a point whose gap is round-off: the bound
        # from that step must not clear the floor, nor the invariant cost's
        # Cholesky certificate succeed, and the solve fails
        cost, start = _degenerate_problem(method)
        trace = run_newton(cost, start, NewtonConfig(nu=nu), method=method)
        assert trace.status == status
        assert len(trace.records) == 2
        # grad_norm is in A's units, the scale in the cost's
        assert trace.records[-1].grad_norm <= np.ldexp(NewtonConfig().grad_tol * cost.scale, cost.units)
        assert "certified_by" not in trace.extras

    def test_invariant_run_solves_once_per_step_and_factors_once(self, monkeypatch):
        # Algorithm 3: one LU solve per step and one Cholesky factorization at
        # the critical point, which certifies it; no inverse is formed
        q, t = _planted_triangular(np.random.default_rng(8), 7, 3, 1.0)
        start = perturb_frame(OrthoFrame(q.T, 3), 0.05, 8)
        calls = {"solve": 0, "cholesky": 0, "inv": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(np.linalg, name)):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        trace = run_newton(InvariantSubspaceCost(q @ t @ q.T), start, NewtonConfig())
        assert trace.status == Status.CONVERGED
        assert trace.extras["certified_by"] == "cholesky"
        assert calls == {"solve": len(trace.records) - 1, "cholesky": 1, "inv": 0}

    @pytest.mark.parametrize("nu", CHART_NAMES)
    def test_near_singular_minimizer_is_refused_by_the_certificate(self, nu):
        # A = diag(2, 1, 1 + delta) + 0.3 e1 e3^T, m = 1, started 1e-3 and 0.1
        # from e2: B22 keeps an eigenvalue within delta of B11's, so L at the
        # critical point is singular to round-off.  Every run ends
        # SingularHessian.  A step raises only where LAPACK's LU finds its L
        # exactly singular; otherwise the run reaches the gradient tolerance
        # and the certificate refuses the point (its Cholesky fails, and its
        # inverse is refused)
        planted, grad_tol = OrthoFrame(np.eye(3)[[1, 0, 2]], 1), NewtonConfig().grad_tol
        refused = 0
        for delta in (0.0, 1e-16, 1e-14, 1e-12, 1e-11, 1e-10):
            a = np.diag([2.0, 1.0, 1.0 + delta])
            a[0, 2] = 0.3
            cost = InvariantSubspaceCost(a)
            threshold = np.ldexp(grad_tol * cost.scale, cost.units)  # in A's units, as grad_norm
            for eps in (1e-3, 0.1):
                for seed in (0, 1):
                    trace = run_newton(cost, perturb_frame(planted, eps, seed), NewtonConfig(nu=nu))
                    assert trace.status == Status.SINGULAR_HESSIAN
                    assert "certified_by" not in trace.extras
                    assert all(r.grad_norm > threshold for r in trace.records[:-1])
                    frame = trace.extras["final_frame"]
                    _, rhs, (b, _) = cost.frame_terms(frame)
                    if trace.records[-1].grad_norm <= threshold:
                        refused += 1
                        assert _checked_certificate(b, 1, cost.scale) == "singular"
                    else:
                        with pytest.raises(np.linalg.LinAlgError):
                            np.linalg.solve(_operator(b, 1), rhs.reshape(-1))
        assert refused >= 22

    def test_tiny_step_is_recorded(self):
        # with no reachable gradient tolerance the run stops on a step below
        # step_tol, which certifies nothing beyond the solve that made it
        cost, planted = _gapped_rayleigh()
        trace = run_newton(cost, perturb_frame(planted, 0.05, 1), NewtonConfig(grad_tol=1e-300))
        assert trace.status == Status.CONVERGED
        assert trace.records[-2].step_norm <= TOL.step_tol
        assert trace.extras["certified_by"] == "step"


class TestSeparationFloor:
    """The bounds clear the floor the Newton solve would enforce: the trace
    cost's reads ``solvers.separation_floor`` of the blocks its solve sees.  The
    invariant cost has no bound; its certificate holds the operator above
    sqrt(d) ``solvers.four_term_floor``, at least the singularity test of the
    operator the dense inverse would see."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "invariant-direct"])
    def test_bound_floor_is_the_floor_of_the_solves_blocks(self, method, scale):
        rng = np.random.default_rng(round(np.log10(scale)) + 7)
        for n in (3, 4, 6):
            if method == "rayleigh-lg":
                x = scale * rng.standard_normal((2 * n, 2 * n))
                cost = RayleighCost(0.5 * (x + x.T))
                frame, last = (SymplecticFrame(_orthosymplectic(rng, n).T) for _ in range(2))
                m = n
            else:
                m = n // 2
                x = scale * rng.standard_normal((n, n))
                cost = (RayleighCost(0.5 * (x + x.T)) if method == "rayleigh-gr"
                        else InvariantSubspaceCost(x))
                frame, last = (OrthoFrame(_orthogonal(rng, n), m) for _ in range(2))
            (b, *_), (last_b, *_) = cost.frame_terms(frame)[2], cost.frame_terms(last)[2]
            b11, b22 = b[:m, :m], b[m:, m:]
            if method == "invariant-direct":
                assert not hasattr(cost, "separation_bound")
                blocks = b11, b[:m, m:], b[m:, :m], b22
                # the direct solve's own test, max(||L||_1, max ||B_ij||_1^2) TOL.pivot
                solve_floor = max(np.linalg.norm(invariant_newton_operator(*blocks), 1),
                                  max(np.linalg.norm(blk, 1) for blk in blocks) ** 2)
                assert four_term_floor(m, n - m, cost.scale) >= TOL.pivot * solve_floor
                _checked_certificate(b, m, cost.scale)
                continue
            _, floor = cost.separation_bound(frame, b, last_b, 1.0)
            assert floor == separation_floor(b11, b22)
            if method == "rayleigh-lg":
                # the state is B's Hamiltonian part [[M, G], [G, -M]]: the floor is
                # the Lyapunov solve's own, of M = (B11 - B22) / 2 of the symmetric B
                full = symmetrize(frame.theta @ cost.a_n @ frame.theta.T)
                assert floor == separation_floor(0.5 * (full[:m, :m] - full[m:, m:]))

    @pytest.mark.parametrize("data", ["newton", "non-symmetric"])
    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "rayleigh-lg-general"])
    def test_trace_bound_reads_only_the_diagonal_blocks(self, method, data):
        # the bound and floor equal, bit for bit, those of the diagonal blocks
        # of B and of B - B_last as given, symmetric or not, and no entry of
        # the off-diagonal blocks moves them.  frame_terms forms B exactly
        # symmetric, the product symmetrized, and on a symplectic frame its
        # Hamiltonian part
        def diagonal_blocks(cost, frame, b, last_b, separation):
            m = frame.rank
            step = b - last_b
            slack = frobenius_norm(step[:m, :m]) + frobenius_norm(step[m:, m:])
            slack += TOL.separation_roundoff * frame.dim * cost.scale
            return separation - slack, separation_floor(b[:m, :m], b[m:, m:])

        cases = 0
        for seed in range(4):
            cost, frame = _trace_problem(method, seed)
            rng = np.random.default_rng(seed)
            m, last = frame.rank, None
            for _ in range(6):
                _, _, (b,) = cost.frame_terms(frame)
                if data == "non-symmetric":
                    b = b + 1e-3 * rng.standard_normal(b.shape)
                else:
                    product = frame.theta @ cost.a_n @ frame.theta.T
                    assert np.array_equal(b, b.T)
                    if isinstance(frame, SymplecticFrame):
                        assert np.array_equal(b, hamiltonian_part(symmetrize(product)))
                        assert np.array_equal(b[m:, m:], -b[:m, :m])
                    else:
                        assert np.array_equal(b[:m, :m], symmetrize(product[:m, :m]))
                        assert np.array_equal(b[m:, m:], symmetrize(product[m:, m:]))
                z, solved = cost.newton_solve(frame, (b,))
                assert solved[0] is b
                if last is not None:
                    bound = cost.separation_bound(frame, b, *last)
                    assert bound == diagonal_blocks(cost, frame, b, *last)
                    scrambled = b.copy()
                    scrambled[:m, m:] = rng.standard_normal((m, b.shape[0] - m))
                    scrambled[m:, :m] = rng.standard_normal((b.shape[0] - m, m))
                    assert cost.separation_bound(frame, scrambled, *last) == bound
                    cases += 1
                last = solved
                if frame.symmetric_steps and data == "non-symmetric":
                    # the perturbed B's B22 is not -B11, so its Z is not symmetric:
                    # a symplectic frame steps by the symmetric part
                    z = symmetrize(z)
                frame = push_frame(frame, z, "qr")
        assert cases == 20

    @pytest.mark.parametrize("power", [-20, -1, 1, 20])
    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "invariant-direct"])
    def test_certification_does_not_depend_on_units(self, method, power):
        # A times c = 2^power leaves A_n, which the costs read, as it was, so
        # the measured separation, the bound and its floor (trace cost), and
        # the four-term operator and the certificate's shift (invariant cost)
        # keep their bits: whether a point certifies, and how, does not
        # depend on units, nor do the bits of the invariant step
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 6))
        c = 2.0 ** power
        if method == "invariant-direct":
            q, t = _planted_triangular(rng, 6, 3, 1.0)
            near = perturb_frame(OrthoFrame(q.T, 3), 1e-6, 5)
            far = OrthoFrame(_orthogonal(rng, 6), 3)
            a, outcomes = q @ t @ q.T, []
            for frame, y in ((near, a), (near, c * a), (far, x), (far, c * x)):
                cost = InvariantSubspaceCost(y)
                state = cost.frame_terms(frame)[2]
                outcomes.append((_certify(cost, frame, state), cost.newton_solve(frame, state)[0].tobytes()))
            assert outcomes[0] == outcomes[1] and outcomes[2] == outcomes[3]
            assert outcomes[0][0] == "cholesky"
            return
        if method == "rayleigh-lg":
            last, z = SymplecticFrame(_orthosymplectic(rng, 3).T), symmetrize(rng.standard_normal((3, 3)))
        else:
            last, z = OrthoFrame(_orthogonal(rng, 6), 3), rng.standard_normal((3, 3))
        frame = push_frame(last, 1e-6 * z, "exp")
        results = []
        for y in (x, c * x):
            cost = RayleighCost(0.5 * (y + y.T))
            (b,), last_state = cost.frame_terms(frame)[2], cost.frame_terms(last)[2]
            last_b, separation = cost.newton_solve(last, last_state)[1]
            results.append((separation, *cost.separation_bound(frame, b, last_b, separation)))
        assert results[1] == results[0]
        _, bound, floor = results[0]
        assert bound > floor

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("factor", [0.1, 0.9, 1.1, 10.0])
    @pytest.mark.parametrize("solve", ["sylvester", "lyapunov"])
    def test_solves_raise_exactly_at_or_below_the_floor(self, solve, factor, scale):
        # blocks whose eigenvalue gap is factor times their floor: the solve
        # returns a separation above separation_floor of its blocks, or
        # raises SpectralOverlap with one at or below it
        q = _orthogonal(np.random.default_rng(3), 4)
        # the Lyapunov block's eigenvalue 0, moved by shift / 2, pairs with itself to
        # shift; the Lyapunov solve is the Sylvester solve at A22 = -A11
        spectrum = [3.0, 1.0, 2.0, 0.0] if solve == "lyapunov" else [3.0, 1.0, -1.5, 2.5]
        a = symmetrize((q * (scale * np.array(spectrum))) @ q.T)
        shift = factor * separation_floor(a)
        if solve == "lyapunov":
            m_ = a + 0.5 * shift * np.eye(4)
            blocks, rhs = (m_, -m_), np.eye(4)
        else:
            blocks, rhs = (a, a + shift * np.eye(4)), np.ones((4, 4))
        floor = separation_floor(*blocks)
        try:
            _, separation = solve_sylvester(*blocks, rhs)
        except SpectralOverlap as exc:
            raised = True
            assert exc.min_gap <= floor
        else:
            raised = False
            assert separation > floor
        assert raised == (factor < 1.0)
