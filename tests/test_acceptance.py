"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured extremes (visible
with ``pytest -s``); a failed assertion prints the measurements too.
"""

import json
import time

import numpy as np

from projnewton.cli import main
from projnewton.costs import (
    CostFunction,
    HamiltonianRayleighCost,
    InvariantSubspaceCost,
    RayleighCost,
)
from projnewton.decomp import qr_positive, sym_eig, symmetrize
from projnewton.errors import InsufficientData, SpectralOverlap
from projnewton.grassmann import (
    CHART_NAMES,
    OrthoFrame,
    Projector,
    push_frame,
    random_projector,
)
from projnewton.lagrange import symplectic_frame_from_basis
from projnewton.newton import (
    NewtonConfig,
    Status,
    perturb_frame,
    rate_from_trace,
    run_newton,
)
from projnewton.solvers import (
    certify_invariant_newton,
    invariant_newton_rhs,
    solve_invariant_newton,
    solve_sylvester,
)

from conftest import newton_solve_at, random_symmetric
from oracles import (
    commutator,
    distance,
    distance_via_cosines,
    distance_via_sines,
    frame_from_projector,
    geodesic,
    random_lag_projector,
    riemannian_gradient_gr,
    riemannian_gradient_lg,
    riemannian_hessian_apply_gr,
    riemannian_hessian_apply_lg,
    sympl_form,
    tangent_from_param,
    tangent_project,
)


def _report(line):
    print(f"[acceptance] {line}")


def _gapped_symmetric(seed, n, m, gap=1.0):
    gen = np.random.default_rng(seed)
    a = random_symmetric(gen, n)
    values, vectors = sym_eig(a)
    values = values.copy()
    values[:m] += gap
    a = symmetrize(vectors @ np.diag(values) @ vectors.T)
    theta = vectors.T
    if np.linalg.det(theta) < 0:
        theta = theta.copy()
        theta[-1] = -theta[-1]
    return a, OrthoFrame(theta, m)


def _random_hamiltonian(seed, n):
    gen = np.random.default_rng(seed)
    s = random_symmetric(gen, n)
    t = random_symmetric(gen, n)
    return np.block([[s, t], [t, -s]])


def _constructed_invariant_instance(seed, n=6, m=2):
    """Non-symmetric matrix with a known stable m-dim invariant subspace:
    block spectra separated by >= 1 before an orthogonal similarity."""
    gen = np.random.default_rng(seed)
    b1 = gen.standard_normal((m, m)) + 4.0 * np.eye(m)
    b2 = gen.standard_normal((n - m, n - m)) - 4.0 * np.eye(n - m)
    s = np.zeros((n, n))
    s[:m, :m] = b1
    s[m:, m:] = b2
    t, _ = qr_positive(gen.standard_normal((n, n)))
    a = t @ s @ t.T
    target = Projector(t[:, :m] @ t[:, :m].T, m)
    return a, target


def test_criterion_1_geometry_suite():
    start = time.perf_counter()
    worst_proj = worst_metric = worst_geo = 0.0
    h = 1e-3
    for n in range(2, 13):
        for m in range(1, n):
            for seed in range(20):
                gen = np.random.default_rng((n, m, seed))
                p, frame = random_projector(n, m, seed)
                x = random_symmetric(gen, n)
                y = random_symmetric(gen, n)
                pi_x = tangent_project(p, x).mat
                worst_proj = max(worst_proj, np.abs(tangent_project(p, pi_x).mat - pi_x).max())
                worst_proj = max(
                    worst_proj,
                    abs(np.trace(pi_x @ y) - np.trace(x @ tangent_project(p, y).mat)),
                )
                z1 = gen.standard_normal((m, n - m))
                z2 = gen.standard_normal((m, n - m))
                xi1 = tangent_from_param(frame, z1).mat
                xi2 = tangent_from_param(frame, z2).mat
                om1 = commutator(xi1, p.mat)
                om2 = commutator(xi2, p.mat)
                worst_metric = max(
                    worst_metric, abs(np.trace(xi1.T @ xi2) - np.trace(om1.T @ om2))
                )
                zg = z1 * (0.5 / (np.sqrt(2.0) * np.linalg.norm(z1)))
                xi = tangent_from_param(frame, zg)
                t0 = 0.4
                plus = geodesic(p, xi, t0 + h, frame=frame).mat
                mid = geodesic(p, xi, t0, frame=frame).mat
                minus = geodesic(p, xi, t0 - h, frame=frame).mat
                acc = (plus - 2.0 * mid + minus) / h**2
                vel = (plus - minus) / (2.0 * h)
                worst_geo = max(
                    worst_geo, np.linalg.norm(acc + commutator(vel, commutator(vel, mid)))
                )
    elapsed = time.perf_counter() - start
    _report(
        f"C1 geometry suite: projection {worst_proj:.2e} (<=1e-10), "
        f"metric {worst_metric:.2e} (<=1e-10), geodesic {worst_geo:.2e} (<=1e-6), "
        f"runtime {elapsed:.1f}s (<10s): "
        + ("PASS" if worst_proj <= 1e-10 and worst_metric <= 1e-10 and worst_geo <= 1e-6 else "FAIL")
    )
    assert worst_proj <= 1e-10
    assert worst_metric <= 1e-10
    assert worst_geo <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_chart_suite():
    start = time.perf_counter()
    worst_valid = worst_deriv = 0.0
    worst_slope = np.inf
    h = 1e-4
    eps_values = (1e-1, 1e-2, 1e-3)
    for n, m in ((3, 1), (5, 2), (8, 3)):
        for seed in range(5):
            gen = np.random.default_rng((n, m, seed, 20))
            p, frame = random_projector(n, m, seed)
            z = gen.standard_normal((m, n - m))
            z /= np.linalg.norm(z)
            xi = tangent_from_param(frame, z).mat
            for chart in CHART_NAMES:
                q = push_frame(frame, z, chart).projector()
                worst_valid = max(worst_valid, np.linalg.norm(q.mat @ q.mat - q.mat))
                worst_valid = max(worst_valid, abs(np.trace(q.mat) - m))
                deriv = (
                    push_frame(frame, h * z, chart).projector().mat
                    - push_frame(frame, -h * z, chart).projector().mat
                ) / (2 * h)
                worst_deriv = max(worst_deriv, np.abs(deriv - xi).max())
            for a, b in (("exp", "qr"), ("exp", "cayley"), ("qr", "cayley")):
                diffs = [
                    max(
                        np.abs(
                            push_frame(frame, e * z, a).projector().mat
                            - push_frame(frame, e * z, b).projector().mat
                        ).max(),
                        1e-300,
                    )
                    for e in eps_values
                ]
                slope = np.polyfit(np.log(eps_values), np.log(diffs), 1)[0]
                worst_slope = min(worst_slope, slope)
    for n in (1, 2, 3):
        for seed in range(5):
            gen = np.random.default_rng((n, seed, 21))
            p, frame = random_lag_projector(n, seed)
            z = random_symmetric(gen, n)
            z /= np.linalg.norm(z)
            xi = tangent_from_param(frame, z).mat
            j = sympl_form(n)
            for chart in ("exp", "qr", "cayley"):
                q = push_frame(frame, z, chart).projector()
                worst_valid = max(worst_valid, np.linalg.norm(q.mat @ q.mat - q.mat))
                worst_valid = max(worst_valid, np.abs(q.mat @ j @ q.mat).max())
                deriv = (
                    push_frame(frame, h * z, chart).projector().mat
                    - push_frame(frame, -h * z, chart).projector().mat
                ) / (2 * h)
                worst_deriv = max(worst_deriv, np.abs(deriv - xi).max())
            if n >= 2:
                for a, b in (("exp", "qr"), ("exp", "cayley"), ("qr", "cayley")):
                    diffs = [
                        max(
                            np.abs(
                                push_frame(frame, e * z, a).projector().mat
                                - push_frame(frame, e * z, b).projector().mat
                            ).max(),
                            1e-300,
                        )
                        for e in eps_values
                    ]
                    slope = np.polyfit(np.log(eps_values), np.log(diffs), 1)[0]
                    worst_slope = min(worst_slope, slope)
    elapsed = time.perf_counter() - start
    ok = worst_valid <= 1e-9 and worst_deriv <= 1e-6 and worst_slope >= 2.9
    _report(
        f"C2 chart suite: validity {worst_valid:.2e}, derivative {worst_deriv:.2e} "
        f"(<=1e-6), agreement slope {worst_slope:.2f} (>=2.9), runtime {elapsed:.1f}s: "
        + ("PASS" if ok else "FAIL")
    )
    assert worst_valid <= 1e-9
    assert worst_deriv <= 1e-6
    assert worst_slope >= 2.9
    assert elapsed < 10.0


def test_criterion_3_distance_suite():
    worst_pair = 0.0
    for n, m in ((5, 2), (4, 3)):
        for seed in range(50):
            p, _ = random_projector(n, m, 2 * seed)
            q, _ = random_projector(n, m, 2 * seed + 1)
            worst_pair = max(worst_pair, abs(distance_via_cosines(p, q) - distance_via_sines(p, q)))
    worst_76a = 0.0
    for seed in range(20):
        p, _ = random_projector(5, 2, 300 + seed)
        q, fq = random_projector(5, 2, 400 + seed)
        y = fq.theta[: fq.rank].T
        w, _ = sym_eig(y.T @ p.mat @ y)
        w = np.clip(w, 0.0, 1.0)
        half_sq = float(np.sum(np.arccos(np.sqrt(w)) ** 2))
        worst_76a = max(worst_76a, abs(half_sq - 0.5 * distance(p, q) ** 2))
    p_line = Projector(np.diag([1.0, 0.0]), 1)
    q_line = Projector(np.diag([0.0, 1.0]), 1)
    antipodal = abs(distance(p_line, q_line) - np.sqrt(2.0) * np.pi / 2.0)
    ok = worst_pair <= 1e-9 and worst_76a <= 1e-8 and antipodal <= 1e-12
    _report(
        f"C3 distance suite: reductions agree {worst_pair:.2e} (<=1e-9), "
        f"half-square identity {worst_76a:.2e} (<=1e-8), antipodal {antipodal:.2e} "
        f"(<=1e-12): " + ("PASS" if ok else "FAIL")
    )
    assert worst_pair <= 1e-9
    assert worst_76a <= 1e-8
    assert antipodal <= 1e-12


def test_criterion_4_derivative_oracles():
    start = time.perf_counter()
    worst = 0.0
    h1, h2 = 1e-4, 1e-3
    for seed in range(3):
        gen = np.random.default_rng((seed, 30))
        # Grassmann costs
        n, m = 5, 2
        p, frame = random_projector(n, m, seed)
        z = gen.standard_normal((m, n - m))
        z /= np.linalg.norm(z)
        xi = tangent_from_param(frame, z)
        for cost in (RayleighCost(random_symmetric(gen, n)), InvariantSubspaceCost(gen.standard_normal((n, n)))):
            grad = np.trace(riemannian_gradient_gr(cost, p).mat @ xi.mat)
            hess = np.trace(riemannian_hessian_apply_gr(cost, p, xi).mat @ xi.mat)
            for chart in CHART_NAMES:
                f = lambda zz: cost.value(push_frame(frame, zz, chart).projector().mat)
                fd_grad = (f(h1 * z) - f(-h1 * z)) / (2 * h1)
                fd_hess = (f(h2 * z) - 2 * f(np.zeros_like(z)) + f(-h2 * z)) / h2**2
                worst = max(worst, abs(fd_grad - grad) / max(1.0, abs(grad)))
                worst = max(worst, abs(fd_hess - hess) / max(1.0, abs(hess)))
        # Lagrange cost
        nl = 3
        pl, framel = random_lag_projector(nl, seed)
        zl = random_symmetric(gen, nl)
        zl /= np.linalg.norm(zl)
        xil = tangent_from_param(framel, zl).mat
        cost = HamiltonianRayleighCost(_random_hamiltonian(seed, nl))
        grad = np.trace(riemannian_gradient_lg(cost, pl) @ xil)
        hess = np.trace(riemannian_hessian_apply_lg(cost, pl, xil) @ xil)
        for chart in ("exp", "qr", "cayley"):
            f = lambda zz: cost.value(push_frame(framel, zz, chart).projector().mat)
            fd_grad = (f(h1 * zl) - f(-h1 * zl)) / (2 * h1)
            fd_hess = (f(h2 * zl) - 2 * f(np.zeros_like(zl)) + f(-h2 * zl)) / h2**2
            worst = max(worst, abs(fd_grad - grad) / max(1.0, abs(grad)))
            worst = max(worst, abs(fd_hess - hess) / max(1.0, abs(hess)))
    elapsed = time.perf_counter() - start
    _report(
        f"C4 derivative oracles: worst relative error {worst:.2e} (<=1e-4), "
        f"runtime {elapsed:.1f}s (<30s): " + ("PASS" if worst <= 1e-4 else "FAIL")
    )
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_5_solver_suite():
    worst_syl = worst_lya = worst_inv = 0.0
    # Sylvester up to d = 64
    for m, k, seed in ((4, 4, 0), (8, 8, 1), (8, 8, 2)):
        gen = np.random.default_rng(seed)
        a11 = random_symmetric(gen, m) + 4.0 * np.eye(m)
        a22 = random_symmetric(gen, k) - 4.0 * np.eye(k)
        c = gen.standard_normal((m, k))
        z = solve_sylvester(a11, a22, c)[0]
        op = np.kron(a11, np.eye(k)) - np.kron(np.eye(m), a22.T)
        oracle = np.linalg.solve(op, c.reshape(-1)).reshape(m, k)
        worst_syl = max(worst_syl, np.abs(z - oracle).max())
    # Lyapunov, the Sylvester solve at A22 = -A11, up to d = 64
    for n, seed in ((4, 3), (8, 4)):
        gen = np.random.default_rng(seed)
        a11 = random_symmetric(gen, n) + 4.0 * np.eye(n)
        c = random_symmetric(gen, n)
        z = solve_sylvester(a11, -a11, c)[0]
        op = np.kron(a11, np.eye(n)) + np.kron(np.eye(n), a11)
        oracle = np.linalg.solve(op, c.reshape(-1)).reshape(n, n)
        worst_lya = max(worst_lya, np.abs(z - oracle).max())
    # four-term direct solver up to d = 64; coupling kept weak
    # (well-conditioned instances)
    for m, k, seed in ((2, 2, 5), (4, 4, 6), (8, 8, 7)):
        gen = np.random.default_rng(seed)
        a11 = gen.standard_normal((m, m)) + 4.0 * np.eye(m)
        a22 = gen.standard_normal((k, k)) - 4.0 * np.eye(k)
        a12 = gen.standard_normal((m, k))
        a21 = (0.3 / k) * gen.standard_normal((k, m))
        b = np.block([[a11, a12], [a21, a22]])
        z = solve_invariant_newton(b, invariant_newton_rhs(a11, a21, a22))[0]
        certify_invariant_newton(b, m, np.vdot(b, b))
        d = m * k
        op = np.zeros((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            zz = e.reshape(m, k)
            w = a11.T @ zz - zz @ a22.T
            op[:, j] = (
                a11 @ w - w @ a22
                - a21.T @ (zz.T @ a12 + a21 @ zz)
                - (a12 @ zz.T + zz @ a21) @ a21.T
            ).reshape(-1)
        oracle = np.linalg.solve(op, invariant_newton_rhs(a11, a21, a22).reshape(-1)).reshape(m, k)
        worst_inv = max(worst_inv, np.abs(z - oracle).max())
    # overlap detection on identical blocks
    overlap_raised = False
    try:
        solve_sylvester(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), np.ones((2, 2)))
    except SpectralOverlap:
        overlap_raised = True
    ok = worst_syl <= 1e-9 and worst_lya <= 1e-9 and worst_inv <= 1e-9 and overlap_raised
    _report(
        f"C5 solver suite: sylvester {worst_syl:.2e}, lyapunov {worst_lya:.2e}, "
        f"direct {worst_inv:.2e} (<=1e-9), "
        f"overlap raised {overlap_raised}: " + ("PASS" if ok else "FAIL")
    )
    assert worst_syl <= 1e-9
    assert worst_lya <= 1e-9
    assert worst_inv <= 1e-9
    assert overlap_raised


def test_criterion_6_algorithm1_quadratic():
    start = time.perf_counter()
    successes = 0
    worst_dist = 0.0
    for seed in range(20):
        a, dom = _gapped_symmetric(seed, 8, 2, gap=1.0)
        reference = dom.projector()
        start_frame = perturb_frame(dom, 0.05, 1000 + seed)
        trace = run_newton(
            RayleighCost(a), start_frame,
            NewtonConfig(grad_tol=1e-12, max_iters=8),
            reference=reference, method="rayleigh-gr",
        )
        converged = trace.status == Status.CONVERGED and trace.records[-1].iteration <= 8
        final_dist = trace.records[-1].distance
        worst_dist = max(worst_dist, final_dist)
        try:
            verdict = rate_from_trace(trace).verdict
        except InsufficientData:
            verdict = False
        if converged and verdict and final_dist <= 1e-8:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes >= 18 and elapsed < 5.0
    _report(
        f"C6 algorithm-1 quadratic convergence: {successes}/20 seeds "
        f"(>=18), worst final distance {worst_dist:.2e}, runtime {elapsed:.1f}s (<5s): "
        + ("PASS" if ok else "FAIL")
    )
    assert successes >= 18
    assert elapsed < 5.0


def test_criterion_7_algorithm2():
    for n in (2, 3):
        successes = 0
        worst_sympl = 0.0
        for seed in range(20):
            h = _random_hamiltonian((n, seed), n)
            _, vectors = sym_eig(h)
            dom = symplectic_frame_from_basis(vectors[:, :n])
            start_frame = perturb_frame(dom, 0.05, 2000 + seed)
            trace = run_newton(
                HamiltonianRayleighCost(h), start_frame,
                NewtonConfig(grad_tol=1e-12, max_iters=8),
                reference=dom.projector(), method="rayleigh-lg",
            )
            sympl = max(trace.extras["symplecticity_residuals"])
            worst_sympl = max(worst_sympl, sympl)
            converged = trace.status == Status.CONVERGED and trace.records[-1].iteration <= 8
            try:
                verdict = rate_from_trace(trace).verdict
            except InsufficientData:
                verdict = False
            if converged and verdict and sympl <= 1e-9:
                successes += 1
        ok = successes >= 18 and worst_sympl <= 1e-9
        _report(
            f"C7 algorithm-2 (2n={2*n}): {successes}/20 seeds (>=18), "
            f"worst symplecticity residual {worst_sympl:.2e} (<=1e-9): "
            + ("PASS" if ok else "FAIL")
        )
        assert successes >= 18
        assert worst_sympl <= 1e-9


def test_criterion_8_algorithm3():
    successes = 0
    worst_res = worst_dist = 0.0
    for seed in range(20):
        a, target = _constructed_invariant_instance(seed)
        start_frame = perturb_frame(frame_from_projector(target), 0.05, 3000 + seed)
        trace = run_newton(
            InvariantSubspaceCost(a), start_frame,
            NewtonConfig(grad_tol=1e-12, max_iters=12),
            reference=target, method="invariant-direct",
        )
        p_final = trace.extras["final_frame"].projector()
        residual = np.linalg.norm((np.eye(6) - p_final.mat) @ a @ p_final.mat)
        final_dist = trace.records[-1].distance
        worst_res = max(worst_res, residual)
        worst_dist = max(worst_dist, final_dist)
        try:
            verdict = rate_from_trace(trace).verdict
        except InsufficientData:
            verdict = False
        if residual <= 1e-10 and final_dist <= 1e-8 and verdict:
            successes += 1
    ok = successes >= 18
    _report(
        f"C8 algorithm-3 invariant subspaces: {successes}/20 seeds (>=18), "
        f"worst residual {worst_res:.2e}, worst distance {worst_dist:.2e}: "
        + ("PASS" if ok else "FAIL")
    )
    assert successes >= 18


def test_criterion_9_specialization_consistency():
    worst = 0.0
    for seed in range(20):
        a, dom = _gapped_symmetric(100 + seed, 5, 2, gap=1.0)
        frame = perturb_frame(dom, 0.2, 4000 + seed)
        cost = RayleighCost(a)
        z_gen = newton_solve_at(cost, frame, CostFunction)[0]
        worst = max(worst, np.abs(z_gen - newton_solve_at(cost, frame)[0]).max())
        a, target = _constructed_invariant_instance(5000 + seed)
        frame = perturb_frame(frame_from_projector(target), 0.05, 6000 + seed)
        cost = InvariantSubspaceCost(a)
        z_gen = newton_solve_at(cost, frame, CostFunction)[0]
        worst = max(worst, np.abs(z_gen - newton_solve_at(cost, frame)[0]).max())
    _report(
        f"C9 dense fallback vs the cost's own Newton solve: worst difference "
        f"{worst:.2e} (<=1e-9): "
        + ("PASS" if worst <= 1e-9 else "FAIL")
    )
    assert worst <= 1e-9


def test_criterion_10_cli_end_to_end(tmp_path):
    matrix = tmp_path / "a.txt"
    matrix.write_text("4 0 0 0\n0 3 0 0\n0 0 2 0\n0 0 0 1\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["rayleigh-gr", str(matrix), "--m", "2", "--seed", "0"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    report = json.loads(out1.read_text())
    assert report["schema_version"] == "1"
    assert set(report) == {
        "schema_version", "command", "config", "iterations", "status", "rate",
        "final", "elapsed_seconds",
    }
    assert {"iter", "cost", "grad_norm", "step_norm", "distance"} <= set(report["iterations"][0])
    assert report["status"] == "Converged"
    dist_to_dominant = report["final"]["extra_residuals"]["distance_to_dominant"]
    assert dist_to_dominant <= 1e-8
    # rebuild the run in-process and compare the final projector entrywise
    a = np.diag([4.0, 3.0, 2.0, 1.0])
    _, vectors = sym_eig(a)
    theta = vectors.T
    if np.linalg.det(theta) < 0:
        theta = theta.copy()
        theta[-1] = -theta[-1]
    dom = OrthoFrame(theta, 2)
    start_frame = perturb_frame(dom, 0.05, 0)
    trace = run_newton(
        RayleighCost(a), start_frame, NewtonConfig(grad_tol=1e-12, max_iters=50),
        reference=dom.projector(), method="rayleigh-gr",
    )
    p_final = trace.extras["final_frame"].projector()
    entry_err = np.abs(p_final.mat - np.diag([1.0, 1.0, 0.0, 0.0])).max()
    assert entry_err <= 1e-8
    text1 = "\n".join(l for l in out1.read_text().splitlines() if "elapsed_seconds" not in l)
    text2 = "\n".join(l for l in out2.read_text().splitlines() if "elapsed_seconds" not in l)
    byte_identical = text1 == text2
    ok = dist_to_dominant <= 1e-8 and entry_err <= 1e-8 and byte_identical
    _report(
        f"C10 CLI end-to-end: distance {dist_to_dominant:.2e}, entrywise {entry_err:.2e} "
        f"(<=1e-8), byte-identical {byte_identical}: " + ("PASS" if ok else "FAIL")
    )
    assert byte_identical
