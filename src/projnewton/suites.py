"""Seeded residual suites over a size grid.

Each suite sweeps random points/tangents on a grid of manifold sizes and
returns the worst observed residual together with its threshold.  The CLI
``check`` command runs all of them; the test suite reuses them for the
acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .decomp import symmetrize
from .grassmann import (
    CHART_NAMES,
    chart_factor,
    chart_point,
    chart_second_derivative_check,
    commutator,
    distance,
    distance_via_cosines,
    distance_via_sines,
    geodesic,
    random_projector,
    tangent_from_param,
    tangent_project,
)
from .lagrange import (
    lg_chart_point,
    lg_tangent_from_param,
    lg_tangent_project,
    random_lag_projector,
    sympl_form,
)

__all__ = [
    "SuiteResult",
    "suite_projection",
    "suite_metric",
    "suite_geodesic",
    "suite_chart_derivatives",
    "suite_chart_agreement",
    "suite_second_derivative",
    "suite_distance",
    "suite_lagrange",
    "run_all_suites",
    "DEFAULT_SIZES",
]

DEFAULT_SIZES = (2, 3, 4, 6, 8, 10, 12)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    value: float
    threshold: float
    # "max_below": value must stay below threshold; "min_above": above.
    mode: str

    @property
    def passed(self):
        if self.mode == "max_below":
            return self.value <= self.threshold
        return self.value >= self.threshold

    def describe(self):
        rel = "<=" if self.mode == "max_below" else ">="
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {self.value:.3e} {rel} {self.threshold:.1e} [{verdict}]"


def _grid(sizes):
    for n in sizes:
        for m in range(1, n):
            yield n, m


def _random_tangent(frame, rng, norm=0.5):
    m, k = frame.rank, frame.dim - frame.rank
    z = rng.standard_normal((m, k))
    z *= norm / (np.sqrt(2.0) * np.linalg.norm(z))
    return z


def suite_projection(sizes=DEFAULT_SIZES, seeds=5):
    """Tangent projection is idempotent, self-adjoint, and splits
    symmetric matrices orthogonally."""
    worst = 0.0
    for n, m in _grid(sizes):
        for seed in range(seeds):
            rng = np.random.default_rng((n, m, seed, 1))
            p, _ = random_projector(n, m, seed)
            x = symmetrize(rng.standard_normal((n, n)))
            y = symmetrize(rng.standard_normal((n, n)))
            pi_x = tangent_project(p, x).mat
            pi_pi_x = tangent_project(p, pi_x).mat
            worst = max(worst, np.abs(pi_pi_x - pi_x).max())
            pi_y = tangent_project(p, y).mat
            worst = max(worst, abs(np.trace(pi_x @ y) - np.trace(x @ pi_y)))
            worst = max(worst, abs(np.trace(pi_x @ (x - pi_x))))
    return SuiteResult("tangent projection", worst, 1e-10, "max_below")


def suite_metric(sizes=DEFAULT_SIZES, seeds=5):
    """Frobenius metric on tangents equals the commutator metric:
    tr(xi1^T xi2) = tr(Omega1^T Omega2) for Omega_i = [xi_i, P]."""
    worst = 0.0
    for n, m in _grid(sizes):
        for seed in range(seeds):
            rng = np.random.default_rng((n, m, seed, 2))
            p, frame = random_projector(n, m, seed)
            xi1 = tangent_from_param(frame, rng.standard_normal((m, n - m))).mat
            xi2 = tangent_from_param(frame, rng.standard_normal((m, n - m))).mat
            om1 = commutator(xi1, p.mat)
            om2 = commutator(xi2, p.mat)
            lhs = np.trace(xi1.T @ xi2)
            rhs = np.trace(om1.T @ om2)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return SuiteResult("metric equality", worst, 1e-10, "max_below")


def suite_geodesic(sizes=DEFAULT_SIZES, seeds=3, h=1e-3):
    """Finite-difference residual of the geodesic equation
    P'' + [P', [P', P]] = 0 along closed-form geodesics."""
    worst = 0.0
    for n, m in _grid(sizes):
        for seed in range(seeds):
            rng = np.random.default_rng((n, m, seed, 3))
            p0, frame = random_projector(n, m, seed)
            xi = tangent_from_param(frame, _random_tangent(frame, rng))
            for t in (0.0, 0.4, 1.1):
                plus = geodesic(p0, xi, t + h).mat
                mid = geodesic(p0, xi, t).mat
                minus = geodesic(p0, xi, t - h).mat
                acc = (plus - 2.0 * mid + minus) / (h * h)
                vel = (plus - minus) / (2.0 * h)
                residual = np.linalg.norm(acc + commutator(vel, commutator(vel, mid)))
                worst = max(worst, residual)
    return SuiteResult("geodesic equation", worst, 1e-6, "max_below")


def suite_chart_derivatives(sizes=(3, 5, 8), seeds=3):
    """All charts return valid projectors and have identity derivative at 0
    (central finite differences)."""
    worst = 0.0
    h = TOL.fd_step_first
    for n, m in _grid(sizes):
        for seed in range(seeds):
            rng = np.random.default_rng((n, m, seed, 4))
            _, frame = random_projector(n, m, seed)
            z = rng.standard_normal((m, n - m))
            xi = tangent_from_param(frame, z).mat
            for chart in CHART_NAMES:
                plus = chart_point(frame, h * z, chart).mat
                minus = chart_point(frame, -h * z, chart).mat
                deriv = (plus - minus) / (2.0 * h)
                worst = max(worst, np.abs(deriv - xi).max())
    return SuiteResult("chart derivative at zero", worst, 1e-6, "max_below")


def _agreement_slope(point_at, z, pair, eps_values=(1e-1, 1e-2, 1e-3)):
    diffs = []
    for eps in eps_values:
        a = point_at(eps * z, pair[0])
        b = point_at(eps * z, pair[1])
        diffs.append(max(np.abs(a - b).max(), 1e-300))
    logs = np.log(np.asarray(diffs))
    return float(np.polyfit(np.log(np.asarray(eps_values)), logs, 1)[0])


def suite_chart_agreement(sizes=(3, 5, 8), seeds=3):
    """Pairwise chart differences vanish at cubic order in the parameter
    (equal first and second derivatives at 0): log-log slope of the
    difference against epsilon is at least 2.9."""
    slopes = []
    for n, m in _grid(sizes):
        for seed in range(seeds):
            rng = np.random.default_rng((n, m, seed, 5))
            _, frame = random_projector(n, m, seed)
            z = rng.standard_normal((m, n - m))
            z /= np.linalg.norm(z)

            def point_at(zz, chart):
                return chart_point(frame, zz, chart).mat

            for pair in (("exp", "qr"), ("exp", "cayley"), ("qr", "cayley")):
                slopes.append(_agreement_slope(point_at, z, pair))
    return SuiteResult("chart agreement slope", min(slopes), 2.9, "min_above")


def suite_second_derivative(sizes=(3, 5, 8), seeds=3):
    """The chart-independent second derivative at 0 equals
    Theta^T diag(-2 Z Z^T, 2 Z^T Z) Theta for every chart."""
    worst = 0.0
    for n, m in _grid(sizes):
        for seed in range(seeds):
            rng = np.random.default_rng((n, m, seed, 6))
            _, frame = random_projector(n, m, seed)
            z = rng.standard_normal((m, n - m))
            z /= np.linalg.norm(z)
            target = np.zeros((n, n))
            target[:m, :m] = -2.0 * z @ z.T
            target[m:, m:] = 2.0 * z.T @ z
            target = frame.theta.T @ target @ frame.theta
            for chart in CHART_NAMES:
                approx = chart_second_derivative_check(frame, z, chart)
                worst = max(worst, np.abs(approx - target).max())
    return SuiteResult("chart second derivative", worst, 1e-4, "max_below")


def suite_distance(sizes=((5, 2), (4, 3)), pairs=20):
    """The cosine and sine distance reductions agree, the distance is
    symmetric, and self-distance vanishes."""
    worst = 0.0
    for n, m in sizes:
        for seed in range(pairs):
            p, _ = random_projector(n, m, 2 * seed)
            q, _ = random_projector(n, m, 2 * seed + 1)
            d_cos = distance_via_cosines(p, q)
            d_sin = distance_via_sines(p, q)
            worst = max(worst, abs(d_cos - d_sin))
            worst = max(worst, abs(distance(p, q) - distance(q, p)))
            worst = max(worst, distance(p, p))
    return SuiteResult("distance cross-checks", worst, 1e-9, "max_below")


def suite_lagrange(sizes=(1, 2, 3, 4), seeds=4):
    """Lagrangian invariants: P J P = 0 along charts and geodesics,
    orthogonal-symplectic chart factors, projection idempotence, and
    J xi J = xi for tangents."""
    worst = 0.0
    for n in sizes:
        j = sympl_form(n)
        for seed in range(seeds):
            rng = np.random.default_rng((n, seed, 7))
            p, frame = random_lag_projector(n, seed)
            worst = max(worst, np.abs(p.mat @ j @ p.mat).max())
            z = rng.standard_normal((n, n))
            z = 0.5 * (z + z.T)
            z *= 0.7 / np.linalg.norm(z)
            xi = lg_tangent_from_param(frame, z)
            worst = max(worst, np.abs(j @ xi @ j - xi).max())
            for chart in ("exp", "qr", "cayley"):
                factor = chart_factor(z, chart)
                n2 = 2 * n
                worst = max(worst, np.abs(factor.T @ factor - np.eye(n2)).max())
                worst = max(worst, np.abs(factor.T @ j @ factor - j).max())
                q = lg_chart_point(frame, z, chart)
                worst = max(worst, np.abs(q.mat @ j @ q.mat).max())
            for t in (0.3, 0.9):
                g = geodesic(p, xi, t)
                worst = max(worst, np.abs(g.mat @ j @ g.mat).max())
            x = symmetrize(rng.standard_normal((2 * n, 2 * n)))
            pi_x = lg_tangent_project(p, x)
            worst = max(worst, np.abs(lg_tangent_project(p, pi_x) - pi_x).max())
            worst = max(worst, abs(np.trace(pi_x @ (x - pi_x))))
    return SuiteResult("lagrangian invariants", worst, 1e-9, "max_below")


def run_all_suites(sizes=None, inject_fault=False):
    """Run every suite; returns the list of results."""
    sizes = tuple(sizes) if sizes else DEFAULT_SIZES
    small = tuple(s for s in sizes if s >= 2)[:3] or (3,)
    lag_sizes = tuple(sorted({max(1, s // 2) for s in sizes}))[:4]
    n_hi = max(sizes)
    n_lo = min(s for s in sizes if s >= 2)
    dist_sizes = ((n_hi, max(1, n_hi // 2)), (n_lo, max(1, n_lo - 1)))
    results = [
        suite_projection(sizes),
        suite_metric(sizes),
        suite_geodesic(sizes),
        suite_chart_derivatives(small),
        suite_chart_agreement(small),
        suite_second_derivative(small),
        suite_distance(dist_sizes),
        suite_lagrange(lag_sizes),
    ]
    if inject_fault:
        results.append(SuiteResult("injected fault (self-test)", 1.0, 0.0, "max_below"))
    return results
