"""Command-line front end.

Subcommands
-----------
rayleigh-gr   Newton iteration for tr(A P) over rank-m projectors.
rayleigh-lg   Newton iteration for tr(H P) over Lagrangian projectors.
invariant     Newton iteration for ||(I - P) A P||^2 (invariant subspaces).

Matrix files are UTF-8 text with one whitespace-separated row per line;
'#' starts a comment.  Reports are JSON documents (schema version "1");
repeated identical invocations produce byte-identical reports apart from
the ``elapsed_seconds`` field.  ``--out`` is overwritten in place, never
emptied first, and the write is not atomic.

A run stops once the gradient norm is at most ``--tol`` times ||A||_F
(||A||_F^2 for invariant): its status does not depend on the units of A.

Exit codes: 0 converged, 1 input error, 2 not converged within the
iteration budget, 3 solver or degeneracy error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import stat
import sys
import time
from functools import partial

import numpy as np

from .config import TOL
from .costs import HamiltonianRayleighCost, InvariantSubspaceCost, RayleighCost
from .decomp import qr_positive, sym_eig
from .errors import (
    BadRank,
    InputNotHamiltonianSymmetric,
    InputNotSymmetric,
    InsufficientData,
    ProjNewtonError,
)
from .grassmann import CHART_NAMES, _oriented_frame
from .lagrange import sympl_form, symplectic_frame_from_basis
from .newton import (
    NewtonConfig,
    Status,
    perturb_frame,
    rate_from_trace,
    run_newton,
)

_STATUS_EXIT = {
    Status.CONVERGED: 0,
    Status.MAX_ITERS: 2,
    Status.SINGULAR_HESSIAN: 3,
    Status.SPECTRAL_OVERLAP: 3,
    Status.NO_CONVERGENCE: 3,
}


def load_matrix(path):
    """Parse a whitespace/comment matrix file into a 2-d float array."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    rows.append([float(tok) for tok in text.split()])
                except ValueError as exc:
                    raise ProjNewtonError(f"{path}:{line_no}: {exc}") from exc
    except OSError as exc:
        raise ProjNewtonError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ProjNewtonError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ProjNewtonError(f"{path}: rows have inconsistent lengths")
    mat = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ProjNewtonError(f"{path}: non-finite entries")
    return mat


def _require_square(mat, what="matrix"):
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ProjNewtonError(f"{what} must be square, got {mat.shape}")
    return mat


def _require_symmetric_input(mat):
    scale = max(1.0, np.abs(mat).max())
    if np.abs(mat - mat.T).max() > TOL.input_symmetry * scale:
        raise InputNotSymmetric("input matrix is not symmetric")
    return 0.5 * (mat + mat.T)


def _require_hamiltonian_input(mat):
    mat = _require_symmetric_input(mat)
    if mat.shape[0] % 2:
        raise InputNotHamiltonianSymmetric("input dimension must be even (2n)")
    j = sympl_form(mat.shape[0] // 2)
    scale = max(1.0, np.abs(mat).max())
    if np.abs(j @ mat @ j - mat).max() > TOL.input_symmetry * scale:
        raise InputNotHamiltonianSymmetric(
            "input lacks the symmetric-Hamiltonian block structure [[S, T], [T, -S]]"
        )
    # project onto the structure, which the cost checks at a tighter tolerance
    return 0.5 * (mat + j @ mat @ j)


def _frame_from_start_file(path, n, m):
    basis = load_matrix(path)
    if basis.shape != (n, m):
        raise ProjNewtonError(
            f"start basis must be {n}x{m} to match the problem, got {basis.shape}"
        )
    q, _ = qr_positive(basis)
    return _oriented_frame(q.T, m)


def _dominant_frame(a, m):
    """Frame whose leading rows span the dominant m-dim eigenspace of A."""
    _, vectors = sym_eig(a)
    return _oriented_frame(vectors.T, m)


def _dominant_lag_frame(h):
    _, vectors = sym_eig(h)
    n = h.shape[0] // 2
    return symplectic_frame_from_basis(vectors[:, :n])


DEFAULT_PERTURB = 0.05


def _select_start(args, base_frame, natural_frame):
    """Start-point policy.

    An explicit --start wins (optionally rotated away by --perturb).  When
    the command has a computable natural critical point (the dominant
    eigenspace of the input), the default start is that point rotated away
    by --perturb (default 0.05) in a seed-controlled direction: the method
    is local, so the default run demonstrates convergence from within the
    basin.  Commands without a natural reference fall back to a seeded
    random start (returned as None here).
    """
    if base_frame is not None:
        frame = base_frame
        if args.perturb is not None:
            frame = perturb_frame(frame, args.perturb, args.seed)
        return frame
    if natural_frame is not None:
        eps = DEFAULT_PERTURB if args.perturb is None else args.perturb
        return perturb_frame(natural_frame, eps, args.seed)
    if args.perturb is not None:
        raise ProjNewtonError("--perturb without --start needs a computable reference")
    return None


def _trace_rows(trace):
    rows = []
    for rec in trace.records:
        rows.append(
            {
                "iter": rec.iteration,
                "cost": rec.cost,
                "grad_norm": rec.grad_norm,
                "step_norm": rec.step_norm,
                "distance": rec.distance,
            }
        )
    return rows


def _rate_block(trace):
    try:
        rate = rate_from_trace(trace)
        return {
            "ratios": [float(r) for r in rate.ratios],
            "slope": rate.slope,
            "verdict": rate.verdict,
        }
    except InsufficientData:
        return {"ratios": [], "slope": None, "verdict": False}


def _final_block(final_projector, extra_residuals):
    mat = final_projector.mat
    return {
        "trace": float(np.trace(mat)),
        "frobenius_norm": float(np.linalg.norm(mat)),
        "idempotence_residual": float(np.linalg.norm(mat @ mat - mat)),
        "extra_residuals": extra_residuals,
    }


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8",  # emptying first costs more than writing
                      opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as handle:
                handle.write(text + "\n")
                if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # not /dev/null or a pipe
                    handle.truncate()
        except OSError as exc:
            raise ProjNewtonError(f"cannot write {out_path}: {exc}") from exc
    else:
        print(text)


def _run_report(command, args, cost, start_frame, reference, method, extra_fn):
    try:
        config = NewtonConfig(
            mu=args.mu,
            nu=args.nu,
            max_iters=args.max_iters,
            grad_tol=args.tol,
        )
    except ValueError as exc:
        raise ProjNewtonError(str(exc)) from exc
    t0 = time.perf_counter()
    trace = run_newton(cost, start_frame, config, reference=reference, method=method)
    elapsed = time.perf_counter() - t0
    final_projector = trace.extras["final_frame"].projector()
    report = {
        "schema_version": "1",
        "command": command,
        "config": {
            "matrix": args.matrix,
            "m": getattr(args, "m", None),
            "mu": args.mu,
            "nu": args.nu,
            "grad_tol": args.tol,
            "max_iters": args.max_iters,
            "seed": args.seed,
            "start": args.start,
            "perturb": args.perturb,
            "solver": getattr(args, "solver", None),
        },
        "iterations": _trace_rows(trace),
        "status": trace.status,
        "rate": _rate_block(trace),
        "final": _final_block(final_projector, extra_fn(trace, final_projector)),
        "elapsed_seconds": elapsed,
    }
    _emit(report, args.out)
    return _STATUS_EXIT[trace.status]


def _cmd_rayleigh_gr(args):
    a = _require_symmetric_input(_require_square(load_matrix(args.matrix)))
    n = a.shape[0]
    if not 0 < args.m < n:
        raise BadRank(f"m must satisfy 0 < m < {n}, got {args.m}")
    cost = RayleighCost(a)
    natural = _dominant_frame(a, args.m)
    base = _frame_from_start_file(args.start, n, args.m) if args.start else None
    start = _select_start(args, base, natural)

    def extras(trace, final_projector):
        return {"distance_to_dominant": trace.records[-1].distance}

    return _run_report("rayleigh-gr", args, cost, start, natural, "rayleigh-gr", extras)


def _cmd_rayleigh_lg(args):
    h = _require_hamiltonian_input(_require_square(load_matrix(args.matrix)))
    n = h.shape[0] // 2
    cost = HamiltonianRayleighCost(h)
    natural = _dominant_lag_frame(h)
    base = None
    if args.start:
        basis = load_matrix(args.start)
        if basis.shape != (2 * n, n):
            raise ProjNewtonError(f"start basis must be {2 * n}x{n}, got {basis.shape}")
        q, _ = qr_positive(basis)
        u = q[:, :n]
        j = sympl_form(n)
        if np.abs(u.T @ j @ u).max() > TOL.input_symmetry:
            raise ProjNewtonError("start basis does not span a Lagrangian subspace")
        base = symplectic_frame_from_basis(u)
    start = _select_start(args, base, natural)

    def extras(trace, final_projector):
        sympl = trace.extras.get("symplecticity_residuals", [])
        pjp = np.abs(final_projector.mat @ sympl_form(n) @ final_projector.mat).max()
        return {
            "symplecticity_residuals": sympl,
            "max_symplecticity_residual": max(sympl) if sympl else None,
            "lagrangian_residual": float(pjp),
        }

    return _run_report("rayleigh-lg", args, cost, start, natural, "rayleigh-lg", extras)


def _cmd_invariant(args):
    a = _require_square(load_matrix(args.matrix))
    n = a.shape[0]
    if not 0 < args.m < n:
        raise BadRank(f"m must satisfy 0 < m < {n}, got {args.m}")
    cost = InvariantSubspaceCost(a)
    base = _frame_from_start_file(args.start, n, args.m) if args.start else None
    start = _select_start(args, base, None)
    if start is None:
        from .grassmann import random_projector

        start = random_projector(n, args.m, args.seed)[1]

    def extras(trace, final_projector):
        residuals = trace.extras["invariance_residuals"]
        return {"invariance_residual": residuals[-1], "invariance_history": residuals}

    return _run_report("invariant", args, cost, start, None, f"invariant-{args.solver}", extras)


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _nonneg_float(text):
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError("must be non-negative and finite")
    return value


def _add_common(parser, need_m, solver=False):
    parser.add_argument("matrix", help="path to the matrix file")
    if need_m:
        parser.add_argument("--m", type=int, required=True, help="subspace dimension")
    defaults = NewtonConfig()
    parser.add_argument("--mu", default=defaults.mu, choices=CHART_NAMES,
                        help="pull-back chart (default %(default)s)")
    parser.add_argument("--nu", default=defaults.nu, choices=CHART_NAMES,
                        help="push-forward chart (default %(default)s)")
    parser.add_argument("--tol", type=float, default=defaults.grad_tol,
                        help="gradient-norm stopping tolerance, relative to ||A||_F "
                             "(||A||_F^2 for invariant) (default %(default)s)")
    parser.add_argument("--max-iters", type=int, default=defaults.max_iters, dest="max_iters",
                        help="iteration budget (default %(default)s)")
    parser.add_argument("--seed", type=_nonneg_int, default=0,
                        help="seed for random starts and perturbations")
    parser.add_argument("--start", default=None,
                        help="file with an orthonormal start basis (n x m)")
    parser.add_argument("--perturb", type=_nonneg_float, default=None,
                        help="rotate the start away by this geodesic distance")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    if solver:
        parser.add_argument("--solver", default="direct", choices=("direct", "recursive"),
                            help="matrix-equation solver for the Newton step")


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the input-error exit code (1), not argparse's 2,
    which this tool reserves for runs that exhaust the iteration budget."""

    def __init__(self, **kwargs):
        # argparse's default width, read once here instead of on every add_argument
        width = shutil.get_terminal_size().columns - 2
        super().__init__(formatter_class=partial(argparse.HelpFormatter, width=width), **kwargs)

    def error(self, message):
        raise ProjNewtonError(message)


# name -> (help, add_arguments, handler), in the order top-level help lists them
_COMMANDS = {
    "rayleigh-gr": ("maximize tr(A P) over rank-m projectors",
                    partial(_add_common, need_m=True), _cmd_rayleigh_gr),
    "rayleigh-lg": ("optimize tr(H P) over Lagrangian projectors",
                    partial(_add_common, need_m=False), _cmd_rayleigh_lg),
    "invariant": ("compute an invariant subspace of a square matrix",
                  partial(_add_common, need_m=True, solver=True), _cmd_invariant),
}


def _add_command(parser, name):
    """Declare command ``name``'s arguments and handler on ``parser``."""
    _, add_arguments, handler = _COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=handler, command=name)
    return parser


def build_parser():
    """The parser with every command's subparser: for ``-h``, typos and an empty argv."""
    parser = _Parser(
        prog="projnewton",
        description="Newton iterations on Grassmann and Lagrange-Grassmann manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        name = argv[0] if argv else None
        if name in _COMMANDS:  # build_parser's subparser for this command, alone
            args = _add_command(_Parser(prog=f"projnewton {name}"), name).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except ProjNewtonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
