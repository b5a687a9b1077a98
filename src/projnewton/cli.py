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
emptied first, and the write is not atomic.  A process builds its one
parser tree on the first ``main`` call, and later calls reuse it.

A run stops once the gradient norm is at most ``--tol`` times ||A||_F
(||A||_F^2 for invariant): its status does not depend on the units of A.
The library's tests check matrix files at ``TOL.input_symmetry``, relative to
max|A| as the costs' own checks are, and a start basis at ``TOL.lagrangian``.

Exit codes: 0 converged, 1 input error, 2 not converged within the
iteration budget, 3 solver or degeneracy error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from functools import cache, partial

import numpy as np

from .config import TOL
from .costs import InvariantSubspaceCost, RayleighCost
# sym_eig stays bound: newtonbench/test_tracer.py checks that the tracer rebinds it here
from .decomp import binary_scaled, eigh_descending, qr_positive, require_symmetric, sym_eig  # noqa: F401
from .errors import InsufficientData, ProjNewtonError
from .grassmann import CHART_NAMES, _oriented_frame, random_projector
from .lagrange import lagrangian_residual, require_hamiltonian, symplectic_frame_from_basis
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
    except UnicodeDecodeError as exc:
        raise ProjNewtonError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows:
        raise ProjNewtonError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ProjNewtonError(f"{path}: rows have inconsistent lengths")
    mat = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ProjNewtonError(f"{path}: non-finite entries")
    return mat


def _frame_from_start_file(path, n, m, lagrangian=False):
    """The frame of the n x m start basis in ``path``, by positive QR; with
    ``lagrangian`` (n = 2m) a symplectic frame, of a basis that must span a
    Lagrangian subspace."""
    basis = load_matrix(path)
    if basis.shape != (n, m):
        raise ProjNewtonError(
            f"start basis must be {n}x{m} to match the problem, got {basis.shape}"
        )
    q, _ = qr_positive(basis)
    if not lagrangian:
        return _oriented_frame(q.T, m)
    u = q[:, :m]
    residual = lagrangian_residual(u)
    if residual > TOL.lagrangian:
        raise ProjNewtonError(f"start basis does not span a Lagrangian subspace: max|U^T J U| "
                              f"{residual:.3e} exceeds {TOL.lagrangian:.1e}")
    return symplectic_frame_from_basis(u)


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
    return [{"iter": rec.iteration, "cost": rec.cost, "grad_norm": rec.grad_norm,
             "step_norm": rec.step_norm, "distance": rec.distance} for rec in trace.records]


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


def _run_report(command, args, cost, start_frame, reference, extra_fn):
    try:
        config = NewtonConfig(mu=args.mu, nu=args.nu, max_iters=args.max_iters,
                              grad_tol=args.tol)
    except ValueError as exc:
        raise ProjNewtonError(str(exc)) from exc
    t0 = time.perf_counter()
    trace = run_newton(cost, start_frame, config, reference=reference)
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
    a, e = binary_scaled(load_matrix(args.matrix))
    cost = RayleighCost(np.ldexp(require_symmetric(a, "input matrix", TOL.input_symmetry), e))
    # the dominant eigenframe of the matrix the cost has checked symmetric
    natural = _oriented_frame(eigh_descending(cost.a)[1].T, args.m)
    base = _frame_from_start_file(args.start, a.shape[0], args.m) if args.start else None
    start = _select_start(args, base, natural)

    def extras(trace, final_projector):
        return {"distance_to_dominant": trace.records[-1].distance}

    return _run_report("rayleigh-gr", args, cost, start, natural, extras)


def _cmd_rayleigh_lg(args):
    h, e = binary_scaled(load_matrix(args.matrix))
    h = require_symmetric(h, "input matrix", TOL.input_symmetry)
    # J (H + J H J) J = J H J + H bit for bit: the projection needs no second check
    h = 0.5 * (h + require_hamiltonian(h, "input matrix", TOL.input_symmetry))
    cost, n = RayleighCost(np.ldexp(h, e)), h.shape[0] // 2
    natural = symplectic_frame_from_basis(eigh_descending(cost.a)[1][:, :n])
    base = _frame_from_start_file(args.start, 2 * n, n, lagrangian=True) if args.start else None
    start = _select_start(args, base, natural)

    def extras(trace, final_projector):
        sympl = trace.extras.get("symplecticity_residuals", [])
        return {
            "symplecticity_residuals": sympl,
            "max_symplecticity_residual": max(sympl) if sympl else None,
            "lagrangian_residual": lagrangian_residual(final_projector.mat),
        }

    return _run_report("rayleigh-lg", args, cost, start, natural, extras)


def _cmd_invariant(args):
    cost = InvariantSubspaceCost(load_matrix(args.matrix))
    n = cost.a.shape[0]
    base = _frame_from_start_file(args.start, n, args.m) if args.start else None
    start = _select_start(args, base, None)
    if start is None:
        start = random_projector(n, args.m, args.seed)[1]

    def extras(trace, final_projector):
        # the invariance residual ||(I - P) A P|| = ||B21|| is the root of the cost
        residuals = [float(np.sqrt(r.cost)) for r in trace.records]
        return {"invariance_residual": residuals[-1], "invariance_history": residuals}

    return _run_report("invariant", args, cost, start, None, extras)


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


def _add_common(parser, need_m):
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


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the input-error exit code (1), not argparse's 2,
    which this tool reserves for runs that exhaust the iteration budget.
    Options must be spelled in full: an abbreviation is an unrecognized argument."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ProjNewtonError(message)


# name -> (help, add_arguments, handler), in the order top-level help lists them
_COMMANDS = {
    "rayleigh-gr": ("maximize tr(A P) over rank-m projectors",
                    partial(_add_common, need_m=True), _cmd_rayleigh_gr),
    "rayleigh-lg": ("optimize tr(H P) over Lagrangian projectors",
                    partial(_add_common, need_m=False), _cmd_rayleigh_lg),
    "invariant": ("compute an invariant subspace of a square matrix",
                  partial(_add_common, need_m=True), _cmd_invariant),
}


@cache
def _parser_tree():
    """The process's one parser tree, built on first use, and its subparsers by name."""
    parser = _Parser(
        prog="projnewton",
        description="Newton iterations on Grassmann and Lagrange-Grassmann manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        command.set_defaults(command=name)  # parsed alone, it names its command
    return parser, sub.choices


def build_parser():
    """The parser with every command's subparser, one per process."""
    return _parser_tree()[0]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser, subparsers = _parser_tree()
        if argv and argv[0] in subparsers:
            args = subparsers[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except ProjNewtonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
