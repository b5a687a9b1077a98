"""Newton-run benchmark for projnewton.

    python3 newtonbench/run.py --workload {eigspace,invariant,generic} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/``
beside this directory and nowhere else.  Each solve of the workload's
grid is timed on its own and rescaled by the host-speed probe run right
before, during and after it (see ``probe.py``); a solve's time is the
median over the repetitions that fit in ``--seconds``, and ``grid_s`` is
the sum of those medians.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` every solve alternates an untraced and a traced repetition
and the JSON carries the per-layer metrics.  A JSON run record with every
sample, the probe evidence, the environment and the ledger is written
under ``.newtonbench/runs/``.
"""

import os
import sys
import time

T_START = time.perf_counter()
# single-threaded BLAS, pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# the library is imported from src/ beside the benchmark and nowhere else
if not os.path.isfile(os.path.join(SRC, "projnewton", "__init__.py")):
    raise SystemExit(f"error: no projnewton sources in {SRC}")
sys.path.insert(0, SRC)
import numpy as np  # noqa: E402

import projnewton  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(projnewton.__file__))) != SRC:
    raise SystemExit(f"error: projnewton resolved to {projnewton.__file__}, not under {SRC}")

import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(ROOT, ".newtonbench")
WORKLOADS = ("eigspace", "invariant", "generic")
SETUP_PROCESSES = 9
STEP_FUNCTIONS = ("algorithm1_step", "algorithm2_step", "algorithm3_step", "newton_step_generic")
LAYERS = ("decomp", "solvers", "grassmann", "lagrange", "costs", "newton", "cli")
# per-layer metric -> (end-to-end metric, workloads) it should move
LAYER_MOVES = {
    "decomp.*": ("grid_s", "eigspace most (item 2); invariant and generic through distance"),
    "solvers.solve_sylvester.*, solvers.solve_lyapunov.*": ("grid_s", "eigspace"),
    "solvers.solve_invariant_newton_*.*, solvers.solve_dense.*, solvers.sweeps":
        ("grid_s", "invariant (items 2 and 5); eigspace must not move"),
    "grassmann.distance.*": ("grid_s", "eigspace and invariant"),
    "grassmann.chart_factor.*, grassmann.tangent_from_param.*, grassmann.param_from_tangent.*, "
    "grassmann.GrTangent.calls": ("grid_s", "generic (item 3)"),
    "lagrange.*": ("grid_s", "eigspace only"),
    "costs.riemannian_hessian_apply_gr.*": ("grid_s", "generic"),
    "costs.riemannian_gradient_*": ("grid_s", "all three"),
    "newton.step.self_s, newton.run_newton.self_s": ("grid_s", "all three (item 3)"),
    "newton.iterations": ("newton_iters, passed_frac", "eigspace (item 4)"),
    "cli.*": ("grid_s", "eigspace only"),
}
SPAN_METRICS = [
    ("decomp.sym_eig", ("calls", "self_s")),
    ("decomp.qr_positive", ("calls", "self_s")),
    ("decomp.cholesky_upper", ("calls", "self_s")),
    ("decomp.exp_skew_pair", ("calls", "self_s")),
    ("solvers.solve_sylvester", ("calls", "self_s")),
    ("solvers.solve_lyapunov", ("calls", "self_s")),
    ("solvers.solve_invariant_newton_direct", ("calls", "self_s")),
    ("solvers.solve_invariant_newton_recursive", ("calls", "self_s")),
    ("solvers.solve_dense", ("calls", "self_s")),
    ("grassmann.distance", ("calls", "total_s")),
    ("grassmann.chart_factor", ("calls", "self_s")),
    ("grassmann.tangent_from_param", ("calls", "self_s")),
    ("grassmann.param_from_tangent", ("calls", "self_s")),
    ("grassmann.GrTangent", ("calls",)),
    ("lagrange.lg_chart_factor", ("calls", "self_s")),
    ("lagrange.symplectic_frame_from_basis", ("calls", "self_s")),
    ("lagrange.lag_frame_from_projector", ("calls", "self_s")),
    ("costs.riemannian_gradient_gr", ("calls", "self_s")),
    ("costs.riemannian_gradient_lg", ("calls", "self_s")),
    ("costs.riemannian_hessian_apply_gr", ("calls", "self_s")),
    ("newton.run_newton", ("self_s",)),
    ("cli.load_matrix", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
]


def _spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _tail(values):
    """p90 and p99 with the sample count behind them.

    A solve repeats only a few to a few tens of times in a run, too few for
    ten samples beyond p90, so these go to the run record, not the metrics.
    """
    if len(values) < 2:
        return {"samples": len(values)}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {"samples": len(values), "p90": cuts[89], "p99": cuts[98]}


def _environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # a benchmark checkout need not be a git repository; the source digest
    # below identifies the code measured either way
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.dirname(projnewton.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "projnewton": projnewton.__file__,
    }


def _setup_child(args):
    """Fresh-process set-up: the imports above, then building the inputs.

    Prints the set-up seconds, then the host-speed probe run three times in
    this process right after; the parent's probes around a process exit
    read up to 3x slow, so they are not used.
    """
    workloads.build_grid(args.workload, args.seed, args.setup_child)
    elapsed = time.perf_counter() - T_START
    print(json.dumps([elapsed, [probe.probe() for _ in range(3)]]))


def _measure_setup(args, workdir):
    samples = []
    for i in range(SETUP_PROCESSES):
        child_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(child_dir)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-child", child_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        raw, probes = json.loads(done.stdout.strip().splitlines()[-1])
        f = probe.REFERENCE_PROBE_S / statistics.median(probes)
        samples.append({"raw_s": raw, "probe_s": probes, "factor": f, "norm_s": raw * f})
    return samples


class Run:
    """One measured run of a workload: samples, ledger and checks."""

    def __init__(self, args, grid):
        self.args = args
        self.grid = grid
        self.tracer = tracer.Tracer()
        self.sampler = probe.Sampler()
        self.ledger = {}
        self.samples = {inst.id: [] for inst in grid}
        self.traced = {inst.id: [] for inst in grid}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _outcome(self, inst, status, iters, p):
        """Check one solve and hold it to the ledger entry of the instance."""
        self.attempted += 1
        broken = workloads.check_answer(inst, status, p)
        entry = (status, iters, tuple(broken))
        if broken:
            self.problems.append(f"{inst.id}: wrong answer, broken checks {broken}")
        if broken or (status != "Converged" and not inst.known_defect):
            self.failed += 1
        if self.ledger.setdefault(inst.id, entry) != entry:
            self.problems.append(f"{inst.id}: {entry} differs from {self.ledger[inst.id]}")

    def _timed(self, inst):
        (status, iters, p), sample = self.sampler.time(workloads.solve, inst)
        self._outcome(inst, status, iters, p)
        return sample

    def _traced_rep(self, inst):
        tr = self.tracer
        sampler = probe.Sampler(lambda: tr.call(tracer.PROBE, probe.probe))
        tr.reset()
        tr.install()
        try:
            (status, iters, p), sample = sampler.time(tr.call, tracer.ROOT, workloads.solve, inst)
        finally:
            tr.uninstall()
        self._outcome(inst, status, iters, p)
        f = sample["factor"]
        sample["spans"] = {name: [tr.calls[name], tr.total[name] * f, tr.self_time[name] * f]
                           for name in tr.calls if name != tracer.PROBE}
        sample["edges"] = {f"{a}>{b}": n for (a, b), n in tr.edges.items()}
        self.traced[inst.id].append(sample)

    def warm_up(self):
        """One untimed solve, so first-call costs stay out of the samples."""
        self._outcome(self.grid[0], *workloads.solve(self.grid[0]))

    def measure(self):
        """Round-robin passes over the grid until the deadline."""
        passes = []
        deadline = time.perf_counter() + self.args.seconds
        while True:
            pass_samples = []
            for inst in self.grid:
                if passes and time.perf_counter() >= deadline:
                    return passes
                if self.args.trace:
                    order = (False, True) if len(passes) % 2 == 0 else (True, False)
                    for traced in order:
                        if traced:
                            self._traced_rep(inst)
                        else:
                            sample = self._timed(inst)
                            self.samples[inst.id].append(sample)
                            pass_samples.append(sample)
                else:
                    sample = self._timed(inst)
                    self.samples[inst.id].append(sample)
                    pass_samples.append(sample)
            passes.append({"raw_s": sum(s["raw_s"] for s in pass_samples),
                           "norm_s": sum(s["norm_s"] for s in pass_samples)})
            if time.perf_counter() >= deadline:
                return passes

    def ledger_text(self):
        lines = [f"{inst.id} {self.ledger[inst.id][0]} {self.ledger[inst.id][1]}"
                 for inst in self.grid]
        return "\n".join(lines) + "\n"


def _per_layer(run, grid_untraced):
    """Per-layer metrics: per-solve medians over traced repetitions, summed."""
    def per_solve(extract):
        return sum(statistics.median([extract(s) for s in run.traced[inst.id]]) for inst in run.grid)

    def span(s, name, idx):
        return s["spans"].get(name, (0, 0.0, 0.0))[idx]

    metrics = {}
    for name, kinds in SPAN_METRICS:
        for kind in kinds:
            idx = {"calls": 0, "total_s": 1, "self_s": 2}[kind]
            unit = "count" if kind == "calls" else "s"
            metrics[f"{name}.{kind}"] = (per_solve(lambda s: span(s, name, idx)), unit)
    metrics["solvers.sweeps"] = (per_solve(
        lambda s: s["edges"].get("solvers.solve_invariant_newton_recursive>solvers.solve_dense", 0)
        / 2), "count")
    metrics["newton.step.self_s"] = (per_solve(
        lambda s: sum(span(s, f"newton.{fn}", 2) for fn in STEP_FUNCTIONS)), "s")
    metrics["newton.iterations"] = (sum(run.ledger[inst.id][1] for inst in run.grid), "count")
    traced_grid = per_solve(lambda s: sum(v[2] for v in s["spans"].values()))
    for layer in LAYERS:
        layer_self = per_solve(lambda s: sum(v[2] for k, v in s["spans"].items()
                                             if k.startswith(layer + ".")))
        metrics[f"layer.{layer}.self_s"] = (layer_self, "s")
        metrics[f"layer.{layer}.share"] = (layer_self / traced_grid, "fraction")
    metrics["trace.overhead"] = (traced_grid / grid_untraced, "ratio")
    return metrics


def _check_ledger(run, ledger, src_sha256):
    """Hold the ledger to the one an earlier run of the same workload, seed
    and library source wrote (traced or not), or write it."""
    os.makedirs(os.path.join(OUT, "ledger"), exist_ok=True)
    path = os.path.join(OUT, "ledger",
                        f"{run.args.workload}-seed{run.args.seed}-{src_sha256[:16]}.txt")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            if handle.read() != ledger:
                run.problems.append(f"ledger differs from the earlier run's {path}")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(ledger)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return _setup_child(args)

    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT, "work"))
    try:
        setup = _measure_setup(args, workdir)
        grid = workloads.build_grid(args.workload, args.seed, workdir)
        run = Run(args, grid)
        run.warm_up()
        gc.collect()
        passes = run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = run.ledger_text()
    environment = _environment()
    _check_ledger(run, ledger, environment["src_sha256"])

    per_solve = {}
    for inst in grid:
        norm = [s["norm_s"] for s in run.samples[inst.id]]
        raw = [s["raw_s"] for s in run.samples[inst.id]]
        status, iters, broken = run.ledger[inst.id]
        per_solve[inst.id] = {
            "status": status, "iterations": iters, "broken_checks": list(broken),
            "known_defect": inst.known_defect, "reps": len(norm),
            "median_norm_s": statistics.median(norm), "median_raw_s": statistics.median(raw),
            "tail_norm_s": _tail(norm), "samples": run.samples[inst.id],
        }
    grid_s = sum(v["median_norm_s"] for v in per_solve.values())
    grid_raw_s = sum(v["median_raw_s"] for v in per_solve.values())
    not_passed = sum(1 for v in per_solve.values()
                       if v["status"] != "Converged" or v["broken_checks"])
    end_to_end = {
        "grid_s": (grid_s, "s"),
        "setup_s": (statistics.median([s["norm_s"] for s in setup]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "passed_frac": (1.0 - not_passed / len(grid), "fraction"),
        "newton_iters": (sum(v["iterations"] for v in per_solve.values()), "count"),
    }
    metrics = _per_layer(run, grid_s) if args.trace else end_to_end
    correct = not run.problems

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment,
        "reference_probe_s": probe.REFERENCE_PROBE_S,
        "grid_raw_s": grid_raw_s,
        "failed_frac": not_passed / len(grid),
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "per_layer": {k: v[0] for k, v in metrics.items()} if args.trace else None,
        "layer_moves": LAYER_MOVES,
        "passes": passes,
        "pass_spread": {"raw": _spread([p["raw_s"] for p in passes]),
                        "norm": _spread([p["norm_s"] for p in passes])},
        "setup_samples": setup,
        "solves": per_solve,
        "traced": run.traced if args.trace else None,
        "ledger": ledger,
        "ledger_sha256": hashlib.sha256(ledger.encode()).hexdigest(),
        "problems": run.problems,
    }
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = os.path.join(OUT, "runs", f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, probe reference {probe.REFERENCE_PROBE_S * 1e3:g} ms")
    for iid, v in per_solve.items():
        p90 = v["tail_norm_s"].get("p90", v["median_norm_s"])
        print(f"  {iid:20s} {v['status']:9s} {v['iterations']:2d} it  "
              f"median {v['median_norm_s'] * 1e3:7.1f} ms (raw {v['median_raw_s'] * 1e3:7.1f})  "
              f"p90 {p90 * 1e3:7.1f} ms  n={v['reps']}"
              + (f"  [known defect: {v['known_defect']}]" if v["known_defect"] else ""))
    spread = record["pass_spread"]
    if spread["raw"] is not None:
        print(f"  per-pass grid time spread (IQR/median): raw {spread['raw']:.3f}, "
              f"normalized {spread['norm']:.3f}")
    print(f"  grid_s {grid_s:.6f} (raw {grid_raw_s:.6f}), failed_frac {record['failed_frac']:.4f}")
    print(f"  ledger sha256 {record['ledger_sha256']}")
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    print(f"  record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
