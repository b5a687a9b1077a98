"""The public surface of the runtime library: every exported name resolves
and is read by the library or kept as an entry for a stated reason, the
projector-coordinate references and the tests' builders live in
``tests/oracles.py`` and not in the library, no module imports a name it never
reads, and every tolerance the library declares is read by it."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import projnewton
from projnewton.config import TOL, Tolerances
from projnewton.newton import METHODS

SRC = pathlib.Path(projnewton.__file__).parent
ROOT = SRC.parents[1]
MODULES = sorted(f"projnewton.{info.name}" for info in pkgutil.iter_modules([str(SRC)]))

# moved to tests/oracles.py, or deleted as wrappers of a call the tests make
# directly (push_frame(frame, z, chart).projector(), np.linalg.cholesky), or
# of one float (SpectralGapReport: SpectralOverlap carries min_gap); the
# alternating-Sylvester four-term solver, as the dense solve is certified by
# its own bound; the CLI's own input checks and their error classes, as it
# calls the library's (decomp.require_symmetric, lagrange.require_hamiltonian);
# the checked solver entries beside the Newton loop's solvers, whose callers
# check their blocks, and the helpers only those entries needed; the costs'
# own overflow test of their scale, folded into the one helper that puts A in
# units of a power of two; the tests' builders and references that no run, CLI
# call or benchmark reached (frame_from_projector, random_lag_projector,
# commutator, ad_squared and the fresh copy sympl_form of J moved to the
# oracles; lag_frame_from_projector deleted), and the CLI's one-line wrapper
# of its parser tree; the Lyapunov solver and the kernel it shared, as the
# Lyapunov equation is the Sylvester one at A22 = -A11 (solve_sylvester)
GONE = """
    tangent_project tangent_from_param param_from_tangent geodesic distance
    distance_via_cosines distance_via_sines cayley_transform chart_point
    chart_second_derivative_check lg_tangent_project lg_tangent_from_param
    lg_param_from_tangent lg_chart_point riemannian_gradient_gr
    riemannian_gradient_lg riemannian_hessian_apply_gr riemannian_hessian_apply_lg
    cholesky_upper NotPositiveDefinite SpectralGapReport solve_invariant_newton_recursive
    InputNotSymmetric InputNotHamiltonianSymmetric _require_square _require_symmetric_input
    _require_hamiltonian_input solve_invariant_newton_direct solve_sylvester_unchecked
    solve_lyapunov_unchecked solve_invariant_newton_unchecked _four_term_blocks
    _certify_operator _lu_solve _finite_scale frame_from_projector random_lag_projector
    commutator ad_squared sympl_form lag_frame_from_projector build_parser
    solve_lyapunov _spectral_solve
""".split()

# names in a module's __all__ that no other code in src/ reads, each kept as
# an entry for the reason given; every other exported name is read by the library
ENTRIES = {
    "HamiltonianRayleighCost": "the paper's Algorithm 2 cost on a symmetric Hamiltonian H, a user entry",
    "GrTangent": "the benchmark's tracer wraps its __post_init__, until ROADMAP item 1b",
}

# members of the classes in src/ (methods, properties, class attributes and
# dataclass fields, dunders aside) that no code in src/ loads as an attribute,
# each kept for the reason given; a field only written when its object is built
# is not read
MEMBER_ENTRIES = {
    "HamiltonianRayleighCost.h": "the entry's own name for H, a user entry",
    "HamiltonianRayleighCost.from_blocks": "the entry's own constructor from S and T, a user entry",
    "LagProjector.as_projector": "read by the benchmark (BENCHMARK_READS)",
    "_Parser.error": "argparse calls it on a bad argument list",
    "IterationRecord.elapsed": "a record's wall time, the timing of ROADMAP item 7",
    "QuadraticRateEstimate.usable": "the error tail the rate estimate fitted, with its ratios and slope",
}

# what the library keeps because newtonbench/ reads it: the file and the text
# of the line that reads it (line numbers as of this writing); once the
# benchmark stops reading a name (ROADMAP item 1b) its case fails, and the
# name can go (item 13)
BENCHMARK_READS = {
    "GrTangent": ("tracer.py", "cls = projnewton.grassmann.GrTangent"),  # :92
    "METHODS, run_newton(method=)": ("workloads.py", "method=inst.method)"),  # :223
    "NewtonConfig.mu": ("workloads.py", "config = newton.NewtonConfig(mu=mu, nu=nu)"),  # :135
    "LagProjector.as_projector": ("workloads.py", "final.as_projector().mat if inst.lagrangian"),  # :225
    "cli.sym_eig": ("test_tracer.py", 'tr.originals[sys.modules["projnewton.cli"].sym_eig]'),  # :47
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_every_package_import_resolves():
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(projnewton, name)] == []


def _exported():
    """{name: module file} over the ``__all__`` lists of the modules in src/."""
    exported = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                exported.update(dict.fromkeys(ast.literal_eval(node.value), path.name))
    return exported


def _library_reads():
    """Every name the modules of src/ read, import or look up as an attribute;
    the package's re-exports in ``__init__.py`` are not reads."""
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_every_exported_name_is_read_or_an_entry():
    # the library keeps only what a run, the CLI or the benchmark reaches
    read = _library_reads()
    unread = {name: path for name, path in _exported().items() if name not in read}
    assert unread.keys() == ENTRIES.keys(), unread


def _class_members():
    """{"Class.member": module file} over the top-level classes of src/: methods,
    properties, class attributes and dataclass fields, dunders aside."""
    members = {}
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                elif isinstance(node, ast.Assign):
                    names = [target.id for target in node.targets if isinstance(target, ast.Name)]
                else:
                    continue
                members.update({f"{cls.name}.{name}": path.name for name in names
                                if not (name.startswith("__") and name.endswith("__"))})
    return members


def _attribute_loads():
    """Every attribute name the modules of src/ load, but those of np and math."""
    return {node.attr for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in ("np", "math"))}


def test_every_class_member_is_read_or_an_entry():
    # a method or field that only tests read is not kept: the tests use the
    # frame's rows, np.linalg.norm or the records themselves
    read = _attribute_loads()
    unread = {name: path for name, path in _class_members().items() if name.split(".")[1] not in read}
    assert unread.keys() == MEMBER_ENTRIES.keys(), unread


@pytest.mark.parametrize("name", list(BENCHMARK_READS))
def test_benchmark_bound_names_are_still_read_by_the_benchmark(name):
    path, line = BENCHMARK_READS[name]
    assert line in (ROOT / "newtonbench" / path).read_text(), (name, path)
    survivors = {
        "GrTangent": "__post_init__" in vars(projnewton.GrTangent),
        "METHODS, run_newton(method=)": "method" in inspect.signature(projnewton.run_newton).parameters
        and bool(METHODS),
        "NewtonConfig.mu": "mu" in {f.name for f in dataclasses.fields(projnewton.NewtonConfig)},
        "LagProjector.as_projector": hasattr(projnewton.LagProjector, "as_projector"),
        "cli.sym_eig": projnewton.cli.sym_eig is projnewton.decomp.sym_eig,
    }
    assert survivors[name]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_reads(path):
    # __init__.py re-exports, and cli keeps sym_eig bound for the tracer's pin
    tree = ast.parse((SRC / path).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exempt = {"sym_eig"} if path == "cli.py" else set()
    assert imported - read == exempt


def test_the_readme_library_example_runs(capsys):
    # the documented way from a matrix to a start frame: sym_eig and OrthoFrame
    section = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "Converged True\n"


@pytest.mark.parametrize("name", ["projnewton"] + MODULES)
def test_moved_and_deleted_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in GONE if hasattr(module, attr)] == []


def test_deleted_attributes_are_gone():
    assert not hasattr(projnewton.LagProjector, "half_dim")
    assert not hasattr(TOL, "fd_step_second")
    # test-only projector helpers and the CLI's parser wrapper are gone
    assert not {"from_matrix", "basis"} & set(vars(projnewton.Projector))
    # methods only tests read: frame rows, np.linalg.norm and the records serve them
    assert "basis" not in vars(projnewton.OrthoFrame)
    assert "norm" not in vars(projnewton.GrTangent)
    assert "grad_norms" not in vars(projnewton.NewtonTrace)
    assert not hasattr(projnewton.LagProjector, "from_matrix")
    assert not hasattr(projnewton.cli, "build_parser")
    assert "frame_reconstruction" not in {f.name for f in dataclasses.fields(Tolerances)}
    assert "param" not in {f.name for f in dataclasses.fields(projnewton.newton.StepInfo)}
    assert not hasattr(projnewton.errors.SpectralOverlap("overlap", 0.0), "report")
    # the step test reads the constant TOL.step_tol, not a config field
    assert "step_tol" not in {f.name for f in dataclasses.fields(projnewton.NewtonConfig)}
    # the Hamiltonian cost only checks its structure: RayleighCost solves and bounds
    assert not {"newton_solve", "separation_bound"} & set(vars(projnewton.HamiltonianRayleighCost))
    # Algorithm 3 is certified by a Cholesky factorization, not by a bound
    assert "separation_bound" not in vars(projnewton.InvariantSubspaceCost)
    assert not hasattr(projnewton.solvers, "_operator_and_scratch")
    assert "scratch" not in inspect.signature(projnewton.solvers._checked_inverse).parameters
    # one four-term solver: no sweep limits, no sweep residual, nothing to choose
    assert not {"recursive_tol", "recursive_max_sweeps"} & {f.name for f in dataclasses.fields(Tolerances)}
    assert not hasattr(projnewton.errors.NoConvergence("stalled"), "residual")
    solves = [projnewton.newton_step, projnewton.run_newton] + [
        cls.newton_solve for cls in (projnewton.CostFunction, projnewton.RayleighCost,
                                     projnewton.InvariantSubspaceCost)]
    assert [f for f in solves if "solver" in inspect.signature(f).parameters] == []
    # one state passes between a cost's calls: no B or separation beside it
    assert "separation" not in {f.name for f in dataclasses.fields(projnewton.newton.StepInfo)}
    assert [f for f in solves[:1] + solves[2:] if "b" in inspect.signature(f).parameters] == []


def test_one_solver_per_matrix_equation():
    # the Newton loop's solvers are the only ones: no unchecked twin beside a
    # checked entry, and the package exports none of them
    tree = ast.parse((SRC / "solvers.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [name for name in defined if name.endswith("_unchecked")] == []
    assert {name for name in defined if name.startswith("solve_")} == {
        "solve_sylvester", "solve_invariant_newton", "solve_dense"}
    assert [name for name in dir(projnewton) if name.startswith("solve_")] == []
    assert not {"solvers", ".solvers"} & {node.module for node in ast.walk(
        ast.parse((SRC / "__init__.py").read_text())) if isinstance(node, ast.ImportFrom)}


def test_run_newton_accepts_every_method_name():
    # the benchmark passes each of METHODS; the name selects no solver, so the
    # two invariant names run the same solves, bit for bit
    a = np.random.default_rng(4).standard_normal((6, 6))
    a[2:, :2] *= 1e-2
    start = projnewton.newton.perturb_frame(projnewton.OrthoFrame(np.eye(6), 2), 0.05, 4)
    traces = {method: projnewton.run_newton(projnewton.InvariantSubspaceCost(a), start,
                                            projnewton.NewtonConfig(), method=method)
              for method in METHODS}
    direct, recursive = traces["invariant-direct"], traces["invariant-recursive"]
    assert direct.status == projnewton.Status.CONVERGED
    assert [dataclasses.replace(r, elapsed=0.0) for r in direct.records] == \
        [dataclasses.replace(r, elapsed=0.0) for r in recursive.records]
    assert direct.extras["certified_by"] == recursive.extras["certified_by"] == "cholesky"
    assert np.array_equal(direct.extras["final_frame"].theta, recursive.extras["final_frame"].theta)
    with pytest.raises(ValueError, match="unknown method"):
        projnewton.run_newton(projnewton.InvariantSubspaceCost(a), start, projnewton.NewtonConfig(),
                              method="invariant")


def test_library_imports_nothing_from_the_tests():
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert not {"oracles", "conftest", "tests"} & set(roots), (path.name, roots)


def test_the_separation_floor_is_written_once():
    # the Newton solves and the costs' separation bounds read one floor,
    # solvers.separation_floor; no floor elsewhere takes TOL.spectral_gap
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if re.search(r"\bTOL\.spectral_gap\b", path.read_text())]
    assert readers == ["solvers.py"]
    assert not re.search(r"\bTOL\.pivot\b", (SRC / "costs.py").read_text())


def test_j_and_the_input_tolerance_have_one_home_each():
    # lagrange alone builds J and holds the structure tests; the CLI alone
    # reads the looser tolerance of its files, and hands it to the library's checks
    forms_j = [path.name for path in sorted(SRC.glob("*.py"))
                if re.search(r"\b_sympl_form\(", path.read_text())]
    assert forms_j == ["lagrange.py"]
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if re.search(r"\bTOL\.input_symmetry\b", path.read_text())]
    assert readers == ["cli.py"]
    assert {"InputNotSymmetric", "InputNotHamiltonianSymmetric", "_require_square",
            "_require_symmetric_input", "_require_hamiltonian_input"} <= set(GONE)


def _functions_where(path, found):
    """Names of the functions in ``path`` whose body has a node for which ``found`` holds."""
    tree = ast.parse(path.read_text())
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and any(found(inner) for inner in ast.walk(node))}


def test_the_engine_names_no_concrete_cost():
    # each cost certifies its own critical point: run_newton makes one
    # certify call, reads no bound, and imports the base interface alone
    tree = ast.parse((SRC / "newton.py").read_text())
    from_costs = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and node.module == "costs" for alias in node.names}
    assert from_costs == {"CostFunction"}
    run = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "run_newton")
    attributes = [node.attr for node in ast.walk(run) if isinstance(node, ast.Attribute)]
    assert attributes.count("certify") == 1 and "separation_bound" not in attributes
    assert not hasattr(projnewton.CostFunction, "separation_bound")
    for cls in (projnewton.CostFunction, projnewton.RayleighCost, projnewton.InvariantSubspaceCost):
        assert list(inspect.signature(cls.certify).parameters) == ["self", "frame", "state", "last"]


def _functions(path):
    """{"Class.method" or "function": its node} over the top-level functions
    and the methods of the top-level classes of ``path``."""
    found = {}
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.FunctionDef):
            found[top.name] = top
        elif isinstance(top, ast.ClassDef):
            found.update({f"{top.name}.{node.name}": node for node in top.body
                          if isinstance(node, ast.FunctionDef)})
    return found


def _calls_in(path):
    """{"Class.method" or "function": [the source text of each callee]} of ``path``."""
    return {name: [ast.unparse(node.func) for node in ast.walk(func) if isinstance(node, ast.Call)]
            for name, func in _functions(path).items()}


def test_the_trace_cost_symmetrizes_b_where_it_forms_it():
    # RayleighCost.frame_terms forms B exactly symmetric, and on a symplectic
    # frame its Hamiltonian part (B + J B J) / 2, exactly symmetric with no
    # symmetrize; the solve and separation_bound read the blocks of B as given
    tree = ast.parse((SRC / "costs.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "RayleighCost")
    symmetrized = {method.name: [ast.unparse(node.args[0]) for node in ast.walk(method)
                                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "symmetrize"]
                   for method in cls.body if isinstance(method, ast.FunctionDef)}
    assert {name: args for name, args in symmetrized.items() if args} == {
        "frame_terms": ["frame.theta @ self.a_n @ frame.theta.T"],
    }
    assert "symmetrize" not in _calls_in(SRC / "lagrange.py")["hamiltonian_part"]


def test_algorithm_2_is_algorithm_1_on_the_hamiltonian_part():
    # one Newton solve for the trace cost on both manifolds: newton_solve names
    # no frame class and calls the Sylvester solver alone; the manifold enters
    # once, where frame_terms takes B's Hamiltonian part
    solve = _functions(SRC / "costs.py")["RayleighCost.newton_solve"]
    assert not {node.id for node in ast.walk(solve) if isinstance(node, ast.Name)} & {
        "isinstance", "SymplecticFrame"}
    assert _calls_in(SRC / "costs.py")["RayleighCost.newton_solve"] == ["solve_sylvester"]
    callers = {(path.name, name) for path in sorted(SRC.glob("*.py"))
               for name, calls in _calls_in(path).items() if "hamiltonian_part" in calls}
    assert callers == {("costs.py", "RayleighCost.frame_terms")}
    # on a symplectic frame the state's B22 is -B11 and B12 symmetric, bit for bit,
    # for a symmetric A that is not Hamiltonian too
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6))
    theta, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    frame = projnewton.SymplecticFrame(np.block([[theta.real, -theta.imag], [theta.imag, theta.real]]).T)
    _, grad, (b,) = projnewton.RayleighCost(x + x.T).frame_terms(frame)
    assert np.array_equal(b[3:, 3:], -b[:3, :3]) and np.array_equal(b[:3, 3:], b[:3, 3:].T)
    assert np.array_equal(b, b.T) and np.array_equal(grad, b[:3, 3:])


def test_units_have_one_home():
    # A is scaled by a power of two (ldexp by a negated exponent) in one
    # function, which the costs' one helper and the CLI's file checks call;
    # that helper alone stores a cost's A_n, scale and units, and run_newton
    # reads the scale and units of the cost it is given and names no cost
    sources = sorted(SRC.glob("*.py"))
    scales_down = {name for path in sources for name in _functions_where(
        path, lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ldexp")
        and isinstance(node.args[1], ast.UnaryOp) and isinstance(node.args[1].op, ast.USub))}
    assert scales_down == {"binary_scaled"}
    callers = {(path.name, name) for path in sources for name in _functions_where(
        path, lambda node: isinstance(node, ast.Name) and node.id == "binary_scaled")}
    assert callers == {("costs.py", "_store_units"), ("cli.py", "_cmd_rayleigh_gr"),
                       ("cli.py", "_cmd_rayleigh_lg")}
    stores = {name for path in sources for name in _functions_where(
        path, lambda node: isinstance(node, (ast.keyword, ast.Constant))
        and getattr(node, "arg", getattr(node, "value", None)) in ("a_n", "scale", "units"))}
    assert stores == {"_store_units"}
    tree = ast.parse((SRC / "newton.py").read_text())
    run = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "run_newton")
    read = {node.attr for node in ast.walk(run) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cost"}
    assert read == {"frame_terms", "certify", "scale", "units"}
    names = {node.id for node in ast.walk(run) if isinstance(node, ast.Name)}
    assert not names & {"RayleighCost", "InvariantSubspaceCost", "HamiltonianRayleighCost"}


def test_one_singularity_floor_for_dense_operators():
    # the four-term certificate's singularity test is _checked_inverse's,
    # against at least the data scale; no condition ceiling sits beside it.
    # four_term_floor, which the Cholesky certificate holds the operator
    # above, lies above it.  The four-term solver raises only where LAPACK's
    # LU finds the operator exactly singular, and only _checked_inverse inverts
    assert "condition_limit" not in {f.name for f in dataclasses.fields(Tolerances)}
    reads_pivot = {name for path in sorted(SRC.glob("*.py")) for name in _functions_where(
        path, lambda node: isinstance(node, ast.Attribute) and node.attr == "pivot"
        and isinstance(node.value, ast.Name) and node.value.id == "TOL")}
    assert reads_pivot == {"_checked_inverse", "qr_positive", "four_term_floor"}
    raises_singular = _functions_where(SRC / "solvers.py", lambda node: isinstance(node, ast.Raise)
                                       and "SingularOperator" in ast.unparse(node.exc))
    assert raises_singular == {"_checked_inverse", "solve_invariant_newton"}
    inverts = {name for path in sorted(SRC.glob("*.py")) for name in _functions_where(
        path, lambda node: isinstance(node, ast.Attribute) and node.attr == "inv")}
    assert inverts == {"_checked_inverse"}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
def test_every_tolerance_is_read(field):
    source = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert re.search(rf"\bTOL\.{field}\b", source), f"no TOL.{field} under src/projnewton"
