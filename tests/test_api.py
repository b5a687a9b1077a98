"""The public surface of the runtime library: every exported name resolves,
the projector-coordinate references live in ``tests/oracles.py`` and not in
the library, and every tolerance the library declares is read by it."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil
import re

import pytest

import projnewton
from projnewton.config import TOL, Tolerances

SRC = pathlib.Path(projnewton.__file__).parent
MODULES = sorted(f"projnewton.{info.name}" for info in pkgutil.iter_modules([str(SRC)]))

# moved to tests/oracles.py, or deleted as wrappers of a call the tests make
# directly (push_frame(frame, z, chart).projector(), np.linalg.cholesky)
GONE = """
    tangent_project tangent_from_param param_from_tangent geodesic distance
    distance_via_cosines distance_via_sines cayley_transform chart_point
    chart_second_derivative_check lg_tangent_project lg_tangent_from_param
    lg_param_from_tangent lg_chart_point riemannian_gradient_gr
    riemannian_gradient_lg riemannian_hessian_apply_gr riemannian_hessian_apply_lg
    cholesky_upper NotPositiveDefinite
""".split()


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


@pytest.mark.parametrize("name", ["projnewton"] + MODULES)
def test_moved_and_deleted_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in GONE if hasattr(module, attr)] == []


def test_deleted_attributes_are_gone():
    assert not hasattr(projnewton.LagProjector, "half_dim")
    assert not hasattr(TOL, "fd_step_second")
    assert "solvable" not in {f.name for f in dataclasses.fields(projnewton.SpectralGapReport)}


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


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
def test_every_tolerance_is_read(field):
    source = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert re.search(rf"\bTOL\.{field}\b", source), f"no TOL.{field} under src/projnewton"
