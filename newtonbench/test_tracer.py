"""Tests of the benchmark's tracer.

    python3 -m pytest newtonbench/test_tracer.py

Once installed, no ``projnewton`` module may keep a reference to an
unwrapped public function, and a traced solve's self times must add up to
its traced duration.  Uninstalling restores every binding.
"""

import inspect
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


def _public_library_functions():
    """(module, attribute, function) for every public module-level binding
    of a function defined in the library."""
    found = []
    for mod in tracer.library_modules():
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__.startswith("projnewton")):
                found.append((mod.__name__, attr, value))
    return found


def test_every_binding_is_wrapped_and_restored():
    before = _public_library_functions()
    tr = tracer.Tracer()
    tr.install()
    try:
        originals = set(tr.originals.values())
        unwrapped = [(mod, attr) for mod, attr, value in _public_library_functions()
                     if value not in tr.originals]
        stale = [(mod, attr) for mod, attr, value in _public_library_functions()
                 if value in originals]
        assert not unwrapped, f"bindings left unwrapped: {unwrapped}"
        assert not stale
        # from-imported names are rebound, not only the defining module's
        assert tr.originals[sys.modules["projnewton.cli"].sym_eig].__module__ == "projnewton.decomp"
    finally:
        tr.uninstall()
    assert _public_library_functions() == before


def test_self_times_sum_to_traced_solve_time(tmp_path):
    tr = tracer.Tracer()
    for workload, index in (("eigspace", 4), ("invariant", 2), ("generic", 7)):
        inst = workloads.build_grid(workload, 0, str(tmp_path))[index]
        tr.reset()
        tr.install()
        try:
            status, _, p = tr.call(tracer.ROOT, workloads.solve, inst)
        finally:
            tr.uninstall()
        assert not workloads.check_answer(inst, status, p)
        assert tr.calls[tracer.ROOT] == 1
        solve_time = tr.total[tracer.ROOT]
        self_sum = sum(tr.self_time.values())
        assert abs(self_sum - solve_time) <= 1e-9 * solve_time
        assert all(value >= -1e-9 for value in tr.self_time.values())
        assert tr.calls["newton.run_newton"] == 1
