"""CLI end-to-end tests: parsing, exit codes, JSON schema, determinism."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import projnewton
from projnewton import cli
from projnewton.cli import build_parser, load_matrix, main
from projnewton.costs import InvariantSubspaceCost
from projnewton.decomp import qr_positive
from projnewton.errors import ProjNewtonError


def _write_matrix(path, mat, header=None):
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# {header}\n")
        for row in np.atleast_2d(mat):
            handle.write(" ".join(repr(float(x)) for x in row) + "\n")
    return str(path)


def _strip_elapsed(text):
    return "\n".join(line for line in text.splitlines() if "elapsed_seconds" not in line)


class TestMatrixFiles:
    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# comment line\n1 2  # trailing comment\n3   4\n\n")
        mat = load_matrix(str(path))
        np.testing.assert_allclose(mat, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ProjNewtonError):
            load_matrix(str(path))

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 x\n")
        with pytest.raises(ProjNewtonError):
            load_matrix(str(path))

    def test_missing_file(self):
        with pytest.raises(ProjNewtonError):
            load_matrix("/nonexistent/matrix.txt")


class TestRayleighGr:
    def test_diagonal_end_to_end(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.diag([4.0, 3.0, 2.0, 1.0]))
        out = tmp_path / "report.json"
        code = main(["rayleigh-gr", path, "--m", "2", "--seed", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == "1"
        assert report["status"] == "Converged"
        assert report["command"] == "rayleigh-gr"
        assert abs(report["final"]["trace"] - 2.0) <= 1e-9
        assert report["final"]["idempotence_residual"] <= 1e-10
        assert report["final"]["extra_residuals"]["distance_to_dominant"] <= 1e-8
        rows = report["iterations"]
        assert rows[0]["iter"] == 0
        assert {"iter", "cost", "grad_norm", "step_norm", "distance"} <= set(rows[0])

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.diag([4.0, 3.0, 1.0]))
        out = tmp_path / "missing-dir" / "x.json"
        assert main(["rayleigh-gr", path, "--m", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("c", [1e150, 1e160, 1e300])
    def test_huge_entries_run_as_unscaled(self, tmp_path, capsys, c):
        a = np.diag([4.0, 3.0, 2.0, 1.0])
        reports = []
        for scale in (1.0, c):
            path = _write_matrix(tmp_path / "a.txt", scale * a)
            assert main(["rayleigh-gr", path, "--m", "2", "--seed", "3"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert [len(r["iterations"]) for r in reports] == [len(reports[0]["iterations"])] * 2
        assert reports[1]["status"] == "Converged"

    def test_invariant_scale_overflow_is_an_input_error(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", 1e160 * np.diag([4.0, 3.0, 2.0]))
        assert main(["invariant", path, "--m", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: cost data scale is inf")

    def test_bad_rank_exit_code(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.diag([1.0, 2.0]))
        assert main(["rayleigh-gr", path, "--m", "0"]) == 1
        assert main(["rayleigh-gr", path, "--m", "2"]) == 1

    def test_not_symmetric_exit_code(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert main(["rayleigh-gr", path, "--m", "1"]) == 1

    def test_flag_validation_exit_codes(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.diag([2.0, 1.0]))
        assert main(["rayleigh-gr", path, "--m", "1", "--seed", "-1"]) == 1
        assert main(["rayleigh-gr", path, "--m", "1", "--perturb", "-0.1"]) == 1
        assert main(["rayleigh-gr", path, "--m", "1", "--tol", "-1"]) == 1
        assert main(["rayleigh-gr", path, "--m", "1", "--tol", "nan"]) == 1
        assert main(["rayleigh-gr", path, "--m", "1", "--tol", "inf"]) == 1
        assert main(["rayleigh-gr", path, "--m", "1", "--max-iters", "0"]) == 1
        assert main(["no-such-command"]) == 1

    # "-inf" alone would read as an option, so every value is attached with "="
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_perturb_rejected(self, tmp_path, capsys, value):
        path = _write_matrix(tmp_path / "a.txt", np.diag([4.0, 3.0, 1.0]))
        assert main(["rayleigh-gr", path, "--m", "1", f"--perturb={value}"]) == 1
        assert capsys.readouterr().err.startswith("error: argument --perturb: ")

    def test_start_file_and_perturb(self, tmp_path, capsys):
        a = np.diag([5.0, 4.0, 1.0, 0.5])
        path = _write_matrix(tmp_path / "a.txt", a)
        start = _write_matrix(tmp_path / "s.txt", np.eye(4)[:, :2])
        out = tmp_path / "report.json"
        code = main([
            "rayleigh-gr", path, "--m", "2", "--start", start,
            "--perturb", "0.05", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["iterations"][0]["distance"] > 1e-3

    def test_iteration_budget_exit_code(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.diag([4.0, 3.0, 2.0, 1.0]))
        code = main([
            "rayleigh-gr", path, "--m", "2", "--max-iters", "1", "--tol", "1e-18",
        ])
        assert code == 2

    def test_nondefault_chart_pair_converges(self, tmp_path):
        path = _write_matrix(tmp_path / "a.txt", np.diag([4.0, 3.0, 2.0, 1.0]))
        out = tmp_path / "report.json"
        code = main([
            "rayleigh-gr", path, "--m", "2", "--mu", "cayley", "--nu", "cayley",
            "--perturb", "0.05", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "Converged"


class TestRayleighLg:
    @staticmethod
    def _hamiltonian(n, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n, n))
        s = 0.5 * (s + s.T)
        t = rng.standard_normal((n, n))
        t = 0.5 * (t + t.T)
        return np.block([[s, t], [t, -s]])

    def test_end_to_end(self, tmp_path):
        path = _write_matrix(tmp_path / "h.txt", self._hamiltonian(2, 0))
        out = tmp_path / "report.json"
        code = main(["rayleigh-lg", path, "--perturb", "0.05", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "Converged"
        assert report["rate"]["verdict"] is True
        assert report["final"]["extra_residuals"]["max_symplecticity_residual"] <= 1e-9
        assert report["final"]["extra_residuals"]["lagrangian_residual"] <= 1e-9

    @pytest.mark.parametrize("nu", ["exp", "qr", "cayley"])
    def test_every_push_forward_chart(self, tmp_path, nu):
        path = _write_matrix(tmp_path / "h.txt", self._hamiltonian(3, 2))
        out = tmp_path / "report.json"
        code = main(["rayleigh-lg", path, "--nu", nu, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "Converged"
        assert report["final"]["extra_residuals"]["max_symplecticity_residual"] <= 1e-9
        assert report["final"]["extra_residuals"]["lagrangian_residual"] <= 1e-9

    def test_structure_defect_within_input_tolerance(self, tmp_path):
        # a 1e-9 defect passes the input check (1e-8) but not the cost's
        # own JHJ = H check (1e-10) unless the input is projected onto it
        rng = np.random.default_rng(3)
        noise = rng.standard_normal((4, 4))
        h = self._hamiltonian(2, 0) + 1e-9 * (noise + noise.T)
        path = _write_matrix(tmp_path / "h.txt", h)
        out = tmp_path / "report.json"
        assert main(["rayleigh-lg", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "Converged"

    def test_odd_dimension_rejected(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "h.txt", np.eye(3))
        assert main(["rayleigh-lg", path]) == 1

    def test_structure_violation_rejected(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "h.txt", np.diag([1.0, 2.0, 3.0, 4.0]))
        assert main(["rayleigh-lg", path]) == 1


class TestInvariant:
    @staticmethod
    def _constructed(tmp_path, seed=13):
        rng = np.random.default_rng(seed)
        b1 = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        b2 = rng.standard_normal((2, 2)) - 1.0 * np.eye(2)
        s = np.block([[b1, np.zeros((2, 2))], [np.zeros((2, 2)), b2]])
        t, _ = qr_positive(rng.standard_normal((4, 4)))
        a = t @ s @ t.T
        path = _write_matrix(tmp_path / "a.txt", a)
        start = _write_matrix(tmp_path / "s.txt", t[:, :2])
        return path, start, t[:, :2] @ t[:, :2].T

    def test_end_to_end(self, tmp_path):
        path, start, target = self._constructed(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "invariant", path, "--m", "2", "--start", start,
            "--perturb", "0.05", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["final"]["extra_residuals"]["invariance_residual"] <= 1e-10

    def test_identity_is_degenerate(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.eye(4))
        assert main(["invariant", path, "--m", "2"]) == 3

    def test_nondefault_chart_pair_converges(self, tmp_path):
        path, start, _ = self._constructed(tmp_path)
        out = tmp_path / "r.json"
        code = main([
            "invariant", path, "--m", "2", "--start", start, "--perturb", "0.03",
            "--mu", "qr", "--nu", "cayley", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "Converged"
        assert report["final"]["extra_residuals"]["invariance_residual"] <= 1e-9

    @pytest.mark.parametrize("nu", ["exp", "qr", "cayley"])
    def test_recursive_with_every_push_forward_chart(self, tmp_path, nu):
        path, start, _ = self._constructed(tmp_path)
        out = tmp_path / "r.json"
        code = main([
            "invariant", path, "--m", "2", "--start", start, "--perturb", "0.05",
            "--solver", "recursive", "--nu", nu, "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "Converged"
        assert report["final"]["extra_residuals"]["invariance_residual"] <= 1e-9

    def test_recursive_matches_direct(self, tmp_path):
        path, start, target = self._constructed(tmp_path)
        outs = []
        for solver in ("direct", "recursive"):
            out = tmp_path / f"r_{solver}.json"
            code = main([
                "invariant", path, "--m", "2", "--start", start,
                "--perturb", "0.02", "--solver", solver, "--out", str(out),
            ])
            assert code == 0
            report = json.loads(out.read_text())
            outs.append(report["final"])
        assert abs(outs[0]["frobenius_norm"] - outs[1]["frobenius_norm"]) <= 1e-6
        assert outs[0]["extra_residuals"]["invariance_residual"] <= 1e-10
        assert outs[1]["extra_residuals"]["invariance_residual"] <= 1e-10


def _report_argv(tmp_path, case):
    if case == "rayleigh-gr":
        path = _write_matrix(tmp_path / "a.txt", np.diag([4.0, 3.0, 2.0, 1.0]))
        return ["rayleigh-gr", path, "--m", "2"]
    if case.startswith("rayleigh-lg"):
        path = _write_matrix(tmp_path / "h.txt", TestRayleighLg._hamiltonian(3, 1))
        charts = ["--mu", "qr", "--nu", "cayley"] if case.endswith("qr-cayley") else []
        return ["rayleigh-lg", path] + charts
    path, start, _ = TestInvariant._constructed(tmp_path)
    return ["invariant", path, "--m", "2", "--start", start, "--perturb", "0.05",
            "--solver", "recursive"]


# the non-diagonal inputs make the start frame depend on the signs LAPACK
# gives eigenvectors and QR factors, which must be the same on every run
@pytest.mark.parametrize(
    "case", ["rayleigh-gr", "rayleigh-lg", "rayleigh-lg-qr-cayley", "invariant-recursive"])
def test_byte_identical_reports(tmp_path, case):
    argv = _report_argv(tmp_path, case) + ["--seed", "3"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert _strip_elapsed(out1.read_text()) == _strip_elapsed(out2.read_text())


class TestReportFile:
    """``--out`` is overwritten in place: regular files lose their old tail,
    devices are written without being cut, and every failure is an input error."""

    @staticmethod
    def _argv(tmp_path):
        return _report_argv(tmp_path, "rayleigh-gr") + ["--seed", "3", "--out"]

    def test_longer_file_is_replaced_by_exactly_the_report(self, tmp_path, capsys):
        argv = self._argv(tmp_path)
        assert main(argv[:-1]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "report.json"
        out.write_bytes(b"x" * 100_000)
        inode = out.stat().st_ino
        assert main(argv + [str(out)]) == 0
        assert out.stat().st_ino == inode
        assert _strip_elapsed(out.read_text()) == _strip_elapsed(printed)

    def test_missing_file_is_created(self, tmp_path, capsys):
        out = tmp_path / "new.json"
        assert main(self._argv(tmp_path) + [str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "Converged"

    def test_dev_null_is_written_without_truncating(self, tmp_path, capsys):
        assert main(self._argv(tmp_path) + [os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd") or not os.path.exists("/dev/full"),
                        reason="needs /dev/full and /proc/self/fd")
    def test_full_device_is_an_input_error_and_leaks_no_descriptor(self, tmp_path, capsys):
        argv = self._argv(tmp_path) + ["/dev/full"]
        open_fds = len(os.listdir("/proc/self/fd"))
        assert main(argv) == 1
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert capsys.readouterr().err.startswith("error: cannot write /dev/full: ")

    def test_directory_is_an_input_error(self, tmp_path, capsys):
        assert main(self._argv(tmp_path) + [str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("case", ["rayleigh-gr", "rayleigh-lg"])
def test_answer_is_eigendecomposed_once(tmp_path, capsys, monkeypatch, case):
    # the dominant frame is both the start's origin and the distance reference
    argv = _report_argv(tmp_path, case)
    dim = load_matrix(argv[1]).shape[0]
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert main(argv) == 0
    assert shapes.count((dim, dim)) == 1


def _long_step_matrix(tmp_path):
    # from random_projector(6, 2, 7) the recursive solver settles on a Newton
    # step of norm ~1.9e154, whose sum of squares overflows
    a = np.random.default_rng(15).standard_normal((6, 6))
    a[2:, :2] = 0.0
    return _write_matrix(tmp_path / "a15.txt", a)


@pytest.mark.parametrize("nu", ["exp", "qr", "cayley"])
def test_long_step_exits_with_a_run_status(tmp_path, capsys, nu):
    out = tmp_path / "r.json"
    code = main(["invariant", _long_step_matrix(tmp_path), "--m", "2", "--solver", "recursive",
                 "--seed", "7", "--nu", nu, "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    # the Cayley push turns each plane by pi to round-off at this length,
    # which keeps the subspace: that step has stalled, and the run ends
    assert report["status"] == "NoConvergence"
    assert all(np.isfinite(row["step_norm"]) for row in report["iterations"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("nu", ["exp", "qr", "cayley"])
def test_overflowing_step_exits_with_a_run_status(tmp_path, capsys, monkeypatch, nu):
    # every Newton step has entries 1e200, so Z Z^T overflows to inf
    def huge_step(self, frame, solver="direct", b=None):
        return np.full((frame.rank, frame.dim - frame.rank), 1e200)

    monkeypatch.setattr(InvariantSubspaceCost, "newton_solve", huge_step)
    out = tmp_path / "r.json"
    code = main(["invariant", _long_step_matrix(tmp_path), "--m", "2", "--seed", "7",
                 "--nu", nu, "--max-iters", "3", "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["status"] == "NoConvergence"
    assert all(np.isfinite(row["step_norm"]) for row in report["iterations"])
    assert capsys.readouterr().err == ""


_NO_PARSER_SCRIPT = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import projnewton
import projnewton.cli
print(len(built))
"""


def test_import_builds_no_parser():
    # the benchmark's set-up time imports the library: the CLI parser is
    # built by main, not at import
    src = os.path.dirname(os.path.dirname(projnewton.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NO_PARSER_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "0"


_COMMAND_NAMES = ("rayleigh-gr", "rayleigh-lg", "invariant")


def _command_argv(tmp_path, command):
    return _report_argv(tmp_path, {"invariant": "invariant-recursive"}.get(command, command))


@pytest.fixture
def built_subparsers(monkeypatch):
    """Names of the subparsers constructed while the test runs."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    return built


@pytest.fixture
def built_parsers(monkeypatch):
    """Progs of the ``ArgumentParser``s constructed while the test runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, a ``SystemExit`` included."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _main_with_full_parser(argv):
    """``main`` with ``build_parser()`` for every argv."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ProjNewtonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


_HELP_ARGVS = [["--help"]] + [[name, "--help"] for name in _COMMAND_NAMES]


class TestCommandParser:
    """``main`` builds one parser, for the invoked command alone; the result
    must be indistinguishable from ``build_parser()``, which has every
    command as a subparser."""

    @pytest.mark.parametrize("command", _COMMAND_NAMES)
    def test_matches_full_parser(self, tmp_path, capsys, monkeypatch, command):
        parsed = []
        help_text, add_arguments, _ = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command, (help_text, add_arguments, parsed.append))
        argv = _command_argv(tmp_path, command)
        main(argv)
        assert vars(parsed[0]) == vars(build_parser().parse_args(argv))
        helps = [_outcome(capsys, call, [command, "--help"])
                 for call in (main, build_parser().parse_args)]
        assert helps[0] == helps[1]
        assert helps[0][0] == 0
        assert helps[0][1].startswith(f"usage: projnewton {command} ")

    @pytest.mark.parametrize("command", _COMMAND_NAMES)
    def test_main_builds_one_subparser(self, tmp_path, capsys, built_parsers, command):
        assert main(_command_argv(tmp_path, command)) == 0
        assert built_parsers == [f"projnewton {command}"]

    def test_main_reads_sys_argv(self, tmp_path, capsys, monkeypatch, built_parsers):
        out = tmp_path / "r.json"
        argv = _command_argv(tmp_path, "rayleigh-lg") + ["--out", str(out)]
        monkeypatch.setattr(sys, "argv", ["projnewton"] + argv)
        assert main() == 0
        assert json.loads(out.read_text())["command"] == "rayleigh-lg"
        assert built_parsers == ["projnewton rayleigh-lg"]

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text == build_parser().format_help()
        assert "{rayleigh-gr,rayleigh-lg,invariant}" in text
        assert "compute an invariant subspace of a square matrix" in text

    @pytest.mark.parametrize("argv", [["no-such-command"], ["--perturb", "0.1"], [], ["check"]])
    def test_other_first_words_get_every_command(self, capsys, built_subparsers, argv):
        assert main(argv) == 1
        assert built_subparsers == list(_COMMAND_NAMES)
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if argv[:1] in (["no-such-command"], ["check"]):
            assert f"invalid choice: '{argv[0]}'" in err
            assert all(name in err for name in _COMMAND_NAMES)

    def test_exit_codes_and_output_match_full_parser(self, tmp_path, capsys):
        gr, lg, inv = (_command_argv(tmp_path, name)[:2] for name in _COMMAND_NAMES)
        argvs = _HELP_ARGVS + [
            ["rayleigh-gr"], gr, ["invariant"], inv,  # missing arguments
            inv + ["--m", "2", "--solver", "bad"],
            gr + ["--m", "2", "--no-such-option"],
            lg + ["--perturb", "nan"],
            ["check"],
            [],
        ]
        for argv in argvs:
            got = _outcome(capsys, main, argv)
            assert got == _outcome(capsys, _main_with_full_parser, argv), argv
            assert got[0] in (0, 1)
            assert (got[2] == "") == (got[0] == 0), argv

    def test_help_wraps_as_argparse_does(self, capsys, monkeypatch):
        helps = {}
        for columns in (40, 80, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            with monkeypatch.context() as plain:
                # argparse's own formatter, which reads the width on every construction
                plain.setattr(cli, "_Parser", argparse.ArgumentParser)
                parse = build_parser().parse_args
                expected = [_outcome(capsys, parse, argv) for argv in _HELP_ARGVS]
            assert [_outcome(capsys, main, argv) for argv in _HELP_ARGVS] == expected
            helps[columns] = expected
        assert helps[40] != helps[80] != helps[200] != helps[40]
