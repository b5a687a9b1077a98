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
from projnewton.cli import load_matrix, main
from projnewton.costs import InvariantSubspaceCost
from projnewton.decomp import qr_positive
from projnewton.errors import ProjNewtonError
from projnewton.lagrange import lagrangian_residual

from conftest import LONG_STEP
from oracles import sympl_form


def _write_matrix(path, mat, header=None):
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# {header}\n")
        for row in np.atleast_2d(mat):
            handle.write(" ".join(repr(float(x)) for x in row) + "\n")
    return str(path)


def _input_error(capsys, argv):
    """The one ``error:`` line an input error prints (exit 1, no traceback)."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


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

    @pytest.mark.parametrize("which", ["matrix", "start"])
    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys, which):
        # the decode error is a ValueError raised while the lines are read
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\n\xff\xfe 3\n")
        argv = ["rayleigh-gr", str(bad), "--m", "1"]
        if which == "start":
            argv = ["rayleigh-gr", _write_matrix(tmp_path / "a.txt", np.diag([2.0, 1.0])),
                    "--m", "1", "--start", str(bad)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: not UTF-8 text: ")
        assert "Traceback" not in err


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
        # the frame the command builds checks --m
        path = _write_matrix(tmp_path / "a.txt", np.diag([1.0, 2.0]))
        for m in ("-1", "0", "2", "3"):
            line = _input_error(capsys, ["rayleigh-gr", path, "--m", m])
            assert f"rank {m} outside (0, 2)" in line

    def test_not_symmetric_exit_code(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.array([[1.0, 2.0], [0.0, 1.0]]))
        line = _input_error(capsys, ["rayleigh-gr", path, "--m", "1"])
        # measured on A / 4, max|A / 4| in [1/2, 1): the defect relative to max|A|
        assert "input matrix symmetry defect 5.000e-01 exceeds 1.0e-08 relative" in line

    @pytest.mark.parametrize("c", [1.0, 1e-9])
    def test_not_symmetric_at_any_scale(self, tmp_path, capsys, c):
        # the file check is relative to max|A|: at 1e-9 a random non-symmetric
        # file passed the check's absolute floor and ran to exit 0
        x = np.random.default_rng(4).standard_normal((4, 4))
        path = _write_matrix(tmp_path / "a.txt", c * x)
        line = _input_error(capsys, ["rayleigh-gr", path, "--m", "2"])
        assert "input matrix symmetry defect" in line and "exceeds 1.0e-08 relative" in line

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

    def test_start_file_of_the_wrong_shape_rejected(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "a.txt", np.diag([4.0, 3.0, 2.0, 1.0]))
        start = _write_matrix(tmp_path / "s.txt", np.eye(4)[:, :3])
        assert main(["rayleigh-gr", path, "--m", "2", "--start", start]) == 1
        assert "start basis must be 4x2" in capsys.readouterr().err

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
        assert "even dimension 2n, got 3" in _input_error(capsys, ["rayleigh-lg", path])

    def test_m_option_rejected(self, tmp_path, capsys):
        # the rank is half the dimension of H, so the command has no --m; as
        # options are spelled in full, it is no prefix of --mu or --max-iters
        path = _write_matrix(tmp_path / "h.txt", self._hamiltonian(2, 0))
        line = _input_error(capsys, ["rayleigh-lg", path, "--m", "2"])
        assert line == "error: unrecognized arguments: --m 2"

    @pytest.mark.parametrize("perturb", [[], ["--perturb", "0.05"]], ids=["at-start", "perturbed"])
    def test_lagrangian_start_file(self, tmp_path, perturb):
        # a non-orthonormal basis of the maximizer: the start is its QR frame
        h = self._hamiltonian(3, 4)
        path = _write_matrix(tmp_path / "h.txt", h)
        _, vectors = np.linalg.eigh(h)
        mix = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.5], [0.1, 0.0, 0.7]])
        start = _write_matrix(tmp_path / "s.txt", vectors[:, ::-1][:, :3] @ mix)
        out = tmp_path / "report.json"
        assert main(["rayleigh-lg", path, "--start", start, *perturb, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "Converged"
        assert report["final"]["extra_residuals"]["lagrangian_residual"] <= 1e-9

    def test_non_lagrangian_start_file_rejected(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "h.txt", self._hamiltonian(2, 0))
        # span(e1, e3): e1^T J e3 = 1
        start = _write_matrix(tmp_path / "s.txt", np.eye(4)[:, [0, 2]])
        line = _input_error(capsys, ["rayleigh-lg", path, "--start", start])
        assert "does not span a Lagrangian subspace" in line
        assert "max|U^T J U| 1.000e+00 exceeds 1.0e-10" in line

    def test_nearly_lagrangian_start_file_rejected_at_the_frame_tolerance(self, tmp_path, capsys):
        # max|U^T J U| near 1e-9 passes the file tolerance 1e-8 but not the
        # frame's 1e-10: the basis check names that, not the frame's defect
        h = self._hamiltonian(3, 4)
        path = _write_matrix(tmp_path / "h.txt", h)
        u = np.linalg.eigh(h)[1][:, ::-1][:, :3]
        u[:, 0] += 1e-9 * sympl_form(3) @ u[:, 1]  # u1^T J u2 = 1e-9 |u2|^2
        q = qr_positive(load_matrix(_write_matrix(tmp_path / "s.txt", u)))[0][:, :3]
        residual = lagrangian_residual(q)
        assert 5e-10 < residual < 5e-9
        line = _input_error(capsys, ["rayleigh-lg", path, "--start", str(tmp_path / "s.txt")])
        assert line == ("error: start basis does not span a Lagrangian subspace: "
                        f"max|U^T J U| {residual:.3e} exceeds 1.0e-10")

    def test_start_file_of_the_wrong_shape_rejected(self, tmp_path, capsys):
        path = _write_matrix(tmp_path / "h.txt", self._hamiltonian(2, 0))
        start = _write_matrix(tmp_path / "s.txt", np.eye(4)[:, :3])
        assert main(["rayleigh-lg", path, "--start", start]) == 1
        assert "start basis must be 4x2" in capsys.readouterr().err

    def test_structure_violation_rejected(self, tmp_path, capsys):
        # symmetric, and J diag(S1, S2) J = diag(-S2, -S1): the defect is max|S1 + S2| = 6,
        # measured on H / 8, max|H / 8| in [1/2, 1)
        path = _write_matrix(tmp_path / "h.txt", np.diag([1.0, 2.0, 3.0, 4.0]))
        line = _input_error(capsys, ["rayleigh-lg", path])
        assert "input matrix JHJ - H defect 7.500e-01 exceeds 1.0e-08 relative" in line
        assert "not symmetric Hamiltonian" in line

    @pytest.mark.parametrize("c", [1.0, 1e-9])
    def test_structure_violation_at_any_scale(self, tmp_path, capsys, c):
        # relative to max|H|, as the symmetry check: a symmetric file that is
        # not Hamiltonian is refused at 1e-9 too
        x = np.random.default_rng(4).standard_normal((4, 4))
        path = _write_matrix(tmp_path / "h.txt", c * (x + x.T))
        line = _input_error(capsys, ["rayleigh-lg", path])
        assert "input matrix JHJ - H defect" in line and "exceeds 1.0e-08 relative" in line


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

    def test_bad_rank_exit_code(self, tmp_path, capsys):
        # the random start, or the frame of a --start basis, checks --m
        path, _, _ = self._constructed(tmp_path)
        for m in ("-1", "0", "4", "5"):
            line = _input_error(capsys, ["invariant", path, "--m", m])
            assert f"rank {m} outside (0, 4)" in line
        start = _write_matrix(tmp_path / "s.txt", np.eye(4))
        assert "rank 4 outside (0, 4)" in _input_error(
            capsys, ["invariant", path, "--m", "4", "--start", start])

    def test_perturb_without_start_rejected(self, tmp_path, capsys):
        # the random start is no reference to perturb from
        path, _, _ = self._constructed(tmp_path)
        assert main(["invariant", path, "--m", "2", "--perturb", "0.1"]) == 1
        assert "needs a computable reference" in capsys.readouterr().err

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
    def test_every_push_forward_chart(self, tmp_path, nu):
        path, start, _ = self._constructed(tmp_path)
        out = tmp_path / "r.json"
        code = main([
            "invariant", path, "--m", "2", "--start", start, "--perturb", "0.05",
            "--nu", nu, "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "Converged"
        assert report["final"]["extra_residuals"]["invariance_residual"] <= 1e-9

    def test_solver_option_is_gone(self, tmp_path, capsys):
        # the direct four-term solve is the only one: no option chooses it,
        # and the report's config names none
        path, start, _ = self._constructed(tmp_path)
        argv = ["invariant", path, "--m", "2", "--start", start]
        assert main(argv + ["--solver", "direct"]) == 1
        assert "unrecognized arguments: --solver direct" in capsys.readouterr().err
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert "solver" not in json.loads(out.read_text())["config"]


def _report_argv(tmp_path, case):
    if case == "rayleigh-gr":
        path = _write_matrix(tmp_path / "a.txt", np.diag([4.0, 3.0, 2.0, 1.0]))
        return ["rayleigh-gr", path, "--m", "2"]
    if case.startswith("rayleigh-lg"):
        path = _write_matrix(tmp_path / "h.txt", TestRayleighLg._hamiltonian(3, 1))
        charts = ["--mu", "qr", "--nu", "cayley"] if case.endswith("qr-cayley") else []
        return ["rayleigh-lg", path] + charts
    path, start, _ = TestInvariant._constructed(tmp_path)
    return ["invariant", path, "--m", "2", "--start", start, "--perturb", "0.05"]


# the non-diagonal inputs make the start frame depend on the signs LAPACK
# gives eigenvectors and QR factors, which must be the same on every run
@pytest.mark.parametrize(
    "case", ["rayleigh-gr", "rayleigh-lg", "rayleigh-lg-qr-cayley", "invariant"])
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
    a = np.random.default_rng(15).standard_normal((6, 6))
    a[2:, :2] = 0.0
    return _write_matrix(tmp_path / "a15.txt", a)


@pytest.mark.parametrize("nu", ["exp", "qr", "cayley"])
@pytest.mark.parametrize("first", ["overflowing", "long"])
def test_overflowing_step_exits_with_a_run_status(tmp_path, capsys, monkeypatch, first, nu):
    # every Newton step has entries 1e200, so Z Z^T overflows to inf; with
    # "long", the first step is LONG_STEP, of norm ~1.9e154, which is pushed,
    # except by Cayley: it turns each plane by pi to round-off at this length,
    # which keeps the subspace, so that step has stalled and the run ends
    steps = [LONG_STEP] if first == "long" else []

    def huge_step(self, frame, state):
        return (steps.pop(0) if steps else np.full((frame.rank, frame.dim - frame.rank), 1e200)), state

    monkeypatch.setattr(InvariantSubspaceCost, "newton_solve", huge_step)
    out = tmp_path / "r.json"
    code = main(["invariant", _long_step_matrix(tmp_path), "--m", "2", "--seed", "7",
                 "--nu", nu, "--max-iters", "3", "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["status"] == "NoConvergence"
    assert all(np.isfinite(row["step_norm"]) for row in report["iterations"])
    if first == "long":
        assert len(report["iterations"]) == (1 if nu == "cayley" else 2)
        assert nu == "cayley" or report["iterations"][0]["step_norm"] > 1e154
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


def _fresh_process(*args):
    """A new Python process running ``args``, with this library on its path."""
    src = os.path.dirname(os.path.dirname(projnewton.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_builds_no_parser():
    # the benchmark's set-up time imports the library: the CLI parser is
    # built by main, not at import
    out = _fresh_process("-c", _NO_PARSER_SCRIPT)
    assert out.returncode == 0
    assert out.stdout.strip() == "0"


_COMMAND_NAMES = ("rayleigh-gr", "rayleigh-lg", "invariant")


def _command_argv(tmp_path, command):
    return _report_argv(tmp_path, command)


def _start_argv(tmp_path, command):
    """(argv without start options, path of a start basis) for ``command``."""
    if command == "invariant":
        path, start, _ = TestInvariant._constructed(tmp_path)
        return ["invariant", path, "--m", "2"], start
    argv = _report_argv(tmp_path, command)
    mat = load_matrix(argv[1])
    m = int(argv[3]) if command == "rayleigh-gr" else mat.shape[0] // 2
    _, vectors = np.linalg.eigh(mat)
    return argv, _write_matrix(tmp_path / "s.txt", vectors[:, ::-1][:, :m])


def _record_args(monkeypatch, command):
    """The namespaces ``main`` hands ``command``'s handler, which still runs."""
    seen = []
    help_text, add_arguments, handler = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (
        help_text, add_arguments, lambda args: seen.append(vars(args)) or handler(args)))
    return seen


@pytest.fixture
def fresh_parser_tree():
    """Forget the parser tree built before the test, and the one it builds."""
    cli._parser_tree.cache_clear()
    yield
    cli._parser_tree.cache_clear()


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


def _full_parser():
    """The top-level parser of the process's one tree, with every command's subparser."""
    return cli._parser_tree()[0]


def _main_with_full_parser(argv):
    """``main`` with ``_full_parser()`` for every argv."""
    try:
        args = _full_parser().parse_args(argv)
        return cli._COMMANDS[args.command][2](args)
    except ProjNewtonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


_HELP_ARGVS = [["--help"]] + [[name, "--help"] for name in _COMMAND_NAMES]
# the parsers of the whole tree, in the order they are built
_TREE_PROGS = ["projnewton"] + [f"projnewton {name}" for name in _COMMAND_NAMES]


class TestCommandParser:
    """``main`` hands the invoked command's arguments to its subparser in the
    one parser tree of the process, built on first use; the result must be
    indistinguishable from parsing the whole argv with ``_full_parser()``."""

    @pytest.mark.parametrize("command", _COMMAND_NAMES)
    def test_matches_full_parser(self, tmp_path, capsys, monkeypatch, command):
        parsed = []
        help_text, add_arguments, _ = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command, (help_text, add_arguments, parsed.append))
        argv = _command_argv(tmp_path, command)
        main(argv)
        assert vars(parsed[0]) == vars(_full_parser().parse_args(argv))
        helps = [_outcome(capsys, call, [command, "--help"])
                 for call in (main, _full_parser().parse_args)]
        assert helps[0] == helps[1]
        assert helps[0][0] == 0
        assert helps[0][1].startswith(f"usage: projnewton {command} ")

    @pytest.mark.parametrize("command", _COMMAND_NAMES)
    def test_main_builds_one_tree(self, tmp_path, capsys, fresh_parser_tree, built_parsers,
                                  command):
        argv = _command_argv(tmp_path, command)
        assert main(argv) == 0
        assert built_parsers == _TREE_PROGS
        assert main(argv) == 0
        assert main(argv + ["--seed", "1"]) == 0
        assert main([]) == 1  # the tree's own error, from the same tree
        assert _full_parser() is _full_parser()
        assert built_parsers == _TREE_PROGS

    def test_main_reads_sys_argv(self, tmp_path, capsys, monkeypatch, fresh_parser_tree,
                                 built_parsers):
        out = tmp_path / "r.json"
        argv = _command_argv(tmp_path, "rayleigh-lg") + ["--out", str(out)]
        monkeypatch.setattr(sys, "argv", ["projnewton"] + argv)
        assert main() == 0
        assert json.loads(out.read_text())["command"] == "rayleigh-lg"
        assert built_parsers == _TREE_PROGS
        out.unlink()
        assert main() == 0
        assert json.loads(out.read_text())["command"] == "rayleigh-lg"
        assert built_parsers == _TREE_PROGS

    @pytest.mark.parametrize("command", _COMMAND_NAMES)
    def test_cached_parser_keeps_no_state(self, tmp_path, capsys, monkeypatch, command):
        # every per-call option set, then the defaults: each call parses as
        # _full_parser() does and reports as a new process does
        base, start = _start_argv(tmp_path, command)
        out, fresh_out = tmp_path / "r.json", tmp_path / "fresh.json"
        seen = _record_args(monkeypatch, command)
        calls = [base + ["--start", start, "--perturb", "0.1", "--nu", "cayley", "--out", str(out)],
                 base]
        for argv in calls:
            fresh = _fresh_process("-m", "projnewton.cli",
                                   *(str(fresh_out) if arg == str(out) else arg for arg in argv))
            assert main(argv) == fresh.returncode
            assert seen.pop() == vars(_full_parser().parse_args(argv))
            printed = capsys.readouterr().out
            report, expected = ((out.read_text(), fresh_out.read_text()) if "--out" in argv
                                else (printed, fresh.stdout))
            assert json.loads(report)["config"]["start"] == (start if "--out" in argv else None)
            assert _strip_elapsed(report) == _strip_elapsed(expected)

    @pytest.mark.parametrize("bad", [["--nu", "bad"], ["--perturb", "nan"],
                                     ["--no-such-option"], ["--m"]],
                             ids=["choice", "type", "unknown-option", "missing-value"])
    def test_argparse_error_leaves_the_parser_usable(self, tmp_path, capsys, monkeypatch, bad):
        argv = _command_argv(tmp_path, "rayleigh-gr")
        seen = _record_args(monkeypatch, "rayleigh-gr")
        assert main(argv) == 0
        before = capsys.readouterr().out
        assert main(argv + bad) == 1
        assert capsys.readouterr().err.startswith("error: argument" if bad != ["--no-such-option"]
                                                  else "error: unrecognized arguments: ")
        assert main(argv) == 0
        assert _strip_elapsed(capsys.readouterr().out) == _strip_elapsed(before)
        assert seen == [vars(_full_parser().parse_args(argv))] * 2

    @pytest.mark.parametrize("parse", [main, _main_with_full_parser], ids=["command", "full"])
    @pytest.mark.parametrize("abbrev", [["--max", "5"], ["--pert", "0.1"]])
    def test_abbreviated_options_rejected(self, tmp_path, capsys, abbrev, parse):
        # a prefix of --max-iters or --perturb is no option, with either parser
        argv = _command_argv(tmp_path, "rayleigh-gr") + abbrev
        assert _outcome(capsys, parse, argv) == (
            1, "", f"error: unrecognized arguments: {' '.join(abbrev)}\n")

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text == _full_parser().format_help()
        assert "{rayleigh-gr,rayleigh-lg,invariant}" in text
        assert "compute an invariant subspace of a square matrix" in text

    @pytest.mark.parametrize("argv", [["no-such-command"], ["--perturb", "0.1"], [], ["check"]])
    def test_other_first_words_get_every_command(self, capsys, fresh_parser_tree,
                                                 built_subparsers, argv):
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
            inv + ["--m", "2", "--nu", "bad"],
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
                parse = cli._parser_tree.__wrapped__()[0].parse_args  # not the process's tree
                expected = [_outcome(capsys, parse, argv) for argv in _HELP_ARGVS]
            assert [_outcome(capsys, main, argv) for argv in _HELP_ARGVS] == expected
            helps[columns] = expected
        assert helps[40] != helps[80] != helps[200] != helps[40]
