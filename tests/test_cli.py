"""CLI end-to-end tests: parsing, exit codes, JSON schema, determinism."""

import json

import numpy as np
import pytest

from projnewton.cli import load_matrix, main
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
        assert main(["rayleigh-gr", path, "--m", "1", "--max-iters", "0"]) == 1
        assert main(["no-such-command"]) == 1

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


class TestCheck:
    def test_default_grid_passes(self, capsys):
        assert main(["check"]) == 0
        captured = capsys.readouterr().out
        assert "8/8 suites passed" in captured

    def test_small_grid_passes(self, capsys):
        assert main(["check", "--sizes", "2,3"]) == 0
        captured = capsys.readouterr().out
        assert "suites passed" in captured
        assert "FAIL" not in captured

    def test_inject_fault(self, capsys):
        assert main(["check", "--sizes", "2,3", "--inject-fault"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_sizes(self, capsys):
        assert main(["check", "--sizes", "2,x"]) == 1
