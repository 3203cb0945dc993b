"""Command-line behavior: reports, exit statuses, artifact round-trips."""

import json
import subprocess
import sys

import pytest

from ktk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_conformal_spacetime_rank2(self, capsys):
        code, out, _ = run(
            capsys, "count", "--p", "1", "--q", "3", "--kind", "conformal",
            "--rank", "2", "--order", "1",
        )
        assert code == 0
        assert "= 84" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "count", "--m", "3", "--kind", "symmetry-operator",
            "--rank", "2", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"kind": "symmetry-operator", "m": 3, "j": 2, "s": 1, "count": 26}

    def test_solve_comparison(self, capsys):
        code, out, _ = run(
            capsys, "count", "--m", "2", "--kind", "ordinary", "--rank", "2",
            "--solve", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == data["solved"] == 6
        assert data["match"] is True

    def test_conformal_low_dimension_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "count", "--m", "2", "--kind", "conformal", "--rank", "1",
        )
        assert code == 2
        assert "error" in err

    def test_json_error_object_on_stderr(self, capsys):
        code, _, err = run(
            capsys, "count", "--m", "2", "--kind", "conformal", "--rank", "1",
            "--format", "json",
        )
        assert code == 2
        assert "error" in json.loads(err.strip())

    def test_mixed_signature_flags_rejected(self, capsys):
        code, _, err = run(
            capsys, "count", "--m", "2", "--p", "1", "--kind", "ordinary", "--rank", "1",
        )
        assert code == 2

    def test_missing_signature_rejected(self, capsys):
        code, _, _ = run(capsys, "count", "--kind", "ordinary", "--rank", "1")
        assert code == 2

    def test_unknown_kind_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count", "--m", "2", "--kind", "nope", "--rank", "1"])
        assert err.value.code == 2


class TestBasis:
    def test_plane_isometries_json(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--p", "2", "--q", "0", "--rank", "1", "--order", "1",
            "--kind", "ordinary", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3 and len(data["elements"]) == 3

    def test_text_listing(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--m", "2", "--rank", "1", "--kind", "ordinary",
        )
        assert code == 0
        header, *rows = out.strip().split("\n")
        assert "3 elements" in header
        assert len(rows) == 3

    def test_deterministic_bytes(self, capsys):
        argv = ["basis", "--p", "1", "--q", "2", "--rank", "2", "--kind", "ordinary",
                "--format", "json"]
        a = run(capsys, *argv)
        b = run(capsys, *argv)
        assert a == b

    def test_conformal_plane_needs_degree(self, capsys):
        code, _, err = run(
            capsys, "basis", "--m", "2", "--rank", "1", "--kind", "conformal",
        )
        assert code == 2
        assert "max_degree" in err

    def test_conformal_plane_with_degree(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--m", "2", "--rank", "1", "--kind", "conformal",
            "--max-degree", "2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["count"] == 6


class TestVerify:
    def _write_basis(self, capsys, tmp_path, name="b.json"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "basis", "--m", "3", "--rank", "1", "--kind", "ordinary",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        return path

    def test_round_trip_passes(self, capsys, tmp_path):
        path = self._write_basis(capsys, tmp_path)
        code, out, _ = run(capsys, "verify", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_perturbed_component_names_index(self, capsys, tmp_path):
        path = self._write_basis(capsys, tmp_path)
        data = json.loads(path.read_text())
        comp = data["elements"][0]["components"][0]
        comp["poly"].append({"exps": [1, 0, 0], "num": "1", "den": "1"})
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path), "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert any("residual at index (1, 1)" in p for p in report["problems"])
        assert report["problems"] == [
            "element 0: nonzero residual at index (1, 1), monomial (0, 0, 0), value 2"
        ]
        assert "residual" in err

    def test_dependent_element_is_named(self, capsys, tmp_path):
        path = self._write_basis(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["elements"][4] = data["elements"][2]
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path), "--format", "json")
        assert code == 1
        problem = (
            "elements are linearly dependent: element 4 lies in the span of the elements before it"
        )
        assert json.loads(out)["problems"] == [problem]
        assert err == problem + "\n"

    def test_unreadable_file_is_config_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
        assert code == 2


class TestOpCheck:
    def test_ordinary_operators_pass(self, capsys, tmp_path):
        path = tmp_path / "kv.json"
        run(
            capsys, "basis", "--p", "1", "--q", "1", "--rank", "1",
            "--kind", "ordinary", "--format", "json", "--output", str(path),
        )
        code, out, _ = run(
            capsys, "op-check", str(path), "--kappa2", "5/3", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_pass"] is True and data["kappa2"] == "5/3"

    def test_conformal_operators_pass_massless(self, capsys, tmp_path):
        path = tmp_path / "cv.json"
        run(
            capsys, "basis", "--m", "3", "--rank", "1", "--kind", "conformal",
            "--format", "json", "--output", str(path),
        )
        code, out, _ = run(capsys, "op-check", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["all_pass"] is True
        assert any(r["alpha"] for r in data["results"])

    @pytest.mark.parametrize("kind", ["ordinary", "conformal"])
    def test_order_two_basis_refused(self, capsys, tmp_path, kind):
        path = tmp_path / "s2.json"
        code, _, _ = run(
            capsys, "basis", "--p", "2", "--q", "1", "--rank", "1", "--order", "2",
            "--kind", kind, "--format", "json", "--output", str(path),
        )
        assert code == 0
        code, out, err = run(capsys, "op-check", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "s=2" in json.loads(lines[0])["error"]

    def test_element_without_completion_is_named(self, capsys, tmp_path):
        path = tmp_path / "cv.json"
        run(
            capsys, "basis", "--m", "3", "--rank", "1", "--kind", "conformal",
            "--format", "json", "--output", str(path),
        )
        data = json.loads(path.read_text())
        # the shear x1 d1 is not a conformal Killing vector
        data["elements"][3]["components"] = [
            {"index": [1], "poly": [{"exps": [1, 0, 0], "num": "1", "den": "1"}]}
        ]
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "op-check", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith("element 3:")

    def test_bad_mass_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "kv.json"
        run(
            capsys, "basis", "--m", "2", "--rank", "1", "--kind", "ordinary",
            "--format", "json", "--output", str(path),
        )
        code, _, _ = run(capsys, "op-check", str(path), "--kappa2", "pi")
        assert code == 2


class TestMalformedBasis:
    """A malformed basis file is a configuration error on every command."""

    @staticmethod
    def _zero_den(data):
        data["elements"][0]["components"][0]["poly"][0]["den"] = "0"

    @staticmethod
    def _zero_order(data):
        data["s"] = 0

    @pytest.mark.parametrize("command", ["verify", "op-check"])
    @pytest.mark.parametrize("fault", ["_zero_den", "_zero_order"])
    def test_exit_two_with_one_json_error(self, capsys, tmp_path, command, fault):
        path = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "basis", "--m", "3", "--rank", "1", "--kind", "ordinary",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        getattr(self, fault)(data)
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert list(json.loads(lines[0])) == ["error"]


class TestProlongRank:
    def test_full_rank_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "prolong-rank", "--m", "2", "--rank", "1", "--k", "1",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["full_row_rank"] is True and data["rank"] == 6

    def test_overdetermined_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "prolong-rank", "--m", "2", "--rank", "1", "--k", "2",
            "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["full_row_rank"] is False

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "prolong-rank", "--m", "3", "--rank", "0", "--k", "0")
        assert code == 0
        assert "rank 3" in out and "full row rank" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ktk.cli", "count", "--m", "4",
         "--kind", "ordinary", "--rank", "4", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 490
