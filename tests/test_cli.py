"""Command-line behavior: reports, exit statuses, artifact round-trips."""

import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktk import AnsatzSpec, Poly, Signature, WeylOp, cli, solve_basis
from ktk.cli import main
from ktk.equations import ProlongedSystem, prolong
from ktk.operators import (
    build_symmetry_operator,
    check_symmetry,
    conformal_symmetry_operator,
    kgf,
)
from ktk.solver import full_rank_check, unknown_labels, verify_basis
from ktk.tensors import Basis, SymTensorField


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


@pytest.mark.parametrize(
    "command",
    [
        ["basis", "--kind", "ordinary", "--rank", "1"],
        ["count", "--kind", "ordinary", "--rank", "1"],
        ["prolong-rank", "--rank", "1", "--k", "0"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "flags",
    [["--m", "0"], ["--m", "-2"], ["--p", "0", "--q", "0"], ["--p", "1", "--q", "-1"]],
    ids=" ".join,
)
def test_invalid_signature_is_config_error(capsys, command, flags):
    code, out, err = run(capsys, *command, *flags, "--format", "json")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "invalid signature" in json.loads(err)["error"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["count", "basis", "verify"])
def test_unwritable_output_is_config_error(capsys, tmp_path, command, fmt):
    """A report path in a missing directory ends in exit 2 and one error line
    on stderr (a JSON object under --format json), not a traceback."""
    argv = {
        "count": ["count", "--m", "3", "--kind", "ordinary", "--rank", "2"],
        "basis": ["basis", "--m", "2", "--kind", "ordinary", "--rank", "1"],
        "verify": ["verify", str(tmp_path / "b.json")],
    }[command]
    if command == "verify":
        code, _, _ = run(
            capsys, "basis", "--m", "2", "--kind", "ordinary", "--rank", "1",
            "--format", "json", "--output", str(tmp_path / "b.json"),
        )
        assert code == 0
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--format", fmt, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    message = json.loads(err)["error"] if fmt == "json" else err.removeprefix("error: ")
    assert message != err and message.startswith(f"cannot write report to {str(target)!r}")
    assert not target.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["count", "basis"])
def test_unwritable_stdout_is_config_error(command, fmt):
    """A stdout that refuses every write ends in exit 2 and one error line on
    stderr (a JSON object under --format json): no traceback, and nothing
    left to fail again when the interpreter flushes stdout at exit."""
    argv = {
        "count": ["count", "--kind", "ordinary", "--rank", "2", "--m", "3"],
        "basis": ["basis", "--kind", "conformal", "--rank", "2", "--p", "1", "--q", "3"],
    }[command]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ktk.cli", *argv, "--format", fmt],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    err = proc.stderr.strip()
    message = json.loads(err)["error"] if fmt == "json" else err.removeprefix("error: ")
    assert message != err and message.startswith("cannot write report to stdout: ")


class _Stub:
    """Stands in for `solve_basis` in the size-guard tests: records each spec
    and returns an empty basis."""

    def __init__(self):
        self.specs = []

    def __call__(self, spec):
        self.specs.append(spec)
        return Basis(spec.kind, spec.j, spec.s, spec.signature, [], spec.resolved_degree())


class TestSizeGuard:
    """`basis` and `count --solve` refuse an ansatz above --max-unknowns
    before they assemble it, and print the exact unknown count."""

    @pytest.fixture
    def stub(self, monkeypatch):
        stub = _Stub()
        monkeypatch.setattr(cli, "solve_basis", stub)
        return stub

    @pytest.mark.parametrize("command", [["basis"], ["count", "--solve"]], ids=" ".join)
    def test_both_sides_of_the_cap(self, capsys, stub, command):
        argv = [*command, "--kind", "conformal", "--rank", "4", "--p", "1", "--q", "3",
                "--format", "json"]
        code, out, err = run(capsys, *argv, "--max-unknowns", "17324")
        assert code == 2 and out == "" and not stub.specs
        assert json.loads(err)["error"].startswith("the ansatz has 17325 unknowns")
        code, out, _ = run(capsys, *argv, "--max-unknowns", "17325")
        assert code in (0, 1) and len(stub.specs) == 1
        # the default cap admits the largest system of the paper's tables
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1) and len(stub.specs) == 2

    def test_default_cap_refuses_a_huge_ansatz(self, capsys, stub):
        code, out, err = run(capsys, "basis", "--kind", "ordinary", "--rank", "4", "--m", "12")
        assert code == 2 and out == "" and not stub.specs
        assert err.startswith("error: the ansatz has 2484300 unknowns")

    @pytest.mark.parametrize(
        "kind, j, s, p, q, degree",
        [("ordinary", 0, 1, 1, 0, None), ("ordinary", 2, 3, 2, 1, None),
         ("conformal", 3, 1, 1, 3, None), ("conformal", 1, 2, 2, 0, 3),
         ("ordinary", 5, 1, 3, 0, 2)],
    )
    def test_estimate_is_the_unknown_count(self, capsys, stub, kind, j, s, p, q, degree):
        argv = ["basis", "--kind", kind, "--rank", str(j), "--order", str(s),
                "--p", str(p), "--q", str(q), "--max-unknowns", "0"]
        if degree is not None:
            argv += ["--max-degree", str(degree)]
        code, _, err = run(capsys, *argv)
        assert code == 2 and not stub.specs
        spec = AnsatzSpec(kind, j, s, Signature(p, q), degree)
        labels = unknown_labels(j, p + q, spec.resolved_degree())
        assert err.startswith(f"error: the ansatz has {len(labels)} unknowns")


class _Sink(io.TextIOBase):
    """A stdout that keeps only the size of each write and a digest of all."""

    def __init__(self):
        self.sizes = []
        self.digest = hashlib.sha256()

    def write(self, text):
        self.sizes.append(len(text))
        self.digest.update(text.encode())
        return len(text)


class TestStreamedReport:
    """Reports are written in pieces, with the bytes of the whole document."""

    @staticmethod
    def _basis_file(tmp_path, kind, j, sig):
        path = tmp_path / f"{kind}-{j}.json"
        path.write_text(json.dumps(solve_basis(AnsatzSpec(kind, j, 1, sig)).to_json()))
        return path

    @pytest.mark.parametrize(
        "command", ["basis-json", "basis-text", "verify", "op-check", "count", "prolong-rank"]
    )
    def test_bytes_of_the_whole_report(self, capsys, tmp_path, command):
        sig = Signature(2, 1)
        if command.startswith("basis"):
            fmt = command.removeprefix("basis-")
            argv = ["basis", "--kind", "conformal", "--rank", "1", "--p", "2", "--q", "1",
                    "--format", fmt]
            basis = solve_basis(AnsatzSpec("conformal", 1, 1, sig))
            if fmt == "json":
                want = json.dumps(basis.to_json(), indent=2) + "\n"
            else:
                want = f"conformal basis: j=1 s=1 signature=(2,1) degree<=2: {len(basis)} elements\n"
                want += "".join(json.dumps(el.to_json()) + "\n" for el in basis.elements)
        elif command == "verify":
            path = self._basis_file(tmp_path, "conformal", 2, sig)
            argv = ["verify", str(path), "--format", "json"]
            basis = Basis.from_json(json.loads(path.read_text()))
            payload = {"kind": "conformal", "j": 2, "s": 1, "signature": [2, 1],
                       "count": len(basis), "ok": True, "problems": verify_basis(basis)}
            want = json.dumps(payload, indent=2) + "\n"
        elif command == "op-check":
            path = self._basis_file(tmp_path, "conformal", 1, sig)
            argv = ["op-check", str(path), "--kappa2", "0", "--format", "json"]
            basis = Basis.from_json(json.loads(path.read_text()))
            L = kgf(sig, 0)
            reports = [check_symmetry(conformal_symmetry_operator(F), L) for F in basis.elements]
            results = [{"element": n, "is_symmetry": r.is_symmetry, "alpha": r.alpha.to_json()}
                       for n, r in enumerate(reports)]
            payload = {"kind": "conformal", "kappa2": "0", "count": len(basis),
                       "all_pass": True, "results": results}
            want = json.dumps(payload, indent=2) + "\n"
        elif command == "count":
            argv = ["count", "--kind", "ordinary", "--rank", "2", "--p", "2", "--q", "1",
                    "--solve", "--format", "json"]
            payload = {"kind": "ordinary", "m": 3, "j": 2, "s": 1, "count": 20,
                       "solved": 20, "match": True}
            want = json.dumps(payload, indent=2) + "\n"
        else:
            argv = ["prolong-rank", "--rank", "2", "--k", "1", "--p", "2", "--q", "1",
                    "--format", "json"]
            want = json.dumps(full_rank_check(2, 1, 1, sig).to_json(), indent=2) + "\n"
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == want
        target = tmp_path / "report"
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (0, "")
        assert target.read_text() == want

    def test_memory_is_bounded(self, monkeypatch):
        """The conformal j=2 (1,3) basis document is 283 KB.  No write holds
        half of it, and neither does the memory `_emit` allocates."""
        spec = AnsatzSpec("conformal", 2, 1, Signature(1, 3))
        body = json.dumps(solve_basis(spec).to_json(), indent=2) + "\n"
        emit, peaks = cli._emit, []

        def traced(*args):
            tracemalloc.start()
            try:
                emit(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        sink = _Sink()
        monkeypatch.setattr(cli, "_emit", traced)
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(["basis", "--kind", "conformal", "--rank", "2", "--p", "1", "--q", "3",
                     "--format", "json"])
        monkeypatch.undo()
        assert code == 0
        assert sink.digest.hexdigest() == hashlib.sha256(body.encode()).hexdigest()
        assert sum(sink.sizes) == len(body) > 250_000
        assert max(sink.sizes) < len(body) // 2
        assert len(peaks) == 1 and peaks[0] < len(body) // 2


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

    MIXED_PROBLEMS = [
        "element 1: rank/signature mismatch",
        "element 3: candidate field is not traceless",
        "element 5: nonzero residual at index (1, 1, 3), monomial (0, 0, 0), value -1/15",
        "elements are linearly dependent: element 7 lies in the span of the elements before it",
    ]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_mixed_problems_report(self, capsys, tmp_path, fmt):
        """One file with a signature mismatch (element 1), a trace (3), a bad
        residual (5), a duplicate (7 repeats 2) and a zero element (9)."""
        data = solve_basis(AnsatzSpec("conformal", 2, 1, Signature(2, 1))).to_json()
        els = data["elements"]
        els[1]["signature"] = [1, 2]
        els[3]["components"][0]["poly"][0]["num"] = "2"
        els[5]["components"][2]["poly"][0]["den"] = "3"
        els[7] = copy.deepcopy(els[2])
        els[9]["components"] = []
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path), "--format", fmt)
        assert code == 1
        assert err == "".join(p + "\n" for p in self.MIXED_PROBLEMS)
        if fmt == "json":
            head = '{\n  "kind": "conformal",\n  "j": 2,\n  "s": 1,\n  "signature": [\n    2,\n    1\n  ],\n'
            body = "".join(f'    "{p}",\n' for p in self.MIXED_PROBLEMS)[:-2]
            assert out == head + f'  "count": 35,\n  "ok": false,\n  "problems": [\n{body}\n  ]\n}}\n'
        else:
            assert out == "35 elements: FAILED\n" + err

    def test_unreadable_file_is_config_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
        assert code == 2

    @staticmethod
    def _component(data, index):
        """The first component entry with this index, over all elements."""
        return next(
            comp
            for el in data["elements"]
            for comp in el["components"]
            if comp["index"] == index
        )

    @staticmethod
    def _float_signature(data):
        data["elements"][0]["signature"] = [1, 3.0]

    @staticmethod
    def _float_exponent(data):
        term = data["elements"][0]["components"][0]["poly"][0]
        term["exps"][term["exps"].index(0)] = 0.0

    @staticmethod
    def _bool_exponent(data):
        term = data["elements"][0]["components"][0]["poly"][0]
        term["exps"][term["exps"].index(0)] = True

    @classmethod
    def _float_index(cls, data):
        cls._component(data, [1, 2])["index"] = [1.0, 2]

    @staticmethod
    def _repeated_term(data):
        poly = data["elements"][0]["components"][0]["poly"]
        poly.append(dict(poly[0]))

    @staticmethod
    def _repeated_zero_term(data):
        poly = data["elements"][0]["components"][0]["poly"]
        poly.append({**poly[0], "num": "0"})

    @staticmethod
    def _repeated_index(data):
        comps = data["elements"][0]["components"]
        comps.append(comps[0])

    @staticmethod
    def _float_j(data):
        data["j"] = 2.0

    @pytest.mark.parametrize(
        "fault",
        [
            "_float_signature",
            "_float_exponent",
            "_bool_exponent",
            "_float_index",
            "_repeated_term",
            "_repeated_zero_term",
            "_repeated_index",
            "_float_j",
        ],
    )
    def test_malformed_file_exits_two(self, capsys, tmp_path, fault):
        self._assert_exits_two(capsys, tmp_path, getattr(self, fault))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num", " 1 "),
            ("num", "1_0"),
            ("num", "+1"),
            ("num", "\u0661"),
            ("num", "1.5"),
            ("num", ""),
            ("den", "-2"),
            ("den", "0"),
            ("den", "00"),
            ("den", "\u0662"),
        ],
    )
    def test_non_integer_string_exits_two(self, capsys, tmp_path, key, value):
        def mutate(data):
            data["elements"][0]["components"][0]["poly"][0][key] = value

        self._assert_exits_two(capsys, tmp_path, mutate)

    @staticmethod
    def _assert_exits_two(capsys, tmp_path, mutate):
        path = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "basis", "--p", "1", "--q", "3", "--rank", "2", "--kind", "ordinary",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert list(json.loads(lines[0])) == ["error"]


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

    @pytest.mark.parametrize(
        "key, value", [("signature", [2, 1]), ("j", 1)], ids=["signature", "j"]
    )
    def test_element_mismatch_is_config_error(self, capsys, tmp_path, key, value):
        """An element whose rank or signature differs from the file's is
        refused, as `verify` reports it."""
        data = copy.deepcopy(_small_basis_json())
        data[key] = value
        path = tmp_path / "b.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "op-check", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "element 0: rank/signature mismatch"}

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

    @pytest.mark.parametrize("command", ["verify", "op-check"])
    def test_deep_nesting_exits_two(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text('{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert (code, out) == (2, "")
        assert "recursion" in json.loads(err)["error"]


@functools.cache
def _small_basis_json() -> dict:
    """Ordinary rank-2 Killing tensors on R^{1,1}: six elements with rank-2 indices."""
    return solve_basis(AnsatzSpec("ordinary", 2, 1, Signature(1, 1))).to_json()


def _paths(node, path=()):
    """The key paths of every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


# Replacement values: wrong types, a zero denominator ("0"), out-of-range or
# disagreeing ints (rank, index entry, signature, count), an unsorted index,
# and the empty string and object, which are no empty array.
_JUNK = [None, True, 1.5, -1, 0, 2, 7, "0", "x", "", [], {}, "conformal", [2, 1]]


def _mutate(doc, path, op, junk):
    """doc with one node dropped, replaced, repeated in its list, or reversed."""
    if not path:
        return junk if op == "replace" else doc
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = junk
    elif op == "repeat" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif op == "reverse" and isinstance(parent[key], list):
        parent[key].reverse()
    return doc


class TestVerifyFuzz:
    """Any mutation of a valid basis file ends in exit 0, 1 or 2, never a raise,
    on both commands that read one."""

    @pytest.mark.parametrize("command", ["verify", "op-check"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_basis_never_raises(self, command, data):
        doc = copy.deepcopy(_small_basis_json())
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_paths(doc))))
            op = data.draw(st.sampled_from(["drop", "replace", "repeat", "reverse"]))
            doc = _mutate(doc, path, op, copy.deepcopy(data.draw(st.sampled_from(_JUNK))))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "b.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, path, "--format", "json"])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert list(json.loads(err.getvalue())) == ["error"]


class TestNonArrayJson:
    """A string or an object where the format has an array is an error, not
    an empty array: exit 2 with one JSON error, or a ValueError."""

    # the path to the array, and the basis it is in: elements with a count
    # of 0, which the parent read as a valid empty basis; and a rank-0 basis,
    # whose index the parent read as () from ""
    RANK1 = ("--m", "3", "--rank", "1", "--kind", "ordinary")
    CASES = {
        "elements": (RANK1, ("elements",)),
        "components": (RANK1, ("elements", 0, "components")),
        "poly": (RANK1, ("elements", 0, "components", 0, "poly")),
        "index": (("--m", "2", "--rank", "0", "--kind", "ordinary"),
                  ("elements", 0, "components", 0, "index")),
    }

    @pytest.mark.parametrize("junk", ["", {}], ids=["string", "object"])
    @pytest.mark.parametrize("where", sorted(CASES))
    def test_basis_file_exits_two(self, capsys, tmp_path, where, junk):
        args, keys = self.CASES[where]
        path = tmp_path / "b.json"
        code, _, _ = run(capsys, "basis", *args, "--format", "json", "--output", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        functools.reduce(lambda node, key: node[key], keys[:-1], data)[keys[-1]] = junk
        if where == "elements":
            data["count"] = 0
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path), "--format", "json")
        assert (code, out) == (2, "")
        assert "must be a JSON array" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "read",
        [
            lambda: WeylOp.from_json("", 2),
            lambda: WeylOp.from_json({}, 2),
            lambda: ProlongedSystem.from_json(
                {**prolong(1, 1, 1, Signature(1, 1)).to_json(), "entries": {}}, 1, 1, 1, Signature(1, 1)
            ),
            # these raised TypeError or KeyError
            lambda: Poly.from_json([{"exps": None, "num": "1", "den": "1"}], 2),
            lambda: WeylOp.from_json([1], 2),
            lambda: WeylOp.from_json([{"x_exps": [0, 0], "num": "1", "den": "1"}], 2),
            lambda: SymTensorField.from_json(
                {"rank": 1, "signature": [1, 1], "components": [{"index": 1, "poly": []}]}
            ),
        ],
        ids=["weylop-string", "weylop-object", "prolonged-entries-object", "poly-exps-null",
             "weylop-int-term", "weylop-no-d-exps", "field-int-index"],
    )
    def test_reader_raises_value_error(self, read):
        with pytest.raises(ValueError):
            read()


@functools.cache
def _weylop_json() -> list:
    """A WeylOp with x, d, mixed and constant terms on R^{1,1}."""
    F = SymTensorField(2, Signature(1, 1), {(1, 2): Poly.from_json(
        [{"exps": [1, 0], "num": "3", "den": "7"}, {"exps": [0, 0], "num": "-1", "den": "1"}], 2
    )})
    return build_symmetry_operator(F).to_json()


_PROLONGED = (1, 1, 1, Signature(1, 1))
_READERS = {
    "weylop": (_weylop_json, lambda doc: WeylOp.from_json(doc, 2)),
    "prolonged": (lambda: prolong(*_PROLONGED).to_json(),
                  lambda doc: ProlongedSystem.from_json(doc, *_PROLONGED)),
}


class TestReaderFuzz:
    """Any mutation of a valid WeylOp or ProlongedSystem document ends in a
    ValueError or in an object that reads back the same from its own JSON."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutation_reads_or_raises_value_error(self, reader, data):
        make, read = _READERS[reader]
        doc = copy.deepcopy(make())
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_paths(doc))))
            op = data.draw(st.sampled_from(["drop", "replace", "repeat", "reverse"]))
            doc = _mutate(doc, path, op, copy.deepcopy(data.draw(st.sampled_from(_JUNK))))
        try:
            obj = read(doc)
        except ValueError:
            return
        assert read(obj.to_json()) == obj


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

    def test_oversized_system_refused(self):
        """j=6 k=12 on m=12 asks for a 43 028 530 272 x 30 892 278 144 system;
        prolong-rank refuses it from the two counts, before it builds a row."""
        proc = subprocess.run(
            [sys.executable, "-m", "ktk.cli", "prolong-rank", "--rank", "6", "--k", "12",
             "--order", "1", "--m", "12", "--format", "json"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {
            "error": "the prolonged system has N_e = 43028530272 equations and "
            "N_u = 30892278144 unknowns, more than the cap of 20000"
        }

    def test_paper_size_runs(self, capsys):
        code, out, _ = run(
            capsys, "prolong-rank", "--p", "1", "--q", "3", "--rank", "4", "--k", "4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["N_e"], data["N_u"], data["rank"]) == (1960, 1960, 1960)


@pytest.mark.parametrize("command", ["verify", "op-check"])
def test_wide_signature_file_finishes(tmp_path, command):
    """On signature [48, 0] a file costs what its one element costs: `verify`
    of a constant rank-3 element inverts no matrix and builds no stencil of
    all C(50, 3) indices, and `op-check` of x^1 at index (1,) enumerates the
    C(50, 2) monomials of degree <= 2, not the 3^48 tuples of their box."""
    sig = Signature(48, 0)
    if command == "verify":
        basis = Basis("conformal", 3, 1, sig, [SymTensorField(3, sig, {(1, 2, 3): 1})], 4)
    else:
        x1 = SymTensorField(1, sig, {(1,): Poly.variable(1, 48)})
        basis = Basis("conformal", 1, 1, sig, [x1], 2)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(basis.to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "ktk.cli", command, str(path), "--format", "json"],
        capture_output=True, text=True, timeout=10,
    )
    if command == "verify":
        assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True
    else:
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {
            "error": "element 0: field does not extend to a symmetry operator"
        }


def test_op_check_refuses_oversized_completion(tmp_path):
    """One x1^20 term at index (1, 1, 2) of a conformal j=3 (1,3) file asks
    for a completion of C(6, 4) * C(24, 4) = 159 390 units; op-check
    refuses it before building any block, with exit 2 and one error."""
    sig = Signature(1, 3)
    F = SymTensorField(3, sig, {(1, 1, 2): Poly.monomial((20, 0, 0, 0))})
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(Basis("conformal", 3, 1, sig, [F], 20).to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "ktk.cli", "op-check", str(path), "--format", "json"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {
        "error": "element 0: its operator completion has 159390 unknowns, "
        "more than the cap of 20000"
    }


def test_op_check_reports_wrong_rank_before_size(capsys, tmp_path):
    """Element 0 of a conformal j=2 (1,3) file with rank 30 would ask for
    C(33, 4) = 40 920 units, but its rank is the fault that op-check names."""
    data = solve_basis(AnsatzSpec("conformal", 2, 1, Signature(1, 3))).to_json()
    el = data["elements"][0]
    el["rank"] = 30
    el["components"] = [{**el["components"][0], "index": [1] * 30}]
    path = tmp_path / "rank30.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "op-check", str(path), "--format", "json")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "element 0: rank/signature mismatch"}


@pytest.mark.parametrize("rank, degree", [(2, 4), (4, 8)])
def test_op_check_admits_the_paper_completion_keys(monkeypatch, capsys, rank, degree):
    """The size check admits the keys of the paper's tables: conformal j=2
    (1,3) at degree 4 (350 units) and j=4 (1,3) at degree 8 (17 325 units)."""
    sig = Signature(1, 3)
    F = SymTensorField(rank, sig, {(1,) * rank: Poly.monomial((degree, 0, 0, 0))})
    basis = Basis("conformal", rank, 1, sig, [F], degree)
    monkeypatch.setattr(cli, "_load_basis", lambda path: basis)

    def stop(F):
        raise ValueError("stopped after the size check")

    monkeypatch.setattr(cli, "conformal_symmetry_operator", stop)
    assert cli.main(["op-check", "unused.json"]) == 2
    assert capsys.readouterr().err == "error: element 0: stopped after the size check\n"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ktk.cli", "count", "--m", "4",
         "--kind", "ordinary", "--rank", "4", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 490
