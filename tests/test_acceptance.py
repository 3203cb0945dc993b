"""Acceptance gate: ten binding criteria, one printed PASS/FAIL line each.

Each test prints exactly one status line (visible with `pytest -v -s` or in
the captured output) and fails the build if its criterion is not met.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from ktk import (
    Poly,
    Signature,
    build_symmetry_operator,
    check_symmetry,
    commutator,
    conformal_residual,
    conformal_symmetry_operator,
    count,
    full_rank_check,
    kgf,
    killing_residual,
    killing_vectors,
    lemma1_product,
    lemma2_product,
    lemma3_scale,
    lemma4_contract,
    lemma5_scale,
    lie_closure_check,
    saturation_check,
    solve_basis,
    verify_basis,
    x_squared,
)
from ktk.cli import main as cli_main
from ktk.solver import AnsatzSpec, fields_to_vectors, same_span, span_dim

from conftest import EUCLID, M4_SIGS, SIGS_BY_M, random_solution, solution_family
from test_fixtures_m3 import conformal_family, ordinary_family

MIXED = {1: Signature(1, 0), 2: Signature(1, 1), 3: Signature(2, 1), 4: Signature(1, 3)}


def _criterion(n, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {n}] {status} - {description}", flush=True)
    assert not failures, f"criterion {n} ({description}): " + "; ".join(
        str(f) for f in failures[:12]
    )


@lru_cache(maxsize=None)
def _solved(kind, j, s, p, q, max_degree=None):
    return solve_basis(AnsatzSpec(kind, j, s, Signature(p, q), max_degree))


def test_criterion_01_operator_count_table():
    table = {
        (2, 1): 4, (2, 2): 9, (2, 3): 16, (2, 4): 25,
        (3, 1): 7, (3, 2): 26, (3, 3): 70, (3, 4): 155,
        (4, 1): 11, (4, 2): 60, (4, 3): 225, (4, 4): 665,
    }
    failures = []
    t0 = time.perf_counter()
    for (m, n), expect in table.items():
        got = count("symmetry-operator", m, n)
        if got != expect:
            failures.append(f"(m={m}, n={n}): {got} != {expect}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _criterion(1, "operator totals match the 12 tabulated values", failures)


def test_criterion_02_conformal_count_tables():
    failures = []
    t0 = time.perf_counter()
    families = {
        (3, 1): 10, (3, 2): 35, (3, 3): 84,
        (4, 1): 15, (4, 2): 84, (4, 3): 300,
    }
    for (m, j), expect in families.items():
        got = count("conformal", m, j)
        if got != expect:
            failures.append(f"conformal (m={m}, j={j}): {got} != {expect}")
    totals = {
        3: [1, 11, 46, 130, 295],
        4: [1, 16, 100, 400, 1225],
    }
    for m, values in totals.items():
        for n, expect in enumerate(values):
            got = count("symmetry-operator-conformal", m, n)
            if got != expect:
                failures.append(f"conformal totals (m={m}, n={n}): {got} != {expect}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _criterion(2, "conformal family and cumulative operator tables match", failures)


def test_criterion_03_solver_matches_formulas():
    failures = []

    def compare(kind, j, s, sig):
        expect = count(kind, sig.m, j, s)
        got = len(_solved(kind, j, s, sig.p, sig.q))
        if got != expect:
            failures.append(f"{kind} j={j} s={s} m={sig.m}: solver {got} != {expect}")

    for m in (1, 2, 3, 4):
        for j in range(4):
            compare("ordinary", j, 1, MIXED[m])
    for m in (1, 2, 3):
        compare("ordinary", 4, 1, MIXED[m])
    for m in (1, 2, 3, 4):
        for j in range(3):
            for s in (1, 2):
                compare("ordinary", j, s, MIXED[m])
    for m in (3, 4):
        for j in range(4):
            compare("conformal", j, 1, MIXED[m])
    # frozen anchors, independent of the counting implementation
    anchors = {
        ("ordinary", 1, 1, 4): 10,
        ("ordinary", 2, 1, 4): 50,
        ("conformal", 1, 1, 4): 15,
        ("conformal", 3, 1, 3): 84,
    }
    for (kind, j, s, m), expect in anchors.items():
        got = len(_solved(kind, j, s, MIXED[m].p, MIXED[m].q))
        if got != expect:
            failures.append(f"anchor {kind} j={j} m={m}: {got} != {expect}")
    _criterion(3, "solver dimensions equal the counting formulas", failures)


@pytest.mark.long
def test_criterion_03_long_top_rank_spacetime():
    failures = []
    t0 = time.perf_counter()
    got = len(_solved("ordinary", 4, 1, 1, 3))
    if got != 490:
        failures.append(f"ordinary j=4 s=1 m=4: solver {got} != 490")
    elapsed = time.perf_counter() - t0
    if elapsed > 60:
        failures.append(f"took {elapsed:.0f}s, budget 60s")
    _criterion("3-long", "rank-4 spacetime family has dimension 490", failures)


def test_criterion_04_residual_exactness():
    failures = []
    emitted = []
    for m in (2, 3):
        for sig in SIGS_BY_M[m]:
            for j, s in [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2)]:
                emitted.append(_solved("ordinary", j, s, sig.p, sig.q))
                emitted.append(solution_family("ordinary", j, s, sig.p, sig.q))
    for sig in M4_SIGS:
        emitted.append(_solved("ordinary", 2, 1, sig.p, sig.q))
        emitted.append(_solved("conformal", 1, 1, sig.p, sig.q))
    for sig in SIGS_BY_M[3]:
        for j, s in [(0, 2), (1, 2), (2, 1)]:
            emitted.append(_solved("conformal", j, s, sig.p, sig.q))
            emitted.append(solution_family("conformal", j, s, sig.p, sig.q))
    for d in (2, 4):
        emitted.append(_solved("conformal", 1, 1, 2, 0, d))
    for basis in emitted:
        problems = verify_basis(basis)
        if problems:
            failures.append(
                f"{basis.kind} j={basis.j} s={basis.s} "
                f"({basis.signature.p},{basis.signature.q}): {problems[0]}"
            )
    checked = sum(len(b) for b in emitted)
    assert checked > 700
    _criterion(4, f"all {checked} emitted basis elements have exact zero residual", failures)


def test_criterion_05_prolongation_full_rank():
    failures = []
    for m in (1, 2, 3, 4):
        sig = MIXED[m]
        for j in range(5):
            for k in range(j + 1):
                report = full_rank_check(j, k, 1, sig)
                if not report.full_row_rank:
                    failures.append(f"(j={j}, k={k}, s=1, m={m}): rank {report.rank} < {report.n_e}")
        for j in range(4):
            for k in range(j + 1):
                for s in (1, 2):
                    report = full_rank_check(j, k, s, sig)
                    if not report.full_row_rank:
                        failures.append(
                            f"(j={j}, k={k}, s={s}, m={m}): rank {report.rank} < {report.n_e}"
                        )
    _criterion(5, "prolonged systems have full row rank on the sweep", failures)


def test_criterion_06_lemma_property_suite():
    failures = []
    rng = random.Random(20260814)

    def pick_sig(ms):
        m = rng.choice(ms)
        return rng.choice(SIGS_BY_M[m])

    raised_3, raised_4 = 0, 0
    for n in range(100):
        # product of an order-1 solution with a generator vector
        sig = pick_sig([2, 3])
        j = rng.choice([1, 2])
        F = random_solution(rng, "ordinary", j, 1, sig)
        V = random_solution(rng, "ordinary", 1, 1, sig)
        P = lemma1_product(F, V)
        if P.rank != j + 1 or not killing_residual(P, 1).is_zero():
            failures.append(f"lemma1 #{n}")

        # traceless product of conformal solutions
        sig = pick_sig([3, 4])
        F = random_solution(rng, "conformal", 1, 1, sig)
        V = random_solution(rng, "conformal", 1, 1, sig)
        P = lemma2_product(F, V)
        if not conformal_residual(P, 1).is_zero():
            failures.append(f"lemma2 #{n}")

        # affine scaling raises the order by one
        sig = pick_sig([2, 3])
        j, s = rng.choice([(1, 1), (2, 1), (1, 2), (0, 2)])
        F = random_solution(rng, "ordinary", j, s, sig)
        phi = Poly.constant(sig.m, rng.randint(-2, 2))
        for a in range(1, sig.m + 1):
            phi = phi + Poly.variable(a, sig.m).scale(rng.randint(-2, 2))
        out = lemma3_scale(F, phi, order=s)
        if not killing_residual(out, s + 1).is_zero():
            failures.append(f"lemma3 #{n}")
        if not killing_residual(out, s).is_zero():
            raised_3 += 1

        # coordinate contraction trades one rank for one order
        sig = pick_sig([2, 3])
        j, s = rng.choice([(1, 1), (2, 1), (1, 2)])
        F = random_solution(rng, "ordinary", j, s, sig)
        out = lemma4_contract(F, order=s)
        if out.rank != j - 1 or not killing_residual(out, s + 1).is_zero():
            failures.append(f"lemma4 #{n}")
        if not killing_residual(out, s).is_zero():
            raised_4 += 1

        # metric-Hessian scaling in the conformal family
        sig = pick_sig([3, 4])
        j, s = rng.choice([(1, 1), (0, 2)])
        F = random_solution(rng, "conformal", j, s, sig)
        phi = x_squared(sig).scale(rng.randint(-2, 2))
        phi = phi + Poly.constant(sig.m, rng.randint(0, 2))
        for a in range(1, sig.m + 1):
            phi = phi + Poly.variable(a, sig.m).scale(rng.randint(-2, 2))
        out = lemma5_scale(F, phi, order=s)
        if not conformal_residual(out, s + 1).is_zero():
            failures.append(f"lemma5 #{n}")

    if raised_3 < 30:
        failures.append(f"lemma3 raised the order in only {raised_3}/100 cases")
    if raised_4 < 30:
        failures.append(f"lemma4 raised the order in only {raised_4}/100 cases")
    _criterion(6, "100 randomized instances per construction lemma", failures)


def test_criterion_07_operator_suite():
    failures = []
    for m in (2, 3, 4):
        for sig in SIGS_BY_M[m]:
            box = kgf(sig).as_weyl()
            for j in (0, 1, 2):
                for el in solution_family("ordinary", j, 1, sig.p, sig.q).elements:
                    if not commutator(build_symmetry_operator(el), box).is_zero():
                        failures.append(f"ordinary j={j} ({sig.p},{sig.q})")
    for sig in (EUCLID[3], Signature(2, 1), Signature(1, 3), Signature(2, 2)):
        L = kgf(sig)
        for j in (0, 1, 2):
            for el in solution_family("conformal", j, 1, sig.p, sig.q).elements:
                rep = check_symmetry(conformal_symmetry_operator(el), L)
                if not rep.is_symmetry or not rep.remainder.is_zero():
                    failures.append(f"conformal j={j} ({sig.p},{sig.q})")
    for sig in M4_SIGS:
        ops = [build_symmetry_operator(el) for el in killing_vectors(sig).elements]
        if not lie_closure_check(ops):
            failures.append(f"closure ({sig.p},{sig.q})")
    _criterion(7, "operator brackets, conformal checks and algebra closure", failures)


def test_criterion_08_catalogued_families():
    failures = []
    expectations = {
        "ordinary": {1: 6, 2: 20, 3: 45},
        "conformal": {1: 10, 2: 35, 3: 81},
    }
    for kind, per_order in expectations.items():
        build = ordinary_family if kind == "ordinary" else conformal_family
        bound = lambda s: s if kind == "ordinary" else 2 * s
        for s, expect in per_order.items():
            family = build(s)
            for n, F in enumerate(family):
                res = (
                    killing_residual(F, s)
                    if kind == "ordinary"
                    else conformal_residual(F, s)
                )
                if not res.is_zero():
                    failures.append(f"{kind} s={s} fixture #{n}: nonzero residual")
            vecs = fields_to_vectors(family, 1, 3, bound(s))
            dim = span_dim(vecs)
            if dim != expect:
                failures.append(f"{kind} s={s}: fixture span {dim} != {expect}")
            if dim != count(kind, 3, 1, s):
                failures.append(f"{kind} s={s}: fixture span differs from formula")
            solved = _solved(kind, 1, s, 3, 0)
            solver_vecs = fields_to_vectors(solved.elements, 1, 3, bound(s))
            if not same_span(vecs, solver_vecs):
                failures.append(f"{kind} s={s}: fixture span != solver span")
    # the formula value at (j=1, s=2) is confirmed by degree saturation
    if not saturation_check(AnsatzSpec("conformal", 1, 2, EUCLID[3])):
        failures.append("conformal (j=1, s=2) dimension moves past the degree bound")
    _criterion(8, "catalogued m=3 families match the solver spans", failures)


def test_criterion_09_plane_conformal_degeneracy(capsys):
    failures = []
    dims = [len(_solved("conformal", 1, 1, 2, 0, d)) for d in (2, 4, 6)]
    if not (dims[0] < dims[1] < dims[2]):
        failures.append(f"dimensions {dims} are not strictly increasing")
    code = cli_main(["basis", "--m", "2", "--rank", "1", "--kind", "conformal"])
    captured = capsys.readouterr()
    if code != 2:
        failures.append(f"CLI accepted the unbounded call (exit {code})")
    if "max_degree" not in captured.err:
        failures.append("CLI refusal does not explain the missing degree bound")
    _criterion(9, f"plane conformal dimensions grow without bound {dims}", failures)


def test_criterion_10_deterministic_artifacts(tmp_path):
    failures = []

    def lib_fingerprint():
        parts = []
        for kind, j, s, sig in [
            ("ordinary", 2, 1, Signature(1, 2)),
            ("conformal", 1, 1, Signature(1, 3)),
            ("ordinary", 1, 2, Signature(1, 1)),
        ]:
            basis = solve_basis(AnsatzSpec(kind, j, s, sig))
            parts.append(json.dumps(basis.to_json(), sort_keys=True))
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    if lib_fingerprint() != lib_fingerprint():
        failures.append("library artifacts differ between runs")

    # The child runs the checkout this test file belongs to, from wherever
    # pytest was started; its env holds only PATH and PYTHONPATH.
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )

    def cli_fingerprint():
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath}
        blob = b""
        for argv in (
            ["basis", "--p", "1", "--q", "2", "--rank", "2", "--kind", "ordinary",
             "--format", "json"],
            ["basis", "--p", "1", "--q", "2", "--rank", "2", "--kind", "ordinary",
             "--format", "text"],
            ["count", "--m", "3", "--kind", "conformal", "--rank", "2", "--format", "json"],
            ["prolong-rank", "--p", "2", "--q", "1", "--rank", "2", "--k", "1",
             "--format", "json"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "ktk.cli", *argv],
                capture_output=True, env=env, cwd=root,
            )
            if proc.returncode != 0:
                tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
                failures.append(f"cli {argv[0]} exited {proc.returncode}: " + " | ".join(tail))
            blob += proc.stdout
        return hashlib.sha256(blob).hexdigest()

    if cli_fingerprint() != cli_fingerprint():
        failures.append("CLI artifacts differ between runs")
    _criterion(10, "repeated runs emit byte-identical JSON artifacts", failures)
