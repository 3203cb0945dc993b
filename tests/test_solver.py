"""Exact linear algebra and degree-bounded basis solving."""

import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ktk.solver
from ktk import (
    Basis,
    Poly,
    Signature,
    SymTensorField,
    full_rank_check,
    nullspace,
    saturation_check,
    solve_basis,
    verify_basis,
)
from ktk.exactalg import clear_row
from ktk.solver import (
    AnsatzSpec,
    _ansatz_rows,
    _content_key,
    _solve_blocks,
    _split_blocks,
    field_vector,
    in_rational_span,
    independent_subset,
    matrix_rank,
    monomials_upto,
    same_span,
    span_dim,
    system_rank,
    unknown_labels,
)
from ktk.equations import ProlongedSystem, prolong

from conftest import (
    EUCLID,
    M4_SIGS,
    SIGS_BY_M,
    all_blocks_nullspace,
    generative_basis,
    projection_columns,
    reference_conformal_rows,
    reference_residual_rows,
    verify_basis_per_element,
)


def gauss_rank(matrix):
    """Plain fraction Gaussian elimination, used as an independent oracle."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        eye = [[1 if i == c else 0 for c in range(3)] for i in range(3)]
        assert nullspace(eye) == []

    def test_zero_matrix_has_full_kernel(self):
        vecs = nullspace([[0] * 4, [0] * 4])
        assert len(vecs) == 4
        assert vecs == [[1 if i == c else 0 for c in range(4)] for i in range(4)]

    def test_rank_one_line(self):
        vecs = nullspace([[1, 1], [2, 2]])
        assert len(vecs) == 1
        assert vecs[0] == [1, -1]

    def test_rational_entries(self):
        vecs = nullspace([[Fraction(1, 2), Fraction(1, 3)]])
        assert len(vecs) == 1
        v = vecs[0]
        assert Fraction(1, 2) * v[0] + Fraction(1, 3) * v[1] == 0

    def test_random_matrices_against_oracle(self):
        rng = random.Random(42)
        for _ in range(40):
            n_r, n_c = rng.randint(1, 6), rng.randint(1, 6)
            mat = [[rng.randint(-4, 4) for _ in range(n_c)] for _ in range(n_r)]
            vecs = nullspace(mat)
            r = matrix_rank(mat)
            assert r == gauss_rank(mat)
            assert len(vecs) == n_c - r
            for vec in vecs:
                for row in mat:
                    assert sum(a * b for a, b in zip(row, vec)) == 0
            assert span_dim([{i: x for i, x in enumerate(vec) if x} for vec in vecs]) == len(vecs)
            # reduced echelon form: a 1 at each leading column, zeros at the
            # other vectors' leading columns, vectors ordered by leading column
            leads = [next(c for c, x in enumerate(vec) if x) for vec in vecs]
            assert leads == sorted(set(leads))
            for vec, lead in zip(vecs, leads):
                assert vec[lead] == 1
                assert all(vec[c] == 0 for c in leads if c != lead)

    def test_deterministic(self):
        mat = [[3, 1, -2, 0], [0, 2, 2, 2]]
        assert nullspace(mat) == nullspace(mat)


class TestSpanHelpers:
    def test_span_dim_and_same_span(self):
        a = {0: Fraction(1), 1: Fraction(2)}
        b = {1: Fraction(1)}
        c = {0: Fraction(2), 1: Fraction(4)}
        assert span_dim([a, b]) == 2
        assert same_span([a, c], [a])
        assert not same_span([a, b], [a])

    def test_independent_subset(self):
        a = {0: Fraction(1)}
        c = {0: Fraction(3)}
        b = {1: Fraction(1)}
        assert independent_subset([a, c, b]) == [0, 2]
        assert independent_subset([{}, c, a, b]) == [1, 3]

    def test_in_rational_span(self):
        a = {0: Fraction(1), 1: Fraction(1)}
        b = {1: Fraction(1)}
        coeffs = in_rational_span([a, b], {0: Fraction(2), 1: Fraction(5)})
        assert coeffs == [Fraction(2), Fraction(3)]
        assert in_rational_span([a, b], {2: Fraction(1)}) is None

    def test_in_rational_span_dependent_column_is_zero(self):
        a = {0: Fraction(1), 1: Fraction(1)}
        b = {1: Fraction(1)}
        # the dependent column 2a is free, and free columns default to zero
        coeffs = in_rational_span([a, {0: 2, 1: 2}, b], {0: Fraction(2), 1: Fraction(5)})
        assert coeffs == [Fraction(2), Fraction(0), Fraction(3)]


def test_block_crossing_row_raises_under_optimize():
    """The block check is an explicit raise, so it survives python -O."""
    import ktk

    src = str(Path(ktk.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from ktk.solver import _solve_blocks\n"
        "from ktk.tensors import Signature\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        "    _solve_blocks(['a', 'b'], {'r': {0: 1, 1: 1}}, lambda u: u, Signature(2, 0))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "row crosses block boundary"]


def test_verify_basis_reports_under_optimize():
    """Every verify_basis check is a branch, so it survives python -O."""
    import ktk

    src = str(Path(ktk.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from ktk import Poly, Signature, SymTensorField, solve_basis, verify_basis\n"
        "from ktk.solver import AnsatzSpec\n"
        "print(sys.flags.optimize)\n"
        "sig = Signature(2, 0)\n"
        "bad, zero, dup = (solve_basis(AnsatzSpec('ordinary', 1, 1, sig)) for _ in range(3))\n"
        "bad.elements[0] += SymTensorField(1, sig, {(1,): Poly.monomial((1, 0))})\n"
        "zero.elements[1] = SymTensorField(1, sig, {})\n"
        "dup.elements[2] = dup.elements[0]\n"
        "for basis in (bad, zero, dup):\n"
        "    print(verify_basis(basis))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    dependent = "elements are linearly dependent: element {} lies in the span of the elements before it"
    assert proc.stdout.splitlines() == [
        "1",
        str(["element 0: nonzero residual at index (1, 1), monomial (0, 0), value 2"]),
        str([dependent.format(1)]),
        str([dependent.format(2)]),
    ]


class TestAnsatz:
    def test_monomials_graded(self):
        mons = monomials_upto(2, 2)
        assert mons[0] == (0, 0)
        assert len(mons) == 6
        degs = [sum(e) for e in mons]
        assert degs == sorted(degs)

    def test_unknown_labels_cover_ansatz(self):
        labels = unknown_labels(1, 2, 1)
        assert len(labels) == 2 * 3
        assert labels[0][1] == (0, 0)

    def test_field_vector_degree_guard(self):
        from ktk import Poly, SymTensorField

        F = SymTensorField(1, EUCLID[2], {(1,): Poly.monomial((2, 0))})
        with pytest.raises(ValueError, match="degree bound"):
            field_vector(F, unknown_labels(1, 2, 1))

    def test_conformal_low_dimension_needs_degree(self):
        spec = AnsatzSpec("conformal", 1, 1, EUCLID[2])
        with pytest.raises(ValueError, match="max_degree"):
            spec.resolved_degree()
        assert AnsatzSpec("conformal", 1, 1, EUCLID[2], max_degree=4).resolved_degree() == 4

    def test_ordinary_degree_bound(self):
        assert AnsatzSpec("ordinary", 2, 1, EUCLID[3]).resolved_degree() == 2
        assert AnsatzSpec("conformal", 1, 1, EUCLID[3]).resolved_degree() == 2

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown kind 'nope'"):
            AnsatzSpec("nope", 1, 1, EUCLID[2])


def reference_projected_rows(spec: AnsatzSpec, pos: dict) -> dict:
    """The residual rows of each monomial projected with the dense Fraction
    columns, in order of monomial then index, each cleared to integers."""
    columns = projection_columns(spec.j + spec.s, spec.signature)
    by_beta: dict = {}
    for (K, beta), row in reference_residual_rows(spec, pos).items():
        by_beta.setdefault(beta, {})[K] = row
    out = {}
    for beta, krows in by_beta.items():
        projected: dict = {}
        for K, row in krows.items():
            for K2, v in columns[K]:
                acc = projected.setdefault(K2, {})
                for u, c in row.items():
                    acc[u] = acc.get(u, 0) + v * c
        for K2 in sorted(projected):
            out[(K2, beta)] = clear_row({u: c for u, c in projected[K2].items() if c})
    return out


@pytest.mark.parametrize(
    "j, s, sig",
    [
        (j, s, Signature(p, q))
        for p, q in ((3, 0), (2, 1), (2, 2), (1, 3))
        for j, s in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2))
    ],
    ids=str,
)
def test_conformal_rows_equal_cleared_dense_projection(j, s, sig):
    """The integer ansatz rows projected in closed form are, key for key
    and in order, the rows the dense projector columns give once cleared."""
    spec = AnsatzSpec("conformal", j, s, sig)
    labels = unknown_labels(j, sig.m, spec.resolved_degree())
    pos = {lab: n for n, lab in enumerate(labels)}
    rows = _ansatz_rows(spec, labels)
    expect = reference_projected_rows(spec, pos)
    got = {key: row for key, row in rows.items() if key[0] != "trace"}
    assert list(got) == list(expect)
    assert got == expect
    assert list(rows)[: len(got)] == list(got)
    assert all(type(c) is int for row in rows.values() for c in row.values())


@pytest.mark.parametrize(
    "kind, j, s, sig, degree",
    [
        (kind, j, s, Signature(p, q), None)
        for kind in ("ordinary", "conformal")
        for p, q in ((3, 0), (2, 1), (2, 2), (1, 3))
        for j in range(4)
        for s in (1, 2)
    ]
    + [("conformal", j, s, Signature(1, 1), 3) for j in range(3) for s in (1, 2)],
    ids=str,
)
def test_ansatz_rows_equal_reference_builders(kind, j, s, sig, degree):
    """The rows of the merged residual pass equal, key for key, the rows built
    term by term (ordinary) or by per-monomial projection plus hand-made trace
    rows (conformal); for the conformal kind the key order is the same too,
    so the elimination sees the same rows in the same order.  The one
    exception is j = 0, s = 1: there the traceless residual is the plain one,
    whose reference rows come in the order the unknowns first meet them."""
    spec = AnsatzSpec(kind, j, s, sig, degree)
    degree = spec.resolved_degree()
    labels = unknown_labels(j, sig.m, degree)
    pos = {lab: n for n, lab in enumerate(labels)}
    rows = _ansatz_rows(spec, labels)
    if kind == "ordinary":
        assert rows == reference_residual_rows(spec, pos)
    else:
        expect = reference_conformal_rows(spec, degree, pos)
        assert rows == expect
        if j + s >= 2:
            assert list(rows) == list(expect)


class TestSolveBasis:
    def test_plane_isometries(self):
        basis = solve_basis(AnsatzSpec("ordinary", 1, 1, EUCLID[2]))
        assert len(basis) == 3

    def test_spacetime_isometries(self):
        basis = solve_basis(AnsatzSpec("ordinary", 1, 1, Signature(1, 3)))
        assert len(basis) == 10

    def test_spacetime_conformal_algebra(self):
        basis = solve_basis(AnsatzSpec("conformal", 1, 1, Signature(1, 3)))
        assert len(basis) == 15

    def test_every_element_verifies(self):
        for kind, j, s, sig in [
            ("ordinary", 2, 1, EUCLID[2]),
            ("ordinary", 1, 2, Signature(1, 1)),
            ("conformal", 1, 1, EUCLID[3]),
            ("conformal", 0, 2, Signature(2, 1)),
        ]:
            basis = solve_basis(AnsatzSpec(kind, j, s, sig))
            assert verify_basis(basis) == []

    def test_deterministic_output(self):
        spec = AnsatzSpec("ordinary", 2, 1, Signature(1, 2))
        a = json.dumps(solve_basis(spec).to_json(), sort_keys=True)
        b = json.dumps(solve_basis(spec).to_json(), sort_keys=True)
        assert a == b

    def test_degenerate_rank_zero(self):
        basis = solve_basis(AnsatzSpec("ordinary", 0, 1, EUCLID[3]))
        assert len(basis) == 1
        assert basis.elements[0].component(()).degree() == 0

    def test_signature_independence_of_dimension(self):
        for sig in SIGS_BY_M[3]:
            assert len(solve_basis(AnsatzSpec("ordinary", 1, 1, sig))) == 6
        for sig in SIGS_BY_M[4]:
            assert len(solve_basis(AnsatzSpec("conformal", 1, 1, sig))) == 15

    def test_conformal_higher_order_dimensions(self):
        expect = {
            (3, 0, 1): 1, (3, 0, 2): 5, (3, 1, 1): 10, (3, 1, 2): 35,
            (3, 2, 1): 35, (3, 2, 2): 105,
            (4, 0, 1): 1, (4, 0, 2): 6, (4, 1, 1): 15, (4, 1, 2): 64,
            (4, 2, 1): 84, (4, 2, 2): 300,
        }
        for (m, j, s), dim in expect.items():
            basis = solve_basis(AnsatzSpec("conformal", j, s, EUCLID[m]))
            assert len(basis) == dim, (m, j, s)


def _ansatz_system(kind, j, s, p, q, degree=None):
    """The arguments of `_solve_blocks` for one ansatz, as `solve_basis` passes them."""
    spec = AnsatzSpec(kind, j, s, Signature(p, q), degree)
    labels = unknown_labels(j, p + q, spec.resolved_degree())
    return labels, _ansatz_rows(spec, labels), lambda u: _content_key(*labels[u], p + q, kind)


@pytest.fixture
def direct_solves(monkeypatch):
    """The rows of each block that `_solve_blocks` eliminates itself, in order."""
    calls = []
    solve = ktk.solver._nullspace_sparse

    def counted(rows, n_cols):
        calls.append(rows)
        return solve(rows, n_cols)

    monkeypatch.setattr(ktk.solver, "_nullspace_sparse", counted)
    return calls


class TestOrbitSolve:
    """`_solve_blocks` eliminates one block per orbit of the sign-preserving
    axis permutations and maps its nullspace onto the other blocks."""

    @pytest.mark.parametrize(
        "p, q, orbits", [(1, 3, 28), (3, 1, 28), (2, 2, 31), (4, 0, 17)]
    )
    def test_one_direct_solve_per_orbit(self, direct_solves, p, q, orbits):
        labels, rows, key_of = _ansatz_system("conformal", 3, 1, p, q)
        _solve_blocks(labels, rows, key_of, Signature(p, q))
        blocks = _split_blocks([key_of(u) for u in range(len(labels))], rows.values())
        assert (len(direct_solves), len(blocks)) == (orbits, 56)

    @pytest.mark.parametrize(
        "kind, j, s, p, q", [("ordinary", 2, 2, 3, 0), ("conformal", 2, 1, 2, 2)]
    )
    def test_changed_mirror_block_is_solved_directly(self, direct_solves, kind, j, s, p, q):
        """One entry of one row of a mapped block is changed, so the row-set
        check fails: that block is eliminated on its own, and every vector
        still equals the all-blocks oracle on the changed rows."""
        sig = Signature(p, q)
        labels, rows, key_of = _ansatz_system(kind, j, s, p, q)
        before = _solve_blocks(labels, rows, key_of, sig)
        keys = [key_of(u) for u in range(len(labels))]
        mapped = next(
            key for key, (_, block_rows) in _split_blocks(keys, rows.values()).items()
            if block_rows and block_rows not in direct_solves
        )
        r, row = next((r, row) for r, row in rows.items() if row and keys[min(row)] == mapped)
        u = min(row)
        changed = {**rows, r: {**row, u: row[u] + 1}}
        direct_solves.clear()
        after = _solve_blocks(labels, changed, key_of, sig)
        assert _split_blocks(keys, changed.values())[mapped][1] in direct_solves
        assert after == all_blocks_nullspace(labels, changed, key_of)
        assert after != before

    @pytest.mark.parametrize("sig", [(3, 0), (2, 1), (1, 3), (2, 2), (4, 0), (1, 1)])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("kind", ["ordinary", "conformal"])
    def test_equals_all_blocks_oracle(self, kind, s, sig):
        p, q = sig
        degree = 4 if kind == "conformal" and p + q <= 2 else None
        for j in (1, 2):
            labels, rows, key_of = _ansatz_system(kind, j, s, p, q, degree)
            got = _solve_blocks(labels, rows, key_of, Signature(p, q))
            assert got == all_blocks_nullspace(labels, rows, key_of)


class TestSaturation:
    def test_ordinary_bound_is_sharp(self):
        assert saturation_check(AnsatzSpec("ordinary", 2, 1, EUCLID[3]))

    def test_conformal_bound_is_sharp(self):
        assert saturation_check(AnsatzSpec("conformal", 1, 1, EUCLID[3]))

    def test_plane_conformal_family_keeps_growing(self):
        assert not saturation_check(
            AnsatzSpec("conformal", 1, 1, EUCLID[2], max_degree=4)
        )


class TestRankChecks:
    def test_small_balanced_system(self):
        report = full_rank_check(1, 1, 1, EUCLID[2])
        assert (report.n_e, report.n_u) == (6, 6)
        assert report.rank == 6 and report.full_row_rank

    def test_mid_size_system(self):
        report = full_rank_check(2, 2, 1, Signature(2, 2))
        assert report.full_row_rank

    def test_scalar_system(self):
        report = full_rank_check(0, 0, 1, EUCLID[3])
        assert report.rank == 3 and report.full_row_rank

    def test_overdetermined_direction_cannot_have_full_rows(self):
        report = full_rank_check(1, 2, 1, EUCLID[2])
        assert report.n_e > report.n_u
        assert not report.full_row_rank
        assert report.rank == report.n_u

    def test_block_rank_agrees_with_dense_oracle(self):
        for (j, k, s, m) in [(1, 0, 1, 2), (1, 1, 1, 2), (2, 1, 1, 2), (1, 1, 2, 2), (1, 1, 1, 3)]:
            sys_ = prolong(j, k, s, EUCLID[m])
            assert system_rank(sys_) == gauss_rank(sys_.dense())

    def test_block_crossing_row_raises(self):
        # One more entry puts row 0 in two conserved-content blocks; splitting
        # it there would read rank 31 of 30 rows.
        sig = Signature(2, 1)
        data = prolong(2, 1, 1, sig).to_json()
        data["entries"].append([0, 3, "1", "1"])
        sys_ = ProlongedSystem.from_json(data, 2, 1, 1, sig)
        assert matrix_rank(sys_.dense()) == sys_.n_rows == 30
        with pytest.raises(ValueError, match="row crosses block boundary"):
            system_rank(sys_)

    def test_report_json_keys(self):
        data = full_rank_check(1, 1, 1, Signature(1, 1)).to_json()
        assert set(data) == {"j", "k", "s", "signature", "N_e", "N_u", "rank", "full_row_rank"}
        assert data["signature"] == [1, 1]


class TestVerifyBasis:
    def test_accepts_solver_output(self):
        basis = solve_basis(AnsatzSpec("ordinary", 1, 1, EUCLID[3]))
        assert verify_basis(basis) == []

    def test_flags_perturbed_element(self):
        from ktk import Poly, SymTensorField

        basis = solve_basis(AnsatzSpec("ordinary", 1, 1, EUCLID[2]))
        el = basis.elements[0]
        bad = el + SymTensorField(1, EUCLID[2], {(1,): Poly.monomial((1, 0))})
        basis.elements[0] = bad
        problems = verify_basis(basis)
        assert problems and "residual" in problems[0]

    def test_flags_dependent_elements(self):
        basis = solve_basis(AnsatzSpec("ordinary", 1, 1, EUCLID[2]))
        basis.elements[1] = basis.elements[0].scale(2)
        problems = verify_basis(basis)
        assert any("dependent" in p for p in problems)

    def test_residual_report_names_monomial_and_value(self):
        from ktk import Poly, SymTensorField

        basis = solve_basis(AnsatzSpec("ordinary", 1, 1, EUCLID[2]))
        y = Poly.variable(2, 2)
        bump = SymTensorField(1, EUCLID[2], {(2,): y**3 + (y * y).scale(Fraction(3, 7))})
        basis.elements[1] = basis.elements[1] + bump
        # residual (2, 2) = 2 d/dy of the bump = 6 y^2 + 12/7 y
        assert verify_basis(basis) == [
            "element 1: nonzero residual at index (2, 2), monomial (0, 1), value 12/7"
        ]

    def test_dependence_report_names_first_dependent_element(self):
        basis = solve_basis(AnsatzSpec("conformal", 1, 1, Signature(1, 3)))
        els = basis.elements
        els[4] = els[1] + els[2].scale(3)
        assert verify_basis(basis) == [
            "elements are linearly dependent: element 4 lies in the span of the elements before it"
        ]

    def test_zero_element_is_dependent(self):
        from ktk import SymTensorField

        basis = solve_basis(AnsatzSpec("conformal", 2, 1, EUCLID[3]))
        basis.elements[3] = SymTensorField(2, EUCLID[3], {})
        assert verify_basis(basis) == [
            "elements are linearly dependent: element 3 lies in the span of the elements before it"
        ]

    def test_wrong_rank_element_is_reported_not_raised(self):
        from ktk import Poly, SymTensorField

        basis = solve_basis(AnsatzSpec("ordinary", 1, 1, EUCLID[2]))
        basis.elements[1] = SymTensorField(2, EUCLID[2], {(1, 2): Poly.variable(1, 2)})
        assert verify_basis(basis) == ["element 1: rank/signature mismatch"]

    def test_colliding_leads_fall_back_to_elimination(self, monkeypatch):
        basis = solve_basis(AnsatzSpec("conformal", 1, 1, Signature(1, 3)))
        els = basis.elements
        # the basis is ordered by leading unknown, so c + a takes the lead of a
        els[5] = els[5] + els[0]
        calls = []
        real = ktk.solver.independent_subset
        monkeypatch.setattr(
            "ktk.solver.independent_subset", lambda vecs: calls.append(len(vecs)) or real(vecs)
        )
        assert verify_basis(basis) == []
        assert calls == [15]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: solve_basis(AnsatzSpec("conformal", 2, 1, Signature(1, 3))),
            lambda: solve_basis(AnsatzSpec("ordinary", 3, 2, Signature(1, 3))),
            lambda: generative_basis("conformal", 1, 2, EUCLID[3]),
        ],
        ids=["conformal-j2-p1q3", "ordinary-j3-s2-p1q3", "generative-conformal-j1-s2-E3"],
    )
    def test_distinct_leads_certify_without_elimination(self, make, monkeypatch):
        basis = make()

        def no_elimination(*args):
            raise RuntimeError("verify_basis eliminated a basis with distinct leads")

        monkeypatch.setattr("ktk.solver.span_dim", no_elimination)
        monkeypatch.setattr("ktk.solver.independent_subset", no_elimination)
        assert verify_basis(basis) == []


# ---------------------------------------------------------------------------
# the one-pass verify_basis against the per-element reference
# ---------------------------------------------------------------------------


def _plane48_basis() -> Basis:
    one = SymTensorField(1, Signature(48, 0), {(1,): Poly.constant(48, 1)})
    return Basis("conformal", 1, 1, Signature(48, 0), [one], degree_bound=2)


ORACLE_BASES = {
    **{
        f"conformal-j2-p{sig.p}q{sig.q}": ("conformal", 2, 1, sig.p, sig.q)
        for sig in M4_SIGS
    },
    "conformal-j1-s2-p2q1": ("conformal", 1, 2, 2, 1),
    "ordinary-j3-s2-p1q3": ("ordinary", 3, 2, 1, 3),
    "ordinary-j5-p1q3": ("ordinary", 5, 1, 1, 3),
}


@functools.cache
def _solved(kind, j, s, p, q) -> Basis:
    return solve_basis(AnsatzSpec(kind, j, s, Signature(p, q)))


def _other_signature(sig: Signature) -> Signature:
    return Signature(sig.q, sig.p) if sig.p != sig.q else Signature(sig.p + 1, sig.q - 1)


def perturbed_copies(basis: Basis, rng: random.Random) -> dict[str, Basis]:
    """Copies of basis with one kind of fault each, and one with all of them:
    a residual, a trace, a rank/signature mismatch, a duplicate, a zero
    element, and rescaled elements among faulty ones."""
    j, sig, els = basis.j, basis.signature, basis.elements
    n = len(els)

    def copy(changes):
        elements = list(els)
        for k, el in changes.items():
            elements[k] = el
        return Basis(basis.kind, j, basis.s, sig, elements, basis.degree_bound)

    def residual(k):
        # one top-degree term on an index of distinct axes (where j <= m):
        # the lead and the trace stay as they were
        idx = tuple(range(1, j + 1)) if j <= sig.m else tuple(sorted(rng.choices(range(1, sig.m + 1), k=j)))
        exps = [0] * sig.m
        for _ in range(basis.degree_bound):
            exps[rng.randrange(sig.m)] += 1
        bump = Poly.monomial(exps, Fraction(rng.choice([1, -2, 5]), rng.choice([1, 3, 7])))
        return els[k] + SymTensorField(j, sig, {idx: bump})

    def trace(k):
        # x1^s on an index that repeats axis 1: not traceless for j >= 2,
        # and a bad residual for every kind
        idx = tuple(sorted((1,) * min(j, 2) + tuple(rng.choices(range(1, sig.m + 1), k=j - 2))))
        bump = Poly.monomial((basis.s,) + (0,) * (sig.m - 1), Fraction(1, 3))
        return els[k] + SymTensorField(j, sig, {idx: bump})

    def mismatch(k):
        if rng.random() < 0.5:
            other = _other_signature(sig)
            comps = {idx: Poly(other.m, poly.terms) for idx, poly in els[k].components.items()}
            return SymTensorField(j, other, comps)
        return SymTensorField(j + 1, sig, {(1,) * (j + 1): Poly.constant(sig.m, 1)})

    a, b, c, d, e = sorted(rng.sample(range(n), 5))
    return {
        "residual": copy({a: residual(a), d: residual(d)}),
        "trace": copy({b: trace(b)}),
        "mismatch": copy({c: mismatch(c)}),
        "duplicate": copy({e: els[b]}),
        "zero": copy({a: SymTensorField(j, sig, {})}),
        "rescaled": copy({
            a: els[a].scale(Fraction(3, 7)), b: residual(b), c: els[c].scale(Fraction(-5, 2)),
            d: residual(d).scale(Fraction(2, 9)),
        }),
        "mixed": copy({
            a: mismatch(a), b: trace(b), c: residual(c), d: SymTensorField(j, sig, {}), e: els[a],
        }),
    }


class TestVerifyOracle:
    """The one-pass verify_basis finds exactly the problems, in the same
    words and order, that checking one element at a time finds."""

    @staticmethod
    def _check(basis: Basis, rng: random.Random, skip=()) -> int:
        """The number of perturbed copies checked; each must have a problem."""
        assert verify_basis(basis) == verify_basis_per_element(basis) == []
        copies = {k: v for k, v in perturbed_copies(basis, rng).items() if k not in skip}
        for label, copy in copies.items():
            expect = verify_basis_per_element(copy)
            assert expect, label
            assert verify_basis(copy) == expect, label
        return len(copies)

    # Colliding leads cost one elimination of the whole basis per copy, which
    # takes seconds on the larger files; they take the other faults only.
    COLLIDING = ("duplicate", "zero", "mixed")

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_matches_per_element_reference(self, name):
        skip = self.COLLIDING if name == "ordinary-j5-p1q3" else ()
        assert self._check(_solved(*ORACLE_BASES[name]), random.Random(name), skip) == 7 - len(skip)

    def test_plane48_file(self):
        basis = _plane48_basis()
        assert verify_basis(basis) == verify_basis_per_element(basis) == []
        basis.elements.append(basis.elements[0].scale(2))
        assert verify_basis(basis) == verify_basis_per_element(basis) != []

    @pytest.mark.long
    @pytest.mark.parametrize("sig", M4_SIGS, ids=lambda sig: f"p{sig.p}q{sig.q}")
    def test_matches_on_conformal_rank3_spacetime(self, sig):
        basis = _solved("conformal", 3, 1, sig.p, sig.q)
        assert self._check(basis, random.Random(f"j3-{sig}"), self.COLLIDING) == 4
