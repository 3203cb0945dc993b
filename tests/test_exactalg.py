"""Polynomial kernel: arithmetic examples, ring axioms, serialization; the
elimination kernel (`echelon`, `reduce`) and the read-offs from `reduce`,
each against the `back_substitute` oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktk import AnsatzSpec, Poly, Signature, WeylOp, operators
from ktk.exactalg import clear_row, echelon, grlex_key, monomials_upto, reduce
from ktk.solver import (
    _ansatz_rows,
    _content_key,
    _nullspace_sparse,
    _split_blocks,
    _transposed_rows,
    _unknown_items,
    fields_to_vectors,
    in_rational_span,
    independent_subset,
    unknown_labels,
    vectors_to_fields,
)
from ktk.tensors import Basis

from conftest import (
    _invert,
    back_substitute,
    canonical_basis,
    generative_family,
    solution_family,
)


def x(axis, dim=2):
    return Poly.variable(axis, dim)


class TestExamples:
    def test_mul_monomials(self):
        p = x(1) * x(2)
        assert p.coefficient((1, 1)) == 1
        assert len(p.to_json()) == 1

    def test_mul_difference_of_squares(self):
        lhs = (x(1) + x(2)) * (x(1) - x(2))
        assert lhs == x(1) ** 2 - x(2) ** 2

    def test_mul_square_of_quadratic(self):
        r2 = x(1) ** 2 + x(2) ** 2
        sq = r2 * r2
        expect = (
            Poly.monomial((4, 0))
            + Poly.monomial((2, 2), 2)
            + Poly.monomial((0, 4))
        )
        assert sq == expect

    def test_diff_power_rule(self):
        assert (x(1) ** 3).diff(1) == Poly.monomial((2, 0), 3)
        assert (x(1) ** 2 * x(2)).diff(2) == x(1) ** 2
        assert Poly.constant(2, Fraction(7, 3)).diff(1).is_zero()

    def test_rational_coefficients_exact(self):
        p = Poly.monomial((1, 0), Fraction(1, 3)).scale(3)
        assert p == x(1)

    def test_eval(self):
        p = x(1) ** 2 - x(2)
        assert p.eval((Fraction(3, 2), 1)) == Fraction(5, 4)

    def test_degree_and_zero(self):
        assert Poly.zero(3).degree() == -1
        assert Poly.constant(3, 5).degree() == 0
        assert (x(1, 3) * x(2, 3)).degree() == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Poly.zero(2) + Poly.zero(3)

    def test_sorted_terms_graded_lex(self):
        p = x(1) + x(2) ** 3 + Poly.constant(2, 1)
        keys = [grlex_key(e) for e, _ in p.sorted_terms()]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "cls, key", [(Poly, lambda e: e), (WeylOp, lambda e: (e, (0,) * len(e)))], ids=["Poly", "WeylOp"]
)
def test_shared_term_map_core(cls, key):
    with pytest.raises(ValueError, match="negative exponent"):
        cls(2, {key((-1, 0)): 1})
    with pytest.raises(ValueError) as err:
        cls(2, {key((1, 0)): 1}) + cls(3, {key((1, 0, 0)): 1})
    assert str(err.value) == "dimension mismatch: 2 vs 3"
    a, b = cls(2, {key((0, 0)): 1}), (WeylOp if cls is Poly else Poly).constant(2, 1)
    with pytest.raises(TypeError):
        a + b
    assert not a == b and a != b


@pytest.mark.parametrize(
    "make", [Poly.variable, WeylOp.x, WeylOp.d], ids=["Poly.variable", "WeylOp.x", "WeylOp.d"]
)
@pytest.mark.parametrize("axis", [0, 3, -1])
def test_axis_outside_one_to_dim_rejected(make, axis):
    with pytest.raises(ValueError, match=f"axis {axis} out of range 1..2"):
        make(axis, 2)
    assert make(2, 2) != make(1, 2)


def polys(dim=2, max_degree=3):
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(dim)])
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda d: sum(
            (Poly.monomial(e, c) for e, c in d.items() if c), Poly.zero(dim)
        )
    )


class TestRingAxioms:
    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_diff_is_a_derivation(self, a, b):
        for axis in (1, 2):
            lhs = (a * b).diff(axis)
            rhs = a.diff(axis) * b + a * b.diff(axis)
            assert lhs == rhs

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_partials_commute(self, p):
        assert p.diff(1).diff(2) == p.diff(2).diff(1)

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, p):
        assert Poly.from_json(p.to_json(), dim=2) == p

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_degree_of_product(self, a, b):
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree() == a.degree() + b.degree()


def test_random_eval_cross_check():
    """Products/sums agree with pointwise evaluation at rational points."""
    rng = random.Random(7)
    for _ in range(50):
        terms_a = {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)}
        terms_b = {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)}
        a = sum((Poly.monomial(e, c) for e, c in terms_a.items() if c), Poly.zero(2))
        b = sum((Poly.monomial(e, c) for e, c in terms_b.items() if c), Poly.zero(2))
        pt = (Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 2))
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


@pytest.mark.parametrize("m", range(1, 7))
def test_monomials_upto_equals_product_oracle(m):
    """Every exponent tuple of total degree <= degree once, in graded-lex order,
    as filtering the full product box gives.  The enumerator itself walks only
    the C(m + degree, m) tuples it returns; `test_wide_signature_file_finishes`
    in test_cli.py times it on 48 axes."""
    for degree in range(6):
        box = itertools.product(range(degree + 1), repeat=m)
        oracle = sorted((exps for exps in box if sum(exps) <= degree), key=grlex_key)
        assert monomials_upto(m, degree) == oracle


# ---------------------------------------------------------------------------
# the elimination kernel
# ---------------------------------------------------------------------------


def _random_rows(rng: random.Random) -> list[dict[int, int]]:
    """Sparse integer rows with zero, duplicate and dependent rows among them."""
    n_cols = rng.randint(1, 9)
    base = []
    for _ in range(rng.randint(1, 6)):
        cols = rng.sample(range(n_cols), rng.randint(1, n_cols))
        base.append({c: v for c in cols if (v := rng.randint(-6, 6))})
    rows = list(base)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(base), rng.choice(base)
        ka, kb = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = {c: ka * a.get(c, 0) + kb * b.get(c, 0) for c in a.keys() | b.keys()}
        rows.append({c: v for c, v in combo.items() if v})
    rows.append(dict(rng.choice(base)))
    rows.append({})
    rng.shuffle(rows)
    return rows


def _rref_oracle(rows: list[dict[int, int]]) -> list[tuple[int, dict]]:
    """The reduced echelon rows, each scaled to pivot 1, from `echelon` and one
    `back_substitute` per free column: the null vector w_f is orthogonal to the
    reduced row led by p, which is therefore e_p - sum_f w_f[p] e_f."""
    pivots = echelon(rows)
    reduced = {p: {p: Fraction(1)} for p, _ in pivots}
    for f in sorted({c for row in rows for c in row} - reduced.keys()):
        for p, w in back_substitute(pivots, {f: 1}).items():
            if p != f:
                reduced[p][f] = -w
    return list(reduced.items())


@pytest.mark.parametrize("seed", range(40))
def test_echelon_and_reduce_on_random_rows(seed):
    rows = _random_rows(random.Random(seed))
    n_cols = 1 + max((c for row in rows for c in row), default=0)
    pivots = echelon(rows)
    cols = [col for col, _ in pivots]
    assert cols == sorted(set(cols))
    assert all(min(row) == col and row[col] for col, row in pivots)
    reduced = reduce(rows)
    assert [col for col, _ in reduced] == cols
    for col, row in reduced:
        assert row[col] > 0
        assert math.gcd(*row.values()) == 1
        assert all(c == col or c not in row for c in cols)
    # the row space: pivot-scaled rows equal the oracle's, and each input row
    # is the combination of the reduced rows given by its pivot entries
    assert [(col, {c: Fraction(v, row[col]) for c, v in row.items()}) for col, row in reduced] == (
        _rref_oracle(rows)
    )
    for row in rows:
        combo: dict = {}
        for col, red in reduced:
            for c, v in red.items():
                combo[c] = combo.get(c, 0) + Fraction(row.get(col, 0), red[col]) * v
        assert {c: v for c, v in combo.items() if v} == row
    null = _nullspace_sparse(rows, n_cols)
    assert len(null) == n_cols - len(reduced)
    for vec in null:
        for row in rows:
            assert sum(v * vec.get(c, 0) for c, v in row.items()) == 0


def test_reduce_of_no_rows():
    assert reduce([]) == reduce([{}, {}]) == []


def test_clear_row():
    """Mixed `int` and `Fraction` entries scale by the lcm of the
    denominators; zeros drop out, and keymap renames the kept keys."""
    row = {0: 3, 1: Fraction(1, 4), 2: Fraction(0), 3: Fraction(-5, 6), 4: 0}
    cleared = clear_row(row)
    assert cleared == {0: 36, 1: 3, 3: -10}
    assert all(type(v) is int for v in cleared.values())
    assert clear_row(row, {0: 7, 1: 5, 2: 9, 3: 1, 4: 8}) == {7: 36, 5: 3, 1: -10}
    assert clear_row({}) == {}


# ---------------------------------------------------------------------------
# the read-offs from `reduce`, against the `back_substitute` oracle
# ---------------------------------------------------------------------------


def _nullspace_oracle(rows: list[dict[int, int]], n_cols: int) -> list[dict]:
    last = n_cols - 1
    pivots = echelon([{last - c: v for c, v in row.items()} for row in rows])
    pivot_set = {last - c for c, _ in pivots}
    return [
        {last - c: v for c, v in back_substitute(pivots, {last - f: 1}).items()}
        for f in range(n_cols)
        if f not in pivot_set
    ]


def _invert_oracle(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    pivots = echelon(
        clear_row({**dict(enumerate(row)), n + k: -1}) for k, row in enumerate(matrix)
    )
    if [col for col, _ in pivots] != list(range(n)):
        raise ValueError("matrix is singular")
    cols = [back_substitute(pivots, {n + k: 1}) for k in range(n)]
    return [[col.get(r, Fraction(0)) for col in cols] for r in range(n)]


def _span_oracle(vectors: list[dict], target: dict) -> list[Fraction] | None:
    rhs_col = len(vectors)
    pivots = echelon(_transposed_rows([*vectors, target]))
    if any(col == rhs_col for col, _ in pivots):
        return None
    known = back_substitute(pivots, {rhs_col: -1})
    return [known.get(c, Fraction(0)) for c in range(rhs_col)]


@pytest.mark.parametrize(
    "kind, j, p, q", [("conformal", 2, 1, 3), ("ordinary", 3, 2, 2)], ids=str
)
def test_nullspace_sparse_equals_oracle(kind, j, p, q):
    spec = AnsatzSpec(kind, j, 1, Signature(p, q))
    m = spec.signature.m
    labels = unknown_labels(j, m, spec.resolved_degree())
    rows = _ansatz_rows(spec, labels)
    keys = [_content_key(*labels[u], m, kind) for u in range(len(labels))]
    for cols, block_rows in _split_blocks(keys, rows.values()).values():
        got = _nullspace_sparse(block_rows, len(cols))
        want = _nullspace_oracle(block_rows, len(cols))
        assert got == want
        assert [list(vec) for vec in got] == [list(vec) for vec in want]


def test_completion_block_equals_oracle(monkeypatch):
    """Every block that completing the conformal j=2 (1,3) basis reaches: its
    units are the grade's greedy independent columns, and its forms solve
    each column of the grade as `_span_oracle` does on the kept columns."""
    monkeypatch.setattr(operators, "_COMPLETION_CACHE", {})
    for F in solution_family("conformal", 2, 1, 1, 3).elements:
        operators.conformal_symmetry_operator(F)
    blocks = {key: block for key, block in operators._COMPLETION_CACHE.items() if block}
    assert len(blocks) > 10
    for (sig, rank, grade), block in blocks.items():
        box = operators.kgf(sig).principal()
        units = operators._grade_units(sig.m, rank, grade)
        cols = [
            operators.divide_by_principal(
                operators.commutator(box, WeylOp(sig.m, {unit: 1})), sig
            )[1].terms
            for unit in units
        ]
        keep = independent_subset(cols)
        assert [unit for unit, _ in block] == [units[n] for n in keep]
        # a form keeps its nonzero weights only
        assert all(w for _, form in block for w in form.values())
        kept = [cols[n] for n in keep]
        for b in cols:
            got = [
                sum((w * b[lab] for lab, w in form.items() if lab in b), Fraction(0))
                for _, form in block
            ]
            assert got == _span_oracle(kept, b)


def _dense(rows: list[dict]) -> list[list[Fraction]]:
    return [[row.get(c, Fraction(0)) for c in range(len(rows))] for row in rows]


def test_invert_singular_matrix():
    singular = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)},
                {2: Fraction(1)}]
    for invert, matrix in ((_invert, singular), (_invert_oracle, _dense(singular))):
        with pytest.raises(ValueError, match="matrix is singular"):
            invert(matrix)


def test_canonical_basis_equals_oracle():
    sig = Signature(2, 1)
    degree = AnsatzSpec("conformal", 2, 2, sig).resolved_degree()
    fields = generative_family("conformal", 2, 2, sig)
    vecs = fields_to_vectors(fields, 2, sig.m, degree)
    reduced = [row for _, row in _rref_oracle([clear_row(vec) for vec in vecs])]
    labels = unknown_labels(2, sig.m, degree)
    want = Basis("conformal", 2, 2, sig, vectors_to_fields(reduced, labels, 2, sig), degree)
    got = canonical_basis("conformal", 2, 2, sig, fields, degree)
    assert got.elements == want.elements
    assert got.to_json() == want.to_json()


def test_in_rational_span_equals_oracle():
    """Targets in the span of the conformal j=2 (2,1) basis plus dependent
    vectors, so the transposed system has free columns; then targets outside."""
    rng = random.Random(18)
    vecs = [dict(_unknown_items(el)) for el in solution_family("conformal", 2, 1, 2, 1).elements]
    twice = {k: 2 * v for k, v in vecs[0].items()}
    vectors = [vecs[0], twice, *vecs[1:], vecs[3]]
    for _ in range(5):
        target: dict = {}
        for vec in rng.sample(vecs, 4):
            c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            for k, v in vec.items():
                target[k] = target.get(k, 0) + c * v
        target = {k: v for k, v in target.items() if v}
        got = in_rational_span(vectors, target)
        assert got is not None and got == _span_oracle(vectors, target)
        assert got[1] == got[-1] == 0
    outside = {**vecs[0], ((99, (0, 0, 99)), (3, 3)): Fraction(1)}
    assert in_rational_span(vectors, outside) is None
    assert _span_oracle(vectors, outside) is None
