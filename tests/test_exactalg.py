"""Polynomial kernel: arithmetic examples, ring axioms, serialization."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktk import Poly, WeylOp
from ktk.exactalg import grlex_key, monomials_upto


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
