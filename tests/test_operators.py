"""Weyl-algebra operators: composition, commutators, symmetry checks, closure."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from ktk import (
    Poly,
    Signature,
    SymTensorField,
    WeylOp,
    anticommutator,
    build_symmetry_operator,
    check_symmetry,
    commutator,
    conformal_symmetry_operator,
    conformal_vectors,
    divide_by_principal,
    kgf,
    killing_vectors,
    lie_closure_check,
)
from ktk import operators
from ktk.operators import _completion_block, _grade, _grade_units
from ktk.solver import in_rational_span

from conftest import EUCLID, SIGS_BY_M, _invert, generative_basis, solution_family

E2 = Signature(2, 0)
E3 = Signature(3, 0)


def X(axis, dim=2):
    return WeylOp.x(axis, dim)


def D(axis, dim=2):
    return WeylOp.d(axis, dim)


def dilation_op(dim):
    out = WeylOp.zero(dim)
    for a in range(1, dim + 1):
        out = out + X(a, dim) * D(a, dim)
    return out


class TestComposition:
    def test_d_after_x(self):
        assert D(1) * X(1) == X(1) * D(1) + WeylOp.constant(2, 1)

    def test_x_after_d_stays_normal(self):
        Q = X(1) * D(1)
        assert Q.terms == {((1, 0), (1, 0)): Fraction(1)}

    def test_second_derivative_exchange(self):
        lhs = D(1) * D(1) * X(1)
        rhs = X(1) * D(1) * D(1) + D(1).scale(2)
        assert lhs == rhs

    def test_from_poly_is_multiplication_operator(self):
        p = Poly.monomial((1, 1), Fraction(3, 2))
        Q = WeylOp.from_poly(p)
        assert Q.terms == {((1, 1), (0, 0)): Fraction(3, 2)}

    def test_order(self):
        assert WeylOp.zero(2).order() == -1
        assert WeylOp.constant(2, 4).order() == 0
        assert (D(1) * D(2)).order() == 2
        assert (X(1) * D(2) + D(1)).order() == 1

    def test_order_additive_on_products(self):
        rng = random.Random(99)
        for _ in range(25):
            A = _random_op(rng, 2)
            B = _random_op(rng, 2)
            if A.is_zero() or B.is_zero():
                assert (A * B).is_zero()
            else:
                assert (A * B).order() == A.order() + B.order()

    def test_scalar_scaling(self):
        Q = D(1).scale(Fraction(1, 2)) * X(1).scale(4)
        assert Q == (X(1) * D(1)).scale(2) + WeylOp.constant(2, 2)

    def test_json_round_trip(self):
        Q = D(1) * D(1) + X(2) * D(2) + WeylOp.constant(2, Fraction(-1, 3))
        assert WeylOp.from_json(Q.to_json(), dim=2) == Q

    @pytest.mark.parametrize(
        "x_exps, d_exps", [([1.0, 0], [0, 0]), ([True, 0], [0, 0]), ([0, 0], [-1, 0])]
    )
    def test_json_rejects_non_natural_exponents(self, x_exps, d_exps):
        data = [{"x_exps": x_exps, "d_exps": d_exps, "num": "1", "den": "1"}]
        with pytest.raises(ValueError):
            WeylOp.from_json(data, dim=2)

    def test_json_rejects_repeated_term(self):
        data = (D(1) + X(2).scale(5)).to_json()
        with pytest.raises(ValueError):
            WeylOp.from_json(data + data[:1], dim=2)

    def test_json_needs_dim(self):
        with pytest.raises(TypeError):
            WeylOp.from_json(D(1).to_json())


def _random_op(rng, dim, max_order=2):
    out = WeylOp.zero(dim)
    for _ in range(rng.randint(1, 4)):
        x_exps = tuple(rng.randint(0, 2) for _ in range(dim))
        d_exps = [0] * dim
        for _ in range(rng.randint(0, max_order)):
            d_exps[rng.randrange(dim)] += 1
        c = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        if c:
            term = WeylOp.from_poly(Poly.monomial(x_exps, c))
            for a, e in enumerate(d_exps, start=1):
                for _ in range(e):
                    term = term * D(a, dim)
            out = out + term
    return out


class TestCommutators:
    def test_canonical_pair(self):
        assert commutator(D(1), X(1)) == WeylOp.constant(2, 1)
        assert commutator(X(1), X(2)).is_zero()
        assert commutator(D(1), D(2)).is_zero()

    def test_rotation_commutes_with_laplacian(self):
        rot = X(2) * D(1) - X(1) * D(2)
        box = kgf(E2).principal()
        assert commutator(rot, box).is_zero()

    def test_dilation_scales_laplacian(self):
        for sig in (E2, Signature(1, 2)):
            box = kgf(sig).principal()
            got = commutator(dilation_op(sig.m), box)
            assert got == box.scale(-2)

    def test_anticommutator(self):
        assert anticommutator(D(1), X(1)) == (X(1) * D(1)).scale(2) + WeylOp.constant(2, 1)

    def test_bilinear(self):
        rng = random.Random(17)
        A, B, C = (_random_op(rng, 2) for _ in range(3))
        assert commutator(A + B, C) == commutator(A, C) + commutator(B, C)

    def test_jacobi_identity(self):
        rng = random.Random(23)
        for _ in range(10):
            A, B, C = (_random_op(rng, 2, max_order=1) for _ in range(3))
            total = (
                commutator(A, commutator(B, C))
                + commutator(B, commutator(C, A))
                + commutator(C, commutator(A, B))
            )
            assert total.is_zero()


class TestKGF:
    def test_principal_symbol(self):
        L = kgf(Signature(1, 1))
        assert L.principal() == D(1) * D(1) - D(2) * D(2)

    def test_massive_operator(self):
        L = kgf(E2, kappa_squared=Fraction(5, 3))
        assert L.as_weyl() == D(1) * D(1) + D(2) * D(2) - WeylOp.constant(2, Fraction(5, 3))

    def test_massless_default(self):
        assert kgf(E3).kappa_squared == 0


class TestBuildOperator:
    def test_rank0_is_multiplication(self):
        F = SymTensorField(0, E2, {(): 5})
        Q = build_symmetry_operator(F)
        assert Q == WeylOp.constant(2, 5)

    def test_translation_gives_gradient(self):
        F = SymTensorField(1, E2, {(1,): 1})
        assert build_symmetry_operator(F) == D(1).scale(2)

    def test_translation_indefinite_sign(self):
        sig = Signature(1, 1)
        F = SymTensorField(1, sig, {(2,): 1})
        assert build_symmetry_operator(F) == D(2).scale(-2)

    def test_rotation_operator(self):
        rot = killing_vectors(E2).elements[2]
        Q = build_symmetry_operator(rot)
        assert Q == (X(2) * D(1) - X(1) * D(2)).scale(2)

    def test_rank2_cross_term(self):
        """Normalization: each slot doubles, both index orderings count."""
        F = SymTensorField(2, E2, {(1, 2): 1})
        Q = build_symmetry_operator(F)
        assert Q == (D(1) * D(2)).scale(8)

    def test_rank2_diagonal_term(self):
        F = SymTensorField(2, E2, {(1, 1): 1})
        Q = build_symmetry_operator(F)
        assert Q == (D(1) * D(1)).scale(4)


class TestDivision:
    def test_poly_multiple_of_box(self):
        box = kgf(E2).principal()
        C = WeylOp.from_poly(Poly.variable(1, 2)) * box
        alpha, rem = divide_by_principal(C, E2)
        assert rem.is_zero()
        assert alpha == WeylOp.from_poly(Poly.variable(1, 2))

    def test_low_order_is_pure_remainder(self):
        alpha, rem = divide_by_principal(D(1), E2)
        assert alpha.is_zero() and rem == D(1)

    def test_dilation_bracket(self):
        box = kgf(E2).principal()
        alpha, rem = divide_by_principal(commutator(dilation_op(2), box), E2)
        assert rem.is_zero()
        assert alpha == WeylOp.constant(2, -2)

    def test_reconstruction_random(self):
        rng = random.Random(31)
        for sig in (E2, Signature(1, 1)):
            box = kgf(sig).principal()
            for _ in range(20):
                C = _random_op(rng, sig.m, max_order=3)
                alpha, rem = divide_by_principal(C, sig)
                assert alpha * box + rem == C


class TestCheckSymmetry:
    def test_gradient_any_mass(self):
        for kappa2 in (0, Fraction(5, 3)):
            L = kgf(E2, kappa2)
            report = check_symmetry(D(1), L)
            assert report.is_symmetry and report.alpha.is_zero()

    def test_rotation_built_operator(self):
        rot = killing_vectors(E2).elements[2]
        report = check_symmetry(build_symmetry_operator(rot), kgf(E2))
        assert report.is_symmetry and report.alpha.is_zero()

    def test_multiplication_is_not_a_symmetry(self):
        report = check_symmetry(X(1), kgf(E2))
        assert not report.is_symmetry
        assert not report.remainder.is_zero()

    def test_dilation_is_conformal_symmetry(self):
        report = check_symmetry(dilation_op(2), kgf(E2))
        assert report.is_symmetry
        assert report.alpha == WeylOp.constant(2, -2)


class TestOrdinaryInvariant:
    def test_brackets_vanish_for_killing_built_operators(self):
        for m in (2, 3):
            for sig in SIGS_BY_M[m]:
                box = kgf(sig)
                for j in (1, 2):
                    basis = generative_basis("ordinary", j, 1, sig)
                    for el in basis.elements:
                        Q = build_symmetry_operator(el)
                        assert commutator(Q, box.as_weyl()).is_zero()

    def test_massive_case_unchanged(self):
        L = kgf(Signature(1, 1), kappa_squared=Fraction(7, 2))
        basis = generative_basis("ordinary", 2, 1, Signature(1, 1))
        for el in basis.elements:
            report = check_symmetry(build_symmetry_operator(el), L)
            assert report.is_symmetry and report.alpha.is_zero()


class TestConformalOperators:
    def test_completion_passes_check(self):
        for sig in (E3, Signature(2, 1)):
            basis = generative_basis("conformal", 1, 1, sig)
            L = kgf(sig)
            flagged = 0
            for el in basis.elements:
                Q = conformal_symmetry_operator(el)
                report = check_symmetry(Q, L)
                assert report.is_symmetry
                if not report.alpha.is_zero():
                    flagged += 1
            assert flagged >= 4

    def test_matches_plain_build_for_isometries(self):
        for el in killing_vectors(E3).elements:
            assert conformal_symmetry_operator(el) == build_symmetry_operator(el)

    def test_dilation_field_needs_no_completion(self):
        D_field = SymTensorField(1, E3, {(a,): Poly.variable(a, 3) for a in (1, 2, 3)})
        report = check_symmetry(build_symmetry_operator(D_field), kgf(E3))
        assert report.is_symmetry and report.alpha == WeylOp.constant(3, -4)

    def test_special_conformal_field_needs_completion(self):
        from ktk import x_squared

        comps = {}
        for a in (1, 2, 3):
            p = (Poly.variable(a, 3) * Poly.variable(1, 3)).scale(-2)
            if a == 1:
                p = p + x_squared(E3)
            comps[(a,)] = p
        K = SymTensorField(1, E3, comps)
        bare = build_symmetry_operator(K)
        assert not check_symmetry(bare, kgf(E3)).is_symmetry
        fixed = conformal_symmetry_operator(K)
        assert check_symmetry(fixed, kgf(E3)).is_symmetry
        assert (fixed - bare).order() == 0

    def test_non_solution_rejected(self):
        shear = SymTensorField(1, E3, {(1,): Poly.variable(1, 3)})
        with pytest.raises(ValueError):
            conformal_symmetry_operator(shear)

    def test_remainder_in_grade_without_columns_raises(self):
        field = SymTensorField(1, E3, {(2,): Poly.variable(1, 3)})
        rem = _lead_remainder(field)
        assert rem and all(_completion_block(E3, 1, _grade(*key)) is None for key in rem.terms)
        with pytest.raises(ValueError):
            conformal_symmetry_operator(field)

    def test_certificate_rejects_remainder_outside_span(self):
        """Every grade has columns, but no combination cancels the remainder."""
        field = SymTensorField(1, E3, {(1,): Poly.monomial((0, 2, 0))})
        rem = _lead_remainder(field)
        assert rem and all(
            _completion_block(E3, 1, _grade(*key)) is not None for key in rem.terms
        )
        with pytest.raises(ValueError):
            conformal_symmetry_operator(field)

    @pytest.mark.parametrize(
        "sig", [E3, Signature(2, 1), Signature(2, 2), Signature(1, 3), EUCLID[4]]
    )
    def test_rank1_matches_eastwood_closed_form(self, sig):
        """D_V = V^a d_a + ((m-2)/(2m)) d_a V^a (Eastwood, Ann. Math. 161 (2005)).

        In the stored convention each derivative slot carries g(a) and the
        operator is twice D_V, so the completed operator may differ from
        sum_a g(a) (2 V^a d_a + ((m-2)/m) d_a V^a) only by a constant.  That
        happens for the dilation alone, which needs no completion.
        """
        m = sig.m
        differing = 0
        for V in conformal_vectors(sig).elements:
            closed = WeylOp.zero(m)
            for (a,), comp in V.components.items():
                closed = closed + (WeylOp.from_poly(comp) * D(a, m)).scale(2 * sig.g(a))
                weight = WeylOp.from_poly(comp.diff(a)).scale(Fraction(m - 2, m))
                closed = closed + weight.scale(sig.g(a))
            Q = conformal_symmetry_operator(V)
            assert (Q - closed).order() <= 0
            if Q != closed:
                differing += 1
                assert Q == build_symmetry_operator(V)
        assert differing <= 1


def _lead_remainder(F):
    """Remainder of [box, built operator of F] modulo box."""
    lead = build_symmetry_operator(F)
    return divide_by_principal(commutator(kgf(F.signature).principal(), lead), F.signature)[1]


@lru_cache(maxsize=None)
def _per_field_columns(sig, rank, max_x):
    """Every unit term of derivative order < rank and its column, in order."""
    m = sig.m
    box = kgf(sig).principal()
    d_monos = [d for deg in range(max(rank, 1))
               for d in itertools.product(range(deg + 1), repeat=m) if sum(d) == deg]
    x_monos = [x for deg in range(max_x + 1)
               for x in itertools.product(range(deg + 1), repeat=m) if sum(x) == deg]
    keys, columns = [], []
    for d_exps in d_monos:
        for x_exps in x_monos:
            unit = WeylOp(m, {(x_exps, d_exps): 1})
            keys.append((x_exps, d_exps))
            columns.append(dict(divide_by_principal(commutator(box, unit), sig)[1].terms))
    return keys, columns


def _per_field_completion(F):
    """The completion solved on its own for one field, by in_rational_span."""
    sig = F.signature
    lead = build_symmetry_operator(F)
    rem = _lead_remainder(F)
    if rem.is_zero():
        return lead
    keys, columns = _per_field_columns(sig, F.rank, max(F.max_degree(), 0))
    coeffs = in_rational_span(columns, {k: -v for k, v in rem.terms.items()})
    if coeffs is None:
        raise ValueError("field does not extend to a symmetry operator")
    return lead + WeylOp(sig.m, {keys[i]: c for i, c in enumerate(coeffs) if c})


class TestCompletionOracle:
    @pytest.mark.parametrize("sig", [E3, Signature(2, 1), Signature(1, 3)])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_factored_completion_equals_per_field_solve(self, sig, j):
        basis = solution_family("conformal", j, 1, sig.p, sig.q)
        for F in basis.elements:
            assert conformal_symmetry_operator(F) == _per_field_completion(F)

    def test_exact_inverse(self):
        """`_invert`, the inverse that the dense projector oracle reads."""
        F = Fraction
        assert _invert([{0: F(2), 1: F(1)}, {0: F(1), 1: F(1)}]) == [
            {0: 1, 1: -1},
            {0: -1, 1: 2},
        ]
        assert _invert([{1: F(1, 2)}, {0: F(3)}]) == [{1: F(1, 3)}, {0: 2}]
        with pytest.raises(ValueError, match="singular"):
            _invert([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}])


class TestCompletionBlocks:
    @pytest.mark.parametrize("sig", [E3, Signature(2, 1), Signature(1, 3)])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_reached_units_within_op_check_bound(self, sig, j):
        """A lead term has weight at most D - rank, so a unit of a reached
        grade has |alpha| <= D - 1 (D for rank 0), inside the C(max(r,1)-1+m, m)
        C(D+m, m) units that op-check's size check counts per element."""
        for F in solution_family("conformal", j, 1, sig.p, sig.q).elements:
            D = max(F.max_degree(), 0)
            for grade in {_grade(*key) for key in _lead_remainder(F).terms}:
                for x_exps, d_exps in _grade_units(sig.m, F.rank, grade):
                    assert sum(x_exps) <= D - min(F.rank, 1)
                    assert sum(d_exps) <= max(F.rank, 1) - 1

    def test_each_unit_column_is_built_once(self, monkeypatch):
        """Completing a whole basis builds each unit's column at most once,
        however many element degrees the basis has."""
        built = []

        def recording(A, B):
            if len(B.terms) == 1 and set(B.terms.values()) == {1}:
                built.append(next(iter(B.terms)))
            return commutator(A, B)

        monkeypatch.setattr(operators, "_COMPLETION_CACHE", {})
        monkeypatch.setattr(operators, "commutator", recording)
        basis = solution_family("conformal", 2, 1, 1, 3)
        assert len({F.max_degree() for F in basis.elements}) > 1
        for F in basis.elements:
            conformal_symmetry_operator(F)
        assert len(built) > 100
        assert len(built) == len(set(built))


class TestLieClosure:
    def test_translations(self):
        assert lie_closure_check([D(1), D(2)])

    def test_poincare_algebra(self):
        ops = [build_symmetry_operator(el) for el in killing_vectors(Signature(1, 3)).elements]
        assert lie_closure_check(ops)

    def test_affine_pair(self):
        assert lie_closure_check([D(1), X(1) * D(1)])

    def test_open_pair(self):
        assert not lie_closure_check([D(1) * D(1), X(1)])


class TestEnveloping:
    def test_second_order_operators_are_isometry_quadratics(self):
        """Operators from rank-2 families decompose over products of the
        first-order generator operators plus the constant."""
        for sig in (E2, Signature(1, 2)):
            gens = [build_symmetry_operator(el) for el in killing_vectors(sig).elements]
            products = [WeylOp.constant(sig.m, 1)]
            products += gens
            for i, A in enumerate(gens):
                for B in gens[i:]:
                    products.append(anticommutator(A, B))
            prod_vecs = [dict(P.terms) for P in products]
            basis = generative_basis("ordinary", 2, 1, sig)
            for el in basis.elements:
                Q = build_symmetry_operator(el)
                assert in_rational_span(prod_vecs, dict(Q.terms)) is not None
