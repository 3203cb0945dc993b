"""Counting formulas, generator families, product/scaling/contraction lemmas."""

import random
from fractions import Fraction

import pytest

from ktk import (
    Poly,
    Signature,
    SymTensorField,
    conformal_residual,
    conformal_vectors,
    count,
    killing_residual,
    killing_vectors,
    lemma1_product,
    lemma2_product,
    lemma3_scale,
    lemma4_contract,
    lemma5_scale,
    solve_basis,
    x_squared,
)
from ktk.solver import AnsatzSpec

from conftest import SIGS_BY_M, generative_basis, random_solution

E2 = Signature(2, 0)
E3 = Signature(3, 0)


def v(axis, dim):
    return Poly.variable(axis, dim)


class TestCounts:
    def test_operator_totals(self):
        table = {
            2: [4, 9, 16, 25],
            3: [7, 26, 70, 155],
            4: [11, 60, 225, 665],
        }
        for m, values in table.items():
            for n, expect in zip(range(1, 5), values):
                assert count("symmetry-operator", m, n) == expect

    def test_conformal_families(self):
        assert [count("conformal", 3, j) for j in (1, 2, 3)] == [10, 35, 84]
        assert [count("conformal", 4, j) for j in (1, 2, 3)] == [15, 84, 300]

    def test_conformal_operator_totals(self):
        assert [count("symmetry-operator-conformal", 3, n) for n in range(5)] == [
            1, 11, 46, 130, 295,
        ]
        assert [count("symmetry-operator-conformal", 4, n) for n in range(5)] == [
            1, 16, 100, 400, 1225,
        ]

    def test_first_order_reduces_to_classical_dimensions(self):
        """Order 1 must give the classical bound m(m+1)...(m+j)/((m-1)! (j+1))
        written via binomials; spot values frozen for j <= 6."""
        expect = {
            (2, 1): 3, (2, 2): 6, (2, 6): 28,
            (3, 1): 6, (3, 2): 20, (3, 3): 50, (3, 6): 336,
            (4, 1): 10, (4, 2): 50, (4, 4): 490, (4, 6): 2520,
        }
        for (m, j), value in expect.items():
            assert count("ordinary", m, j, 1) == value

    def test_higher_order_examples(self):
        assert count("ordinary", 2, 1, 2) == 8
        assert count("ordinary", 3, 1, 2) == 20
        assert count("ordinary", 3, 1, 3) == 45
        assert count("conformal", 3, 1, 2) == 35
        assert count("conformal", 3, 1, 3) == 81
        assert count("conformal", 4, 1, 2) == 64

    def test_scalar_families(self):
        """Rank 0, order s: polynomials annihilated by all s-fold derivatives."""
        for m in (2, 3, 4):
            for s in (1, 2, 3):
                from math import comb

                expect = sum(comb(d + m - 1, m - 1) for d in range(s))
                assert count("ordinary", m, 0, s) == expect

    def test_conformal_count_out_of_range(self):
        with pytest.raises(ValueError):
            count("conformal", 2, 1)
        with pytest.raises(ValueError):
            count("conformal", 5, 1)

    def test_operator_kinds_are_first_order_only(self):
        with pytest.raises(ValueError):
            count("symmetry-operator", 3, 1, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            count("anything", 3, 1)


class TestVectorFamilies:
    def test_plane_isometries(self):
        basis = killing_vectors(E2)
        assert len(basis) == 3
        comps = [el.components for el in basis.elements]
        assert comps[0] == {(1,): Poly.constant(2, 1)}
        assert comps[1] == {(2,): Poly.constant(2, 1)}
        rot = basis.elements[2]
        assert rot.component((1,)) == v(2, 2)
        assert rot.component((2,)) == v(1, 2).scale(-1)

    def test_boost_sign_pattern(self):
        sig = Signature(1, 1)
        rot = killing_vectors(sig).elements[2]
        assert rot.component((1,)) == v(2, 2).scale(-1)
        assert rot.component((2,)) == v(1, 2)

    def test_counts_and_residuals_all_signatures(self):
        for m, sigs in SIGS_BY_M.items():
            for sig in sigs:
                basis = killing_vectors(sig)
                assert len(basis) == m * (m + 1) // 2
                for el in basis.elements:
                    assert killing_residual(el, 1).is_zero()

    def test_conformal_counts_and_residuals(self):
        for sig in (E3, Signature(2, 1), Signature(1, 3), Signature(2, 2)):
            basis = conformal_vectors(sig)
            m = sig.m
            assert len(basis) == (m + 1) * (m + 2) // 2
            for el in basis.elements:
                assert conformal_residual(el, 1).is_zero()

    def test_conformal_vectors_exceed_isometries(self):
        assert len(conformal_vectors(E3)) - len(killing_vectors(E3)) == 4

    def test_low_dimension_refusal(self):
        with pytest.raises(ValueError):
            conformal_vectors(E2)


class TestLemma1:
    def test_two_translations(self):
        e1 = SymTensorField(1, E2, {(1,): 1})
        e2 = SymTensorField(1, E2, {(2,): 1})
        P = lemma1_product(e1, e2)
        assert P.rank == 2
        assert P.component((1, 2)) == Poly.constant(2, 1)
        assert P.component((1, 1)).is_zero() and P.component((2, 2)).is_zero()
        assert killing_residual(P, 1).is_zero()

    def test_rotation_squared(self):
        rot = killing_vectors(E2).elements[2]
        P = lemma1_product(rot, rot)
        assert P.component((1, 1)) == Poly.monomial((0, 2), 2)
        assert P.component((1, 2)) == Poly.monomial((1, 1), -2)
        assert P.component((2, 2)) == Poly.monomial((2, 0), 2)
        assert killing_residual(P, 1).is_zero()

    def test_precondition_enforced(self):
        shear = SymTensorField(1, E2, {(1,): v(1, 2)})
        e1 = SymTensorField(1, E2, {(1,): 1})
        with pytest.raises(ValueError):
            lemma1_product(shear, e1)
        with pytest.raises(ValueError):
            lemma1_product(e1, shear)

    def test_randomized(self):
        rng = random.Random(101)
        for _ in range(30):
            m = rng.choice([2, 3])
            sig = rng.choice(SIGS_BY_M[m])
            j = rng.choice([1, 2])
            F = random_solution(rng, "ordinary", j, 1, sig)
            V = random_solution(rng, "ordinary", 1, 1, sig)
            P = lemma1_product(F, V)
            assert P.rank == j + 1
            assert killing_residual(P, 1).is_zero()


class TestLemma2:
    def test_two_dilations(self):
        D = SymTensorField(1, E3, {(a,): v(a, 3) for a in (1, 2, 3)})
        P = lemma2_product(D, D)
        assert P.rank == 2
        assert conformal_residual(P, 1).is_zero()
        from ktk import trace

        assert trace(P).is_zero()

    def test_randomized(self):
        rng = random.Random(202)
        for _ in range(25):
            sig = rng.choice(SIGS_BY_M[3] + SIGS_BY_M[4])
            F = random_solution(rng, "conformal", 1, 1, sig)
            V = random_solution(rng, "conformal", 1, 1, sig)
            P = lemma2_product(F, V)
            assert P.rank == 2
            assert conformal_residual(P, 1).is_zero()


class TestLemma3:
    def test_coordinate_scaling_raises_order(self):
        e1 = SymTensorField(1, E2, {(1,): 1})
        scaled = lemma3_scale(e1, v(1, 2), order=1)
        assert not killing_residual(scaled, 1).is_zero()
        assert killing_residual(scaled, 2).is_zero()

    def test_affine_function_accepted(self):
        e1 = SymTensorField(1, E2, {(1,): 1})
        phi = v(1, 2) + v(2, 2).scale(Fraction(3, 2)) + Poly.constant(2, 5)
        scaled = lemma3_scale(e1, phi, order=1)
        assert killing_residual(scaled, 2).is_zero()

    def test_quadratic_scaling_rejected(self):
        e1 = SymTensorField(1, E2, {(1,): 1})
        with pytest.raises(ValueError):
            lemma3_scale(e1, v(1, 2) * v(1, 2), order=1)

    def test_randomized(self):
        rng = random.Random(303)
        for _ in range(30):
            m = rng.choice([2, 3])
            sig = rng.choice(SIGS_BY_M[m])
            j, s = rng.choice([(1, 1), (2, 1), (1, 2), (0, 2)])
            F = random_solution(rng, "ordinary", j, s, sig)
            phi = Poly.constant(m, rng.randint(-2, 2))
            for a in range(1, m + 1):
                phi = phi + v(a, m).scale(rng.randint(-2, 2))
            out = lemma3_scale(F, phi, order=s)
            assert killing_residual(out, s + 1).is_zero()


class TestLemma4:
    def test_metric_contracts_to_coordinate_vector(self):
        for sig in (E2, Signature(1, 1), Signature(1, 3)):
            m = sig.m
            G = SymTensorField(2, sig, {(a, a): sig.g(a) for a in range(1, m + 1)})
            out = lemma4_contract(G, order=1)
            assert out.rank == 1
            for a in range(1, m + 1):
                assert out.component((a,)) == v(a, m).scale(sig.g(a))
            assert killing_residual(out, 2).is_zero()

    def test_rotation_contracts_to_zero(self):
        rot = killing_vectors(E2).elements[2]
        assert lemma4_contract(rot, order=1).is_zero()

    def test_translation_contracts_to_coordinate(self):
        e2 = SymTensorField(1, E2, {(2,): 1})
        out = lemma4_contract(e2, order=1)
        assert out.component(()) == v(2, 2)
        assert killing_residual(out, 2).is_zero()

    def test_precondition_enforced(self):
        shear = SymTensorField(1, E2, {(1,): v(1, 2)})
        with pytest.raises(ValueError):
            lemma4_contract(shear, order=1)

    def test_randomized(self):
        rng = random.Random(404)
        for _ in range(30):
            m = rng.choice([2, 3])
            sig = rng.choice(SIGS_BY_M[m])
            j, s = rng.choice([(1, 1), (2, 1), (1, 2)])
            F = random_solution(rng, "ordinary", j, s, sig)
            out = lemma4_contract(F, order=s)
            assert out.rank == j - 1
            assert killing_residual(out, s + 1).is_zero()


class TestLemma5:
    def test_quadratic_scaling(self):
        e1 = SymTensorField(1, E3, {(1,): 1})
        out = lemma5_scale(e1, x_squared(E3), order=1)
        assert not conformal_residual(out, 1).is_zero()
        assert conformal_residual(out, 2).is_zero()

    def test_coordinate_times_dilation(self):
        D = SymTensorField(1, E3, {(a,): v(a, 3) for a in (1, 2, 3)})
        out = lemma5_scale(D, v(1, 3), order=1)
        assert conformal_residual(out, 2).is_zero()

    def test_generic_quadratic_rejected(self):
        e1 = SymTensorField(1, E3, {(1,): 1})
        with pytest.raises(ValueError):
            lemma5_scale(e1, v(1, 3) * v(2, 3), order=1)

    def test_randomized(self):
        rng = random.Random(505)
        for _ in range(25):
            sig = rng.choice(SIGS_BY_M[3])
            j, s = rng.choice([(1, 1), (0, 2), (1, 2)])
            F = random_solution(rng, "conformal", j, s, sig)
            lam = rng.randint(-2, 2)
            phi = x_squared(sig).scale(lam) if lam else Poly.constant(sig.m, 1)
            for a in range(1, sig.m + 1):
                phi = phi + v(a, sig.m).scale(rng.randint(-2, 2))
            out = lemma5_scale(F, phi, order=s)
            assert conformal_residual(out, s + 1).is_zero()


class TestBuildBasis:
    FIRST_ORDER = [
        ("ordinary", j, 1, sig) for m in (2, 3) for sig in SIGS_BY_M[m] for j in (1, 2)
    ]
    HIGHER_ORDER = [
        ("ordinary", 1, 2, E2, 8),
        ("ordinary", 1, 2, E3, 20),
        ("ordinary", 0, 2, Signature(1, 1), 3),
        ("conformal", 1, 2, E3, 35),
        ("conformal", 0, 2, Signature(2, 1), 5),
        ("ordinary", 1, 3, Signature(1, 3), 105),
        ("conformal", 1, 2, Signature(1, 3), 64),
    ]
    ELEMENTWISE = ("ordinary", 2, 2, E2)

    def _spans_match(self, basis, spec):
        assert basis.to_json() == solve_basis(spec).to_json()

    def test_first_order_families(self):
        for kind, j, s, sig in self.FIRST_ORDER:
            basis = generative_basis(kind, j, s, sig)
            assert len(basis) == count(kind, sig.m, j, s)
            self._spans_match(basis, AnsatzSpec(kind, j, s, sig))

    def test_higher_order_families(self):
        for kind, j, s, sig, expect in self.HIGHER_ORDER:
            basis = generative_basis(kind, j, s, sig)
            assert len(basis) == expect == count(kind, sig.m, j, s)
            self._spans_match(basis, AnsatzSpec(kind, j, s, sig))

    def test_every_element_solves_its_system(self):
        basis = generative_basis(*self.ELEMENTWISE)
        for el in basis.elements:
            assert killing_residual(el, 2).is_zero()
