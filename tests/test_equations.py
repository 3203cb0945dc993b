"""Defining systems, their residuals, and the prolonged linear systems."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from ktk import (
    DefiningSystem,
    Poly,
    ProlongedSystem,
    Signature,
    SymTensorField,
    conformal_residual,
    count_eq_unknowns,
    killing_residual,
    prolong,
    trace,
    traceless_project,
    x_squared,
)
from ktk.constructors import killing_vectors
from ktk.equations import residual_terms
from ktk.tensors import enumerate_indices
from ktk.solver import (
    AnsatzSpec,
    _ansatz_rows,
    field_vector,
    unknown_labels,
)

from conftest import EUCLID, projection_columns, random_field

E2 = Signature(2, 0)
E3 = Signature(3, 0)


def v(axis, dim):
    return Poly.variable(axis, dim)


class TestKillingResidual:
    def test_constant_field_is_annihilated(self):
        for rank in (0, 1, 2):
            F = SymTensorField(rank, E3, {(1,) * rank: 2})
            assert killing_residual(F, 1).is_zero()

    def test_rotation_is_annihilated(self):
        F = SymTensorField(1, E2, {(1,): v(2, 2), (2,): v(1, 2).scale(-1)})
        assert killing_residual(F, 1).is_zero()

    def test_shear_fails_with_known_residual(self):
        F = SymTensorField(1, E2, {(1,): v(1, 2)})
        R = killing_residual(F, 1)
        assert R.component((1, 1)) == Poly.constant(2, 2)
        assert R.component((1, 2)).is_zero() and R.component((2, 2)).is_zero()

    def test_residual_rank_and_linearity(self):
        rng = random.Random(11)
        F = random_field(rng, 1, E2, 3)
        G = random_field(rng, 1, E2, 3)
        R = killing_residual(F + G, 2)
        assert R.rank == 3
        assert R == killing_residual(F, 2) + killing_residual(G, 2)

    def test_second_order_annihilates_linear_fields(self):
        rng = random.Random(5)
        F = random_field(rng, 2, Signature(1, 1), 1)
        assert killing_residual(F, 2).is_zero()


class TestConformalResidual:
    def test_dilation(self):
        for sig in (E3, Signature(1, 3)):
            D = SymTensorField(
                1, sig, {(a,): v(a, sig.m).scale(sig.g(a)) for a in range(1, sig.m + 1)}
            )
            assert conformal_residual(D, 1).is_zero()

    def test_special_conformal_first_axis(self):
        m = 3
        comps = {}
        for a in range(1, m + 1):
            p = v(a, m) * v(1, m)
            p = p.scale(-2)
            if a == 1:
                p = p + x_squared(E3)
            comps[(a,)] = p
        K = SymTensorField(1, E3, comps)
        assert conformal_residual(K, 1).is_zero()

    def test_shear_is_not_conformal(self):
        F = SymTensorField(1, E3, {(1,): v(1, 3)})
        assert not conformal_residual(F, 1).is_zero()

    def test_non_traceless_input_rejected(self):
        F = SymTensorField(2, E3, {(1, 1): Poly.constant(3, 1)})
        with pytest.raises(ValueError):
            conformal_residual(F, 1)

    def test_matches_projected_ordinary_residual(self):
        rng = random.Random(23)
        for sig in (E2, Signature(2, 1)):
            for rank, s in ((1, 1), (1, 2), (2, 1)):
                F = random_field(rng, rank, sig, 2)
                if rank >= 2:
                    F = traceless_project(F)
                assert conformal_residual(F, s) == traceless_project(
                    killing_residual(F, s)
                )


def fraction_killing_residual(F, s):
    """The order-s residual summed in Fraction arithmetic: the reference."""
    m = F.signature.m
    out = {}
    for idx, poly in F.components.items():
        for mono, c in poly.terms.items():
            for K, beta, factor in residual_terms(idx, mono, s, m):
                terms = out.setdefault(K, {})
                terms[beta] = terms.get(beta, 0) + c * factor
    return SymTensorField(F.rank + s, F.signature, {K: Poly(m, t) for K, t in out.items()})


def fraction_traceless_project(F):
    """P applied with its dense Fraction columns: the reference."""
    if F.rank < 2:
        return F
    sig = F.signature
    out = {}
    for idx, poly in F.components.items():
        for K, c in projection_columns(F.rank, sig)[idx]:
            terms = out.setdefault(K, {})
            for mono, v in poly.terms.items():
                terms[mono] = terms.get(mono, 0) + c * v
    return SymTensorField(F.rank, sig, {K: Poly(sig.m, out[K]) for K in sorted(out)})


def fraction_trace(F):
    """sum_a g_aa F[I + (a, a)] with Poly arithmetic: the reference."""
    sig = F.signature
    out = {}
    for idx in enumerate_indices(F.rank - 2, sig.m):
        total = Poly.zero(sig.m)
        for a in range(1, sig.m + 1):
            total = total + F.component(idx + (a, a)).scale(sig.g(a))
        if total:
            out[idx] = total
    return SymTensorField(F.rank - 2, sig, out)


def field_with_denominators(rng, rank, sig, degree):
    """Random field whose coefficients have denominators 1 to 7."""
    comps = {}
    for idx in enumerate_indices(rank, sig.m):
        if rng.random() < 0.7:
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * sig.m
                for _ in range(rng.randint(0, degree)):
                    exps[rng.randrange(sig.m)] += 1
                terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            comps[idx] = Poly(sig.m, terms)
    return SymTensorField(rank, sig, comps)


class TestIntegerResidualOracle:
    """The integer-scaled residuals equal the Fraction reference, zero or not."""

    SIGS = [E3, Signature(2, 1), Signature(2, 2), Signature(1, 3)]

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_killing_residual_and_projection(self, sig):
        rng = random.Random(sig.p * 10 + sig.q)
        nonzero = 0
        for rank in range(6):
            F = field_with_denominators(rng, rank, sig, 3)
            assert traceless_project(F) == fraction_traceless_project(F)
            if rank >= 2:
                assert trace(F) == fraction_trace(F)
            for s in (1, 2, 3):
                R = killing_residual(F, s)
                assert R == fraction_killing_residual(F, s)
                nonzero += not R.is_zero()
        assert nonzero >= 12

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_conformal_residual(self, sig):
        rng = random.Random(sig.p * 10 + sig.q + 1)
        nonzero = 0
        for rank in range(5):
            T = fraction_traceless_project(field_with_denominators(rng, rank, sig, 3))
            for s in range(1, 6 - rank):
                R = conformal_residual(T, s)
                assert R == fraction_traceless_project(fraction_killing_residual(T, s))
                nonzero += not R.is_zero()
        assert nonzero >= 8


class TestCounting:
    def test_examples(self):
        assert count_eq_unknowns(1, 0, 1, 4) == (10, 16)
        assert count_eq_unknowns(1, 1, 1, 2) == (6, 6)
        assert count_eq_unknowns(1, 0, 2, 2) == (4, 6)
        assert count_eq_unknowns(2, 2, 1, 3) == (60, 60)

    def test_balance_at_k_equals_j(self):
        """First-order systems: strictly fewer equations until k reaches j.

        In one dimension every count degenerates to 1, so the strict part
        only applies for m >= 2.
        """
        for m in (1, 2, 3, 4):
            for j in range(5):
                for k in range(j + 1):
                    n_e, n_u = count_eq_unknowns(j, k, 1, m)
                    if k == j:
                        assert n_e == n_u, (j, m)
                    elif m >= 2:
                        assert n_e < n_u, (j, k, m)
                    else:
                        assert (n_e, n_u) == (1, 1)


class TestProlong:
    def test_dimensions_match_counts(self):
        for m in (1, 2, 3, 4):
            for j, k, s in itertools.product(range(4), range(4), (1, 2, 3)):
                sys_ = prolong(j, k, s, EUCLID[m])
                assert (sys_.n_rows, sys_.n_cols) == count_eq_unknowns(j, k, s, m)

    def test_corner_dimensions(self):
        sys_ = prolong(4, 4, 3, Signature(1, 3))
        assert (sys_.n_rows, sys_.n_cols) == count_eq_unknowns(4, 4, 3, 4)

    def test_entries_are_integers(self):
        sys_ = prolong(2, 1, 1, E2)
        assert all(isinstance(w, int) and w for w in sys_.entries.values())

    def test_base_system_rows(self):
        """k=0 rows are the defining equations themselves."""
        sys_ = prolong(1, 0, 1, E2)
        dense = sys_.dense()
        row = sys_.row_labels.index(((1, 2), ()))
        cols = {c for c, w in enumerate(dense[row]) if w}
        expect = {
            sys_.col_labels.index(((1,), (2,))),
            sys_.col_labels.index(((2,), (1,))),
        }
        assert cols == expect

    def _jet_vector(self, sys_, F, point):
        out = []
        for I, C in sys_.col_labels:
            p = F.component(I)
            for axis in C:
                p = p.diff(axis)
            out.append(p.eval(point))
        return out

    def test_solution_jets_lie_in_nullspace(self):
        """Jets of genuine solutions annihilate every prolonged row."""
        point = (Fraction(1), Fraction(-2))
        for k in (0, 1, 2):
            sys_ = prolong(1, k, 1, E2)
            dense = sys_.dense()
            for F in killing_vectors(E2).elements:
                u = self._jet_vector(sys_, F, point)
                for row in dense:
                    assert sum(w * ui for w, ui in zip(row, u)) == 0

    def test_conformal_solution_fails_ordinary_prolongation(self):
        point = (Fraction(2), Fraction(1), Fraction(-1))
        sys_ = prolong(1, 0, 1, E3)
        dense = sys_.dense()
        D = SymTensorField(1, E3, {(a,): v(a, 3) for a in (1, 2, 3)})
        u = self._jet_vector(sys_, D, point)
        assert any(sum(w * ui for w, ui in zip(row, u)) != 0 for row in dense)

    def test_json_round_trip(self):
        sys_ = prolong(1, 1, 1, Signature(1, 1))
        data = sys_.to_json()
        back = ProlongedSystem.from_json(data, 1, 1, 1, Signature(1, 1))
        assert back.entries == sys_.entries
        assert back.row_labels == sys_.row_labels
        assert back.col_labels == sys_.col_labels

    @pytest.mark.parametrize(
        "entry",
        [
            [0, 0, "1", "2"],
            [99, 0, "1", "1"],
            [0, 0, "1", "0"],
            ["0", 0, "2", "1"],
            [0, 0, "2", "1"],  # (0, 0) is already the first entry
        ],
        ids=["non-integral", "row-out-of-range", "zero-den", "row-not-int", "repeated"],
    )
    def test_json_malformed_entry_rejected(self, entry):
        data = prolong(1, 1, 1, Signature(1, 1)).to_json()
        data["entries"] = data["entries"] + [entry]
        with pytest.raises(ValueError):
            ProlongedSystem.from_json(data, 1, 1, 1, Signature(1, 1))

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            prolong(-1, 0, 1, E2)
        with pytest.raises(ValueError):
            prolong(1, 0, 0, E2)


def _coefficients(F):
    return {(idx, mono): c for idx, poly in F.components.items() for mono, c in poly.terms.items()}


def _apply_rows(rows, vec):
    out = {}
    for key, row in rows.items():
        val = sum((c * vec.get(u, 0) for u, c in row.items()), Fraction(0))
        if val:
            out[key] = val
    return out


def _row_scales(j, s, sig, labels):
    """For each residual key, the lcm of the denominators of that key's row of
    the traceless residual, read off the unit fields: the integer conformal
    ansatz row is that row times this lcm."""
    out = {}
    for I, mono in labels:
        unit = SymTensorField(j, sig, {I: Poly.monomial(mono)})
        for key, c in _coefficients(traceless_project(killing_residual(unit, s))).items():
            out[key] = lcm(out.get(key, 1), c.denominator)
    return out


class TestStencilConsumers:
    """The ansatz rows and the field residuals read one stencil and one projector;
    each conformal row is the traceless residual's row cleared of denominators."""

    CASES = [(j, s, sig) for sig in (Signature(2, 1), Signature(1, 3))
             for j, s in ((1, 1), (2, 1), (1, 2), (2, 2))]

    @pytest.mark.parametrize("j, s, sig", CASES, ids=str)
    def test_rows_match_field_residuals(self, j, s, sig):
        rng = random.Random(100 * j + 10 * s + sig.p)
        degree = 2
        labels = unknown_labels(j, sig.m, degree)
        pos = {lab: n for n, lab in enumerate(labels)}
        ordinary = _ansatz_rows(AnsatzSpec("ordinary", j, s, sig), labels)
        conformal = _ansatz_rows(AnsatzSpec("conformal", j, s, sig, degree), labels)
        projected = {k: r for k, r in conformal.items() if k[0] != "trace"}
        traced = {k[1:]: r for k, r in conformal.items() if k[0] == "trace"}
        scales = _row_scales(j, s, sig, labels)
        for _ in range(3):
            F = random_field(rng, j, sig, degree)
            vec = field_vector(F, pos)
            assert _apply_rows(ordinary, vec) == _coefficients(killing_residual(F, s))
            assert _apply_rows(projected, vec) == {
                key: c * scales[key]
                for key, c in _coefficients(traceless_project(killing_residual(F, s))).items()
            }
            assert _apply_rows(traced, vec) == (_coefficients(trace(F)) if j >= 2 else {})


class TestDefiningSystem:
    def test_dispatch(self):
        F = SymTensorField(1, E2, {(1,): v(2, 2), (2,): v(1, 2).scale(-1)})
        assert DefiningSystem("ordinary", 1, 1, E2).residual(F).is_zero()
        D = SymTensorField(1, E2, {(1,): v(1, 2), (2,): v(2, 2)})
        assert DefiningSystem("conformal", 1, 1, E2).residual(D).is_zero()
        assert not DefiningSystem("ordinary", 1, 1, E2).residual(D).is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            DefiningSystem("weird", 1, 1, E2)
        with pytest.raises(ValueError):
            DefiningSystem("ordinary", 1, 0, E2)
        F = SymTensorField(2, E2, {})
        with pytest.raises(ValueError):
            DefiningSystem("ordinary", 1, 1, E2).residual(F)
