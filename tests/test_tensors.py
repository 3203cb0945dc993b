"""Symmetric tensor fields: index bookkeeping, traces, projection, contraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktk import (
    AnsatzSpec,
    Basis,
    Poly,
    Signature,
    SymTensorField,
    contract_x,
    enumerate_indices,
    metric_outer,
    solve_basis,
    symmetrize,
    trace,
    traceless_project,
    x_squared,
)
from ktk import operators, solver, tensors
from ktk.tensors import _project_scaled, index_content

from conftest import projection_columns, random_field

E2 = Signature(2, 0)
E3 = Signature(3, 0)
MINK = Signature(1, 3)


def metric_field(sig):
    """Rank-2 field whose stored diagonal is the metric sign pattern."""
    return metric_outer(SymTensorField(0, sig, {(): Poly.constant(sig.m, 1)}))


class TestRecord:
    """The value classes keep what their dataclass versions had."""

    def test_construction_defaults_and_checks(self):
        assert Signature(1, 3) == Signature(q=3, p=1) == Signature(1, q=3)
        basis = Basis("conformal", 2, 1, MINK)
        assert (basis.elements, basis.degree_bound) == ([], 0)
        assert basis.elements is not Basis("conformal", 2, 1, MINK).elements
        assert AnsatzSpec("ordinary", 1, 1, E2).max_degree is None
        for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"p": 2}), ((1,), {"r": 2})]:
            with pytest.raises(TypeError):
                Signature(*args, **kwargs)
        with pytest.raises(ValueError):
            Signature(0, 0)
        with pytest.raises(ValueError):
            Basis("weird", 1, 1, E2)

    def test_equality_hash_and_immutability(self):
        assert Signature(1, 3) != Signature(3, 1)
        assert Signature(1, 3) != (1, 3)
        assert hash(Signature(1, 3)) == hash(Signature(1, 3))
        assert len({Signature(1, 3), Signature(1, 3), E2}) == 2
        with pytest.raises(AttributeError):
            MINK.p = 2
        with pytest.raises(TypeError):
            hash(Basis("ordinary", 1, 1, E2))
        spec = AnsatzSpec("ordinary", 1, 1, E2)
        spec.max_degree = 3
        assert spec == AnsatzSpec("ordinary", 1, 1, E2, 3) != AnsatzSpec("ordinary", 1, 1, E2)

    def test_repr_lists_fields(self):
        assert repr(MINK) == "Signature(p=1, q=3)"
        assert repr(AnsatzSpec("conformal", 1, 1, MINK)) == (
            "AnsatzSpec(kind='conformal', j=1, s=1, signature=Signature(p=1, q=3), max_degree=None)"
        )


class TestEnumeration:
    def test_rank1_dim3(self):
        assert enumerate_indices(1, 3) == [(1,), (2,), (3,)]

    def test_rank2_dim2(self):
        assert enumerate_indices(2, 2) == [(1, 1), (1, 2), (2, 2)]

    def test_rank3_dim4(self):
        idx = enumerate_indices(3, 4)
        assert len(idx) == 20
        assert idx[0] == (1, 1, 1) and idx[-1] == (4, 4, 4)
        assert all(tuple(sorted(i)) == i for i in idx)
        assert idx == sorted(idx)

    def test_rank0(self):
        assert enumerate_indices(0, 3) == [()]

    def test_content(self):
        assert index_content((1, 2, 2), 3) == (1, 2, 0)
        assert index_content((), 2) == (0, 0)


class TestXSquared:
    def test_euclidean(self):
        assert x_squared(E2) == Poly.monomial((2, 0)) + Poly.monomial((0, 2))

    def test_lorentzian(self):
        p = x_squared(MINK)
        assert p.coefficient((2, 0, 0, 0)) == 1
        assert p.coefficient((0, 2, 0, 0)) == -1
        assert p.coefficient((0, 0, 0, 2)) == -1


class TestSymmetrize:
    def test_two_orderings_sum(self):
        comps = {(1, 2): Poly.variable(1, 2), (2, 1): Poly.variable(2, 2)}
        F = symmetrize(comps, 2, E2)
        assert F.component((1, 2)) == Poly.variable(1, 2) + Poly.variable(2, 2)
        assert F.component((1, 1)).is_zero()

    def test_identity_on_sorted_storage(self):
        comps = {(1, 1): Poly.variable(1, 2), (1, 2): Poly.constant(2, 3)}
        F = symmetrize(comps, 2, E2)
        G = SymTensorField(2, E2, comps)
        assert F == G

    def test_all_six_orderings(self):
        import itertools

        comps = {perm: Poly.constant(3, 1) for perm in itertools.permutations((1, 2, 3))}
        F = symmetrize(comps, 3, E3)
        assert F.component((1, 2, 3)) == Poly.constant(3, 6)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            symmetrize({(1,): Poly.zero(2)}, 2, E2)


class TestTrace:
    def test_metric_traces_to_dimension(self):
        for sig in (Signature(4, 0), MINK, Signature(2, 2)):
            t = trace(metric_field(sig))
            assert t.component(()) == Poly.constant(sig.m, 4)

    def test_traceless_part_has_zero_trace(self):
        F = SymTensorField(2, E3, {(1, 1): Poly.constant(3, 5), (1, 2): Poly.variable(3, 3)})
        assert trace(traceless_project(F)).is_zero()

    def test_coordinate_square_traces_to_x_squared(self):
        comps = {
            (1, 1): Poly.monomial((2, 0)),
            (1, 2): Poly.monomial((1, 1)),
            (2, 2): Poly.monomial((0, 2)),
        }
        F = SymTensorField(2, E2, comps)
        assert trace(F).component(()) == x_squared(E2)

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            trace(SymTensorField(1, E2, {(1,): Poly.zero(2)}))

    def test_pair_validated(self):
        F = metric_field(E2)
        with pytest.raises(ValueError):
            trace(F, pair=(1, 1))
        assert trace(F, pair=(0, 1)) == trace(F)


class TestTracelessProject:
    def test_idempotent_example(self):
        F = SymTensorField(2, E3, {(1, 1): Poly.constant(3, 1)})
        P = traceless_project(F)
        assert traceless_project(P) == P

    def test_unit_diagonal_dim3(self):
        F = SymTensorField(2, E3, {(1, 1): Poly.constant(3, 1)})
        P = traceless_project(F)
        assert P.component((1, 1)) == Poly.constant(3, Fraction(2, 3))
        assert P.component((2, 2)) == Poly.constant(3, Fraction(-1, 3))
        assert P.component((3, 3)) == Poly.constant(3, Fraction(-1, 3))
        assert P.component((1, 2)).is_zero()

    def test_rank1_untouched(self):
        F = SymTensorField(1, E3, {(2,): Poly.variable(1, 3)})
        assert traceless_project(F) == F

    def test_metric_projects_to_zero(self):
        for sig in (E3, MINK):
            assert traceless_project(metric_field(sig)).is_zero()


SMALL_SIGS = [Signature(p, m - p) for m in range(1, 5) for p in range(m + 1)]


def _nonzero_terms(comps, d) -> dict:
    """{(index, monomial): value / d} over the nonzero values of comps."""
    return {
        (K, mono): Fraction(c, d) for K, terms in comps.items() for mono, c in terms.items() if c
    }


def integer_field(rng: random.Random, rank: int, sig: Signature) -> SymTensorField:
    """A rank-`rank` field whose components are small integer combinations of
    a few monomials of degree <= 2."""
    monos = [tuple(rng.randrange(3) for _ in range(sig.m)) for _ in range(3)]
    comps = {}
    for idx in enumerate_indices(rank, sig.m):
        terms = {mono: rng.randint(-5, 5) for mono in rng.sample(monos, rng.randint(0, 3))}
        comps[idx] = Poly(sig.m, {mono: Fraction(c) for mono, c in terms.items() if c})
    return SymTensorField(rank, sig, comps)


@pytest.mark.parametrize(
    "rank, sig", [(rank, sig) for rank in range(6) for sig in SMALL_SIGS], ids=str
)
def test_trace_outer_commutator(rank, sig):
    """tr(outer T) - outer(tr T) = (m + 2 rank) T: the sl2 relation that the
    closed form of the traceless projector rests on."""
    T = integer_field(random.Random(f"sl2{rank}{sig}"), rank, sig)
    lowered = metric_outer(trace(T)) if rank >= 2 else SymTensorField(rank, sig)
    assert trace(metric_outer(T)) - lowered == T.scale(sig.m + 2 * rank)


class TestFactoredProjection:
    """`_project_scaled` applies P in closed form, a sum of outer^k tr^k; the
    dense columns of `conftest.projection_columns` are the oracle."""

    @pytest.mark.parametrize(
        "rank, sig", [(rank, sig) for rank in (2, 3, 4, 5, 6) for sig in SMALL_SIGS], ids=str
    )
    def test_equals_projector_columns(self, rank, sig):
        rng = random.Random(f"{rank}{sig}")
        monos = [tuple(rng.randrange(3) for _ in range(sig.m)) for _ in range(3)]
        comps = {}
        for idx in enumerate_indices(rank, sig.m):
            terms = {mono: rng.randint(-5, 5) for mono in rng.sample(monos, rng.randint(0, 3))}
            if terms:
                comps[idx] = terms
        expect: dict = {}
        for idx, terms in comps.items():
            for K, v in projection_columns(rank, sig)[idx]:
                acc = expect.setdefault(K, {})
                for mono, c in terms.items():
                    acc[mono] = acc.get(mono, 0) + v * c
        den, got = _project_scaled(comps, rank, sig)
        assert list(got) == sorted(got)
        assert _nonzero_terms(got, den) == _nonzero_terms(expect, 1)

    def test_verify_builds_no_projector_columns(self, monkeypatch):
        """`verify` reduces no matrix, so its cost follows the file, not the
        signature: the rank-3 file on [48, 0] has one constant element, and
        its rank-4 residual has C(51, 4) indices."""
        sig48 = Signature(48, 0)
        bases = [
            solve_basis(AnsatzSpec("conformal", 2, 1, MINK)),
            solve_basis(AnsatzSpec("conformal", 1, 2, Signature(2, 1))),
            Basis("conformal", 1, 1, sig48, [SymTensorField(1, sig48, {(1,): 1})], 2),
            Basis("conformal", 3, 1, sig48, [SymTensorField(3, sig48, {(1, 2, 3): 1})], 4),
        ]

        def refuse(rows):
            raise AssertionError("verify reduced a matrix")

        monkeypatch.setattr(solver, "reduce", refuse)
        monkeypatch.setattr(operators, "reduce", refuse)
        assert not [name for name in vars(tensors) if name.endswith("_CACHE")]
        for basis in bases:
            assert solver.verify_basis(basis) == []


class TestContractX:
    def test_constant_vector(self):
        F = SymTensorField(1, E2, {(1,): Poly.constant(2, 1)})
        assert contract_x(F).component(()) == Poly.variable(1, 2)

    def test_constant_vector_indefinite(self):
        sig = Signature(1, 1)
        F = SymTensorField(1, sig, {(2,): Poly.constant(2, 1)})
        assert contract_x(F).component(()) == Poly.variable(2, 2).scale(-1)
        assert contract_x(F, metric=False).component(()) == Poly.variable(2, 2)

    def test_metric_contracts_to_coordinates(self):
        for sig in (E3, MINK, Signature(2, 2)):
            C = contract_x(metric_field(sig))
            for a in range(1, sig.m + 1):
                assert C.component((a,)) == Poly.variable(a, sig.m)

    def test_rotation_contracts_to_zero(self):
        F = SymTensorField(
            1, E2, {(1,): Poly.variable(2, 2), (2,): Poly.variable(1, 2).scale(-1)}
        )
        assert contract_x(F).is_zero()


class TestFieldValidation:
    def test_unsorted_index_rejected(self):
        with pytest.raises(ValueError):
            SymTensorField(2, E2, {(2, 1): Poly.zero(2)})

    def test_out_of_range_axis_rejected(self):
        with pytest.raises(ValueError):
            SymTensorField(1, E2, {(3,): Poly.constant(2, 1)})

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            SymTensorField(2, E2, {(1,): Poly.zero(2)})

    def test_scalar_components_coerced(self):
        F = SymTensorField(1, E2, {(1,): 5})
        assert F.component((1,)) == Poly.constant(2, 5)

    def test_zero_components_dropped(self):
        F = SymTensorField(1, E2, {(1,): Poly.zero(2)})
        assert F.is_zero() and not F.components


class TestSerialization:
    def test_field_round_trip(self):
        rng = random.Random(3)
        for sig in (E2, MINK):
            F = random_field(rng, 2, sig, 3)
            assert SymTensorField.from_json(F.to_json()) == F

    def test_basis_round_trip(self):
        F = SymTensorField(1, E2, {(1,): Poly.variable(2, 2)})
        b = Basis("ordinary", 1, 1, E2, [F], degree_bound=1)
        b2 = Basis.from_json(b.to_json())
        assert b2.kind == "ordinary" and b2.signature == E2
        assert b2.elements == b.elements and b2.degree_bound == 1

    def test_bad_count_rejected(self):
        F = SymTensorField(1, E2, {(1,): Poly.variable(2, 2)})
        data = Basis("ordinary", 1, 1, E2, [F], 1).to_json()
        data["count"] = 7
        with pytest.raises(ValueError):
            Basis.from_json(data)


def reference_basis_from_json(data: dict) -> Basis:
    """The former reader: a Fraction per term, then the checking constructors."""

    def poly(terms, m):
        return Poly(m, {tuple(t["exps"]): Fraction(int(t["num"]), int(t["den"])) for t in terms})

    def field(el):
        sig = Signature(*el["signature"])
        comps = {tuple(c["index"]): poly(c["poly"], sig.m) for c in el["components"]}
        return SymTensorField(el["rank"], sig, comps)

    return Basis(
        data["kind"],
        data["j"],
        data["s"],
        Signature(*data["signature"]),
        [field(el) for el in data["elements"]],
        data["degree_bound"],
    )


class TestReaderOracle:
    """The strict one-pass reader reads what the former reader read."""

    @pytest.mark.parametrize(
        "case",
        [("conformal", 2, 2, 2, 1), ("ordinary", 3, 2, 1, 3), ("conformal", 2, 1, 1, 3)],
        ids=str,
    )
    def test_round_trip_equals_former_reader(self, case):
        kind, j, s, p, q = case
        basis = solve_basis(AnsatzSpec(kind, j, s, Signature(p, q)))
        data = basis.to_json()
        read = Basis.from_json(data)
        assert read == basis
        assert read == reference_basis_from_json(data)
        assert read.to_json() == data
        assert all(
            type(c) is Fraction
            for el in read.elements
            for poly in el.components.values()
            for c in poly.terms.values()
        )


@st.composite
def small_fields(draw, rank=2):
    m = draw(st.integers(2, 3))
    q = draw(st.integers(0, m))
    sig = Signature(m - q, q)
    seed = draw(st.integers(0, 10**6))
    return random_field(random.Random(seed), rank, sig, 2)


class TestProjectionProperties:
    @given(small_fields(rank=2))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_rank2(self, F):
        P = traceless_project(F)
        assert traceless_project(P) == P
        assert trace(P).is_zero()

    @given(small_fields(rank=3))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_rank3(self, F):
        P = traceless_project(F)
        assert traceless_project(P) == P
        assert trace(P).is_zero()

    @pytest.mark.parametrize("rank", [4, 5])
    @pytest.mark.parametrize("sig", [MINK, Signature(4, 0)], ids=str)
    def test_idempotent_high_rank(self, rank, sig):
        rng = random.Random(10 * rank + sig.p)
        for _ in range(3):
            P = traceless_project(random_field(rng, rank, sig, 2))
            assert traceless_project(P) == P
            assert trace(P).is_zero()

    @given(small_fields(rank=2))
    @settings(max_examples=40, deadline=None)
    def test_rank2_closed_form(self, F):
        m = F.signature.m
        G = metric_field(F.signature)
        tr = trace(F).component(())
        P = traceless_project(F)
        expect = F - SymTensorField(
            2, F.signature, {idx: poly.scale(Fraction(1, m)) * tr for idx, poly in G.components.items()}
        )
        assert P == expect

    @given(small_fields(rank=2))
    @settings(max_examples=30, deadline=None)
    def test_projection_is_linear(self, F):
        assert traceless_project(F.scale(Fraction(3, 2))) == traceless_project(F).scale(Fraction(3, 2))
