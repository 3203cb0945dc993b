"""Closed-form vector solution families in Euclidean 3-space, orders 1..3.

Each family below is written exactly as in the classical catalogue
(parameter tensors are symmetric traceless constants, eps is the
Levi-Civita symbol) and is checked against the solver span.
"""

import itertools

import pytest

from ktk import (
    Poly,
    Signature,
    SymTensorField,
    conformal_residual,
    conformal_vectors,
    killing_residual,
    solve_basis,
    traceless_project,
    x_squared,
)
from ktk.solver import AnsatzSpec, fields_to_vectors, independent_subset, same_span, span_dim

E3 = Signature(3, 0)
X2 = x_squared(E3)


def v(a):
    return Poly.variable(a, 3)


def eps(a, b, c):
    if len({a, b, c}) < 3:
        return 0
    return 1 if (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1


def unit_vectors():
    return [{1: 1}, {2: 1}, {3: 1}]


def traceless_params(rank):
    """Independent symmetric traceless constant tensors of the given rank."""
    from ktk.tensors import enumerate_indices

    candidates = []
    for idx in enumerate_indices(rank, 3):
        P = traceless_project(SymTensorField(rank, E3, {idx: 1}))
        if not P.is_zero():
            candidates.append(P)
    vecs = [
        {i: c for i, c in enumerate(field_values(P, rank)) if c}
        for P in candidates
    ]
    return [candidates[n] for n in independent_subset(vecs)]


def field_values(P, rank):
    from ktk.tensors import enumerate_indices

    return [P.component(idx).coefficient((0, 0, 0)) for idx in enumerate_indices(rank, 3)]


def vec_field(components):
    return SymTensorField(1, E3, {(a,): p for a, p in components.items() if p})


def lin_family(P):
    """F^a = P^{ab} x_b."""
    return vec_field({a: sum((v(b).scale(P.component(tuple(sorted((a, b)))).coefficient((0, 0, 0))) for b in (1, 2, 3)), Poly.zero(3)) for a in (1, 2, 3)})


def quad_family(P):
    """F^a = P^{abc} x_b x_c."""
    out = {}
    for a in (1, 2, 3):
        p = Poly.zero(3)
        for b, c in itertools.product((1, 2, 3), repeat=2):
            coeff = P.component(tuple(sorted((a, b, c)))).coefficient((0, 0, 0))
            if coeff:
                p = p + (v(b) * v(c)).scale(coeff)
        out[a] = p
    return vec_field(out)


def eps_rot_family(eta, power):
    """F^a = eps^{abc} eta_{b d1..dp} x_c x^{d1}..x^{dp} for constant eta."""
    out = {}
    for a in (1, 2, 3):
        p = Poly.zero(3)
        for b, c in itertools.product((1, 2, 3), repeat=2):
            e = eps(a, b, c)
            if not e:
                continue
            for ds in itertools.product((1, 2, 3), repeat=power):
                coeff = eta.component(tuple(sorted((b,) + ds))).coefficient((0, 0, 0))
                if not coeff:
                    continue
                mono = v(c)
                for d in ds:
                    mono = mono * v(d)
                p = p + mono.scale(e * coeff)
        out[a] = p
    return vec_field(out)


def xdotp(P, rank):
    """Full contraction of a constant rank-r tensor with x...x."""
    p = Poly.zero(3)
    for idxs in itertools.product((1, 2, 3), repeat=rank):
        coeff = P.component(tuple(sorted(idxs))).coefficient((0, 0, 0))
        if coeff:
            mono = Poly.constant(3, coeff)
            for a in idxs:
                mono = mono * v(a)
            p = p + mono
    return p


def scale_field(F, phi):
    return SymTensorField(F.rank, F.signature, {idx: p * phi for idx, p in F.components.items()})


def ordinary_family(s):
    """The catalogued order-s families (orders nest upward)."""
    out = []
    for e in unit_vectors():
        out.append(vec_field({a: Poly.constant(3, c) for a, c in e.items()}))
        out.append(eps_rot_family(SymTensorField(1, E3, {(a,): c for a, c in e.items()}), 0))
    if s >= 2:
        for P in traceless_params(2):
            out.append(lin_family(P))
            out.append(eps_rot_family(P, 1))
        out.append(vec_field({a: v(a) for a in (1, 2, 3)}))
        for e in unit_vectors():
            xi = vec_field({a: Poly.constant(3, c) for a, c in e.items()})
            out.append(
                vec_field(
                    {
                        a: xi.component((a,)) * X2 - v(a) * xdotp(xi, 1)
                        for a in (1, 2, 3)
                    }
                )
            )
    if s >= 3:
        for P in traceless_params(3):
            out.append(quad_family(P))
            out.append(eps_rot_family(P, 2))
        for e in unit_vectors():
            lt = vec_field({a: Poly.constant(3, c) for a, c in e.items()})
            out.append(vec_field({a: xdotp(lt, 1) * v(a) for a in (1, 2, 3)}))
        for P in traceless_params(2):
            out.append(
                vec_field(
                    {
                        a: lin_family(P).component((a,)) * X2 - v(a) * xdotp(P, 2)
                        for a in (1, 2, 3)
                    }
                )
            )
        for e in unit_vectors():
            xi = SymTensorField(1, E3, {(a,): c for a, c in e.items()})
            out.append(scale_field(eps_rot_family(xi, 0), X2))
    return out


def conformal_family(s):
    out = list(conformal_vectors(E3).elements)
    if s >= 2:
        out += [scale_field(F, X2) for F in conformal_vectors(E3).elements]
        out += [lin_family(P) for P in traceless_params(2)]
        out += [eps_rot_family(P, 1) for P in traceless_params(2)]
        out += [
            vec_field(
                {
                    a: lin_family(P).component((a,)) * X2 - (v(a) * xdotp(P, 2)).scale(2)
                    for a in (1, 2, 3)
                }
            )
            for P in traceless_params(2)
        ]
    if s >= 3:
        out += [scale_field(F, X2 * X2) for F in conformal_vectors(E3).elements]
        out += [scale_field(lin_family(P), X2) for P in traceless_params(2)]
        out += [scale_field(eps_rot_family(P, 1), X2) for P in traceless_params(2)]
        out += [
            scale_field(
                vec_field(
                    {
                        a: lin_family(P).component((a,)) * X2 - (v(a) * xdotp(P, 2)).scale(2)
                        for a in (1, 2, 3)
                    }
                ),
                X2,
            )
            for P in traceless_params(2)
        ]
        out += [quad_family(P) for P in traceless_params(3)]
        out += [eps_rot_family(P, 2) for P in traceless_params(3)]
        out += [
            vec_field(
                {
                    a: quad_family(P).component((a,)) * X2 - (v(a) * xdotp(P, 3)).scale(2)
                    for a in (1, 2, 3)
                }
            )
            for P in traceless_params(3)
        ]
    return out


class TestParameterBases:
    def test_traceless_dimensions(self):
        assert len(traceless_params(2)) == 5
        assert len(traceless_params(3)) == 7


class TestOrdinaryFamilies:
    @pytest.mark.parametrize("s,expect", [(1, 6), (2, 20), (3, 45)])
    def test_residuals_and_dimension(self, s, expect):
        family = ordinary_family(s)
        for F in family:
            assert killing_residual(F, s).is_zero()
        vecs = fields_to_vectors(family, 1, 3, s)
        assert span_dim(vecs) == expect

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_spans_solver_basis(self, s):
        family = ordinary_family(s)
        solved = solve_basis(AnsatzSpec("ordinary", 1, s, E3))
        bound = s
        a = fields_to_vectors(family, 1, 3, bound)
        b = fields_to_vectors(solved.elements, 1, 3, bound)
        assert same_span(a, b)


class TestConformalFamilies:
    @pytest.mark.parametrize("s,expect", [(1, 10), (2, 35), (3, 81)])
    def test_residuals_and_dimension(self, s, expect):
        family = conformal_family(s)
        for F in family:
            assert conformal_residual(F, s).is_zero()
        vecs = fields_to_vectors(family, 1, 3, 2 * s)
        assert span_dim(vecs) == expect

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_spans_solver_basis(self, s):
        family = conformal_family(s)
        solved = solve_basis(AnsatzSpec("conformal", 1, s, E3))
        bound = 2 * s
        a = fields_to_vectors(family, 1, 3, bound)
        b = fields_to_vectors(solved.elements, 1, 3, bound)
        assert same_span(a, b)

    def test_formula_value_backed_by_saturation(self):
        """The order-2 dimension is 35 and does not move when the ansatz
        degree is pushed past the proven bound."""
        from ktk import saturation_check

        assert len(solve_basis(AnsatzSpec("conformal", 1, 2, E3))) == 35
        assert saturation_check(AnsatzSpec("conformal", 1, 2, E3))
