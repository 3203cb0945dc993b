"""Closed-form counts, seed vector bases, and generative constructions.

Counting formulas give the exact dimension of each solution family.  The
five product/scaling/contraction lemmas below act on single solutions and
check that their inputs solve the system they claim.  Bases of whole
families come from `solver.solve_basis`; the tests keep the paper's claim
that products of the vector bases times polynomial multipliers span each
family.  Stored components follow the package convention: they satisfy the
plain-derivative defining systems, so metric signs appear explicitly inside
the seed formulas.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .equations import conformal_residual, killing_residual
from .exactalg import Poly
from .tensors import (
    Basis,
    Signature,
    SymTensorField,
    contract_x,
    enumerate_indices,
    traceless_project,
    x_squared,
)

KINDS = ("ordinary", "conformal", "symmetry-operator", "symmetry-operator-conformal")


def _ordinary_count(m: int, j: int, s: int) -> int:
    val = Fraction(s, m) * comb(j + m - 1, m - 1) * comb(j + s + m - 1, m - 1)
    return _integral(val)


def _conformal_count(m: int, j: int, s: int) -> int:
    if m == 3:
        val = Fraction(s, 6) * (2 * j + 1) * (2 * j + 2 * s + 1) * (2 * j + s + 1)
    elif m == 4:
        val = Fraction(s, 12) * (j + 1) ** 2 * (j + s + 1) ** 2 * (2 * j + 2 + s)
    else:
        raise ValueError(
            "no finite conformal count for m <= 2 (infinite family) or m > 4"
        )
    return _integral(val)


def _integral(val: Fraction) -> int:
    if val.denominator != 1:
        raise ArithmeticError(f"counting formula gave the non-integer {val}")
    return val.numerator


def count(kind: str, m: int, j: int, s: int = 1) -> int:
    """Number of independent solutions of the (kind, m, j, s) family.

    For the operator kinds, j is the operator order n and s must be 1; the
    ordinary total counts the two top tensor ranks, the conformal total
    accumulates all ranks up to n.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if m < 1 or j < 0 or s < 1:
        raise ValueError(f"invalid arguments (m={m}, j={j}, s={s})")
    if kind == "ordinary":
        return _ordinary_count(m, j, s)
    if kind == "conformal":
        return _conformal_count(m, j, s)
    if s != 1:
        raise ValueError(f"{kind} counts are defined for s=1 only")
    if kind == "symmetry-operator":
        total = _ordinary_count(m, j, 1)
        if j >= 1:
            total += _ordinary_count(m, j - 1, 1)
        return total
    return sum(_conformal_count(m, i, 1) for i in range(j + 1))


# ---------------------------------------------------------------------------
# seed vector bases
# ---------------------------------------------------------------------------


def killing_vectors(signature: Signature) -> Basis:
    """Translations and rotation/boost generators; m(m+1)/2 elements."""
    m = signature.m
    elements = []
    for a in range(1, m + 1):
        elements.append(SymTensorField(1, signature, {(a,): Poly.constant(m, 1)}))
    # generator pair (mu < nu): component^a = g^aa (delta_{a mu} x_nu - delta_{a nu} x_mu)
    for mu in range(1, m + 1):
        for nu in range(mu + 1, m + 1):
            x_mu = Poly.variable(mu, m).scale(signature.g(mu))
            x_nu = Poly.variable(nu, m).scale(signature.g(nu))
            elements.append(
                SymTensorField(
                    1,
                    signature,
                    {
                        (mu,): x_nu.scale(signature.g(mu)),
                        (nu,): x_mu.scale(-signature.g(nu)),
                    },
                )
            )
    return Basis("ordinary", 1, 1, signature, elements, degree_bound=1)


def conformal_vectors(signature: Signature) -> Basis:
    """Isometries plus dilation and special-conformal vectors; m >= 3 only."""
    m = signature.m
    if m <= 2:
        raise ValueError("the conformal algebra is infinite-dimensional for m <= 2")
    elements = list(killing_vectors(signature).elements)
    lowered = {
        a: Poly.variable(a, m).scale(signature.g(a)) for a in range(1, m + 1)
    }
    elements.append(
        SymTensorField(1, signature, {(a,): lowered[a] for a in range(1, m + 1)})
    )
    xsq = x_squared(signature)
    for c in range(1, m + 1):
        comps = {}
        for a in range(1, m + 1):
            p = lowered[a] * lowered[c] * Poly.constant(m, -2)
            if a == c:
                p = p + xsq.scale(signature.g(a))
            if p:
                comps[(a,)] = p
        elements.append(SymTensorField(1, signature, comps))
    return Basis("conformal", 1, 1, signature, elements, degree_bound=2)


# ---------------------------------------------------------------------------
# generative constructions
# ---------------------------------------------------------------------------


def _sym_vector_product(F: SymTensorField, V: SymTensorField) -> SymTensorField:
    """Unnormalized symmetric product of a rank-j field with a vector."""
    sig = F.signature
    out: dict[tuple, Poly] = {}
    for K in enumerate_indices(F.rank + 1, sig.m):
        total = Poly.zero(sig.m)
        for a in set(K):
            rest = list(K)
            rest.remove(a)
            f = F.components.get(tuple(rest))
            v = V.components.get((a,))
            if f is not None and v is not None:
                total = total + (f * v).scale(K.count(a))
        if total:
            out[K] = total
    return SymTensorField(F.rank + 1, sig, out)


def lemma1_product(F: SymTensorField, V: SymTensorField) -> SymTensorField:
    """Symmetric product of two order-1 solutions (one a vector): again one."""
    if V.rank != 1:
        raise ValueError("second factor must be a vector")
    if not killing_residual(F, 1).is_zero() or not killing_residual(V, 1).is_zero():
        raise ValueError("factors must satisfy the order-1 system")
    return _sym_vector_product(F, V)


def lemma2_product(F: SymTensorField, V: SymTensorField) -> SymTensorField:
    """Traceless part of the symmetric product of conformal solutions."""
    if V.rank != 1:
        raise ValueError("second factor must be a vector")
    if not conformal_residual(F, 1).is_zero() or not conformal_residual(V, 1).is_zero():
        raise ValueError("factors must satisfy the order-1 traceless system")
    return traceless_project(_sym_vector_product(F, V))


def lemma3_scale(F: SymTensorField, phi: Poly, order: int) -> SymTensorField:
    """Scale an order-s solution by an affine function: an order-(s+1) one.

    The order is preserved (rather than raised) only when phi is constant.
    """
    if phi.degree() > 1:
        raise ValueError("phi must be affine")
    if not killing_residual(F, order).is_zero():
        raise ValueError(f"field does not satisfy the order-{order} system")
    return F.scale(phi)


def lemma4_contract(F: SymTensorField, order: int) -> SymTensorField:
    """Contract one index with x: rank drops by one, order rises by one."""
    if F.rank < 1:
        raise ValueError("rank must be >= 1")
    if not killing_residual(F, order).is_zero():
        raise ValueError(f"field does not satisfy the order-{order} system")
    return contract_x(F, metric=False)


def _metric_hessian_scale(phi: Poly, sig: Signature) -> Fraction | None:
    """lambda with Hessian(phi) = lambda * g, or None if no such lambda."""
    m = sig.m
    lam = None
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            h = phi.diff(a).diff(b)
            if h.degree() > 0:
                return None
            val = h.coefficient((0,) * m)
            if a != b:
                if val:
                    return None
                continue
            scaled = val * sig.g(a)
            if lam is None:
                lam = scaled
            elif lam != scaled:
                return None
    return Fraction(0) if lam is None else lam


def lemma5_scale(F: SymTensorField, phi: Poly, order: int) -> SymTensorField:
    """Scale a traceless order-s solution by phi with Hessian = lambda * g."""
    if _metric_hessian_scale(phi, F.signature) is None:
        raise ValueError("phi must have metric-proportional Hessian")
    if not conformal_residual(F, order).is_zero():
        raise ValueError(f"field does not satisfy the traceless order-{order} system")
    return F.scale(phi)
