"""Differential operators with polynomial coefficients, normal-ordered.

A term x^alpha d^beta maps to the operator x^alpha * del^beta with all
coordinate factors to the left of all derivatives; composition rewrites
d * x = x * d + 1 into that form.  Symmetry operators of the wave operator
are assembled from symmetric tensor fields by nested anticommutators, and
the symmetry condition [Q, L] = alpha * L is decided by exact division of
the commutator's symbol by the principal quadratic form.  The lower-order
completion of a conformal field is a linear solve whose blocks are each
reduced once per (signature, rank, Weyl grade), and every completed operator
is certified by that same exact division.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, perm

from .exactalg import (
    Poly,
    Terms,
    _as_fraction,
    _json_monomial,
    clear_row,
    grlex_key,
    monomials_upto,
    reduce,
)
from .solver import span_dim
from .tensors import Record, Signature, SymTensorField


def _term_key(key: tuple) -> tuple:
    x_exps, d_exps = key
    return (grlex_key(d_exps), grlex_key(x_exps))


class WeylOp(Terms):
    """Normal-ordered polynomial-coefficient differential operator, keyed by
    (x_exps, d_exps) pairs."""

    __slots__ = ()

    def _key(self, key) -> tuple:
        x_exps, d_exps = key
        return (super()._key(x_exps), super()._key(d_exps))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim: int, c) -> "WeylOp":
        z = (0,) * dim
        return cls(dim, {(z, z): c})

    @classmethod
    def x(cls, axis: int, dim: int) -> "WeylOp":
        return cls(dim, {(cls._unit(axis, dim), (0,) * dim): 1})

    @classmethod
    def d(cls, axis: int, dim: int) -> "WeylOp":
        return cls(dim, {((0,) * dim, cls._unit(axis, dim)): 1})

    @classmethod
    def from_poly(cls, poly: Poly) -> "WeylOp":
        z = (0,) * poly.dim
        return cls._new(poly.dim, {(exps, z): c for exps, c in poly.terms.items()})

    # -- ring structure ----------------------------------------------------

    def __mul__(self, other) -> "WeylOp":
        if isinstance(other, WeylOp):
            return weyl_mul(self, other)
        return self.scale(other)

    def order(self) -> int:
        """Maximal total derivative degree; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(sum(d) for _, d in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "WeylOp(0)"
        bits = []
        for (x_exps, d_exps) in sorted(self.terms, key=_term_key):
            c = self.terms[(x_exps, d_exps)]
            factors = [str(c)] if c != 1 or (not any(x_exps) and not any(d_exps)) else []
            for i, e in enumerate(x_exps):
                if e:
                    factors.append(f"x{i+1}" + (f"^{e}" if e > 1 else ""))
            for i, e in enumerate(d_exps):
                if e:
                    factors.append(f"d{i+1}" + (f"^{e}" if e > 1 else ""))
            bits.append("*".join(factors))
        return "WeylOp(" + " + ".join(bits) + ")"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        out = []
        for (x_exps, d_exps) in sorted(self.terms, key=_term_key):
            c = self.terms[(x_exps, d_exps)]
            out.append(
                {
                    "x_exps": list(x_exps),
                    "d_exps": list(d_exps),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
            )
        return out

    @classmethod
    def from_json(cls, data: list, dim: int) -> "WeylOp":
        """Read `to_json` output as strictly as `Poly.from_json`: each
        (x_exps, d_exps) pair is given once; else ValueError."""
        return cls._read_json(
            data,
            dim,
            lambda t: (_json_monomial(t.get("x_exps"), dim), _json_monomial(t.get("d_exps"), dim)),
        )


def weyl_mul(A: WeylOp, B: WeylOp) -> WeylOp:
    """Composition A o B in normal order.

    Each exchange of d^beta past x^gamma follows
    d^b x^g = sum_nu C(b,nu) g!/(g-nu)! x^(g-nu) d^(b-nu), per axis.
    """
    A._check_dim(B)
    dim = A.dim
    out: dict[tuple, Fraction] = {}
    for (xa, da), ca in A.terms.items():
        for (xb, db), cb in B.terms.items():
            base = ca * cb
            ranges = [range(min(da[i], xb[i]) + 1) for i in range(dim)]
            for nu in itertools.product(*ranges):
                coeff = base
                for i in range(dim):
                    if nu[i]:
                        coeff *= comb(da[i], nu[i]) * perm(xb[i], nu[i])
                key = (
                    tuple(xa[i] + xb[i] - nu[i] for i in range(dim)),
                    tuple(da[i] + db[i] - nu[i] for i in range(dim)),
                )
                acc = out.get(key, Fraction(0)) + coeff
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
    return WeylOp._new(dim, out)


def commutator(A: WeylOp, B: WeylOp) -> WeylOp:
    return weyl_mul(A, B) - weyl_mul(B, A)


def anticommutator(A: WeylOp, B: WeylOp) -> WeylOp:
    return weyl_mul(A, B) + weyl_mul(B, A)


# ---------------------------------------------------------------------------
# the wave operator and symmetry construction
# ---------------------------------------------------------------------------


class KGFOperator(Record, frozen=True):
    """Wave operator sum_a g^aa d_a^2 - kappa^2 in signature (p, q)."""

    signature: Signature
    kappa_squared: Fraction = Fraction(0)

    def principal(self) -> WeylOp:
        m = self.signature.m
        terms = {}
        for a in range(1, m + 1):
            d2 = tuple(2 if i == a - 1 else 0 for i in range(m))
            terms[((0,) * m, d2)] = Fraction(self.signature.g(a))
        return WeylOp(m, terms)

    def as_weyl(self) -> WeylOp:
        op = self.principal()
        k2 = _as_fraction(self.kappa_squared)
        if k2:
            op = op - WeylOp.constant(self.signature.m, k2)
        return op


def kgf(signature: Signature, kappa_squared=0) -> KGFOperator:
    return KGFOperator(signature, _as_fraction(kappa_squared))


def build_symmetry_operator(F: SymTensorField) -> WeylOp:
    """Nested anticommutators of a rank-j field with one derivative per index.

    Each derivative slot carries the inverse-metric sign (the derivative with
    respect to the lowered coordinate), which is what makes the result
    commute with the wave operator when F solves the order-1 system; sorted
    multi-indices enter with their multinomial multiplicity.  Rank 0 returns
    multiplication by the scalar component; the leading symbol is
    2^j * F^(a1..aj) matched with those derivatives.
    """
    sig = F.signature
    m = sig.m
    total = WeylOp.zero(m)
    for idx, poly in sorted(F.components.items()):
        counts = [idx.count(a) for a in set(idx)]
        mult = factorial(len(idx))
        for c in counts:
            mult //= factorial(c)
        op = WeylOp.from_poly(poly)
        for a in idx:
            op = anticommutator(op, WeylOp.d(a, m).scale(sig.g(a)))
        total = total + op.scale(mult)
    return total


def divide_by_principal(C: WeylOp, signature: Signature) -> tuple[WeylOp, WeylOp]:
    """Write C = alpha o box + remainder by exact symbol division.

    The principal symbol Q(xi) = sum g^aa xi_a^2 has constant coefficients,
    so composing on the right multiplies normal symbols; division eliminates
    every term with xi_1 degree >= 2, and the remainder is zero exactly when
    C lies in the left ideal generated by the principal part.
    """
    m = signature.m
    if C.dim != m:
        raise ValueError("dimension mismatch")
    g1 = Fraction(signature.g(1))
    work = dict(C.terms)
    alpha: dict[tuple, Fraction] = {}
    while True:
        candidates = [k for k in work if k[1][0] >= 2]
        if not candidates:
            break
        x_exps, d_exps = max(candidates, key=_term_key)
        c = work[(x_exps, d_exps)] / g1
        q_d = (d_exps[0] - 2,) + d_exps[1:]
        alpha[(x_exps, q_d)] = alpha.get((x_exps, q_d), Fraction(0)) + c
        for a in range(1, m + 1):
            shift = tuple(
                q_d[i] + (2 if i == a - 1 else 0) for i in range(m)
            )
            key = (x_exps, shift)
            acc = work.get(key, Fraction(0)) - c * signature.g(a)
            if acc:
                work[key] = acc
            elif key in work:
                del work[key]
    return WeylOp._new(m, alpha), WeylOp._new(m, work)


class SymmetryReport(Record):
    is_symmetry: bool
    alpha: WeylOp
    remainder: WeylOp


def check_symmetry(Q: WeylOp, L: KGFOperator) -> SymmetryReport:
    """Decide [Q, L] = alpha o L via the principal part.

    The mass term is a constant, so [Q, L] = [Q, box]; Q is a symmetry when
    that commutator is a left multiple of the principal part (alpha = 0 for
    operators built from the non-conformal families).
    """
    com = commutator(Q, L.as_weyl())
    alpha, remainder = divide_by_principal(com, L.signature)
    return SymmetryReport(
        is_symmetry=remainder.is_zero(), alpha=alpha, remainder=remainder
    )


# Completion blocks per (signature, rank, Weyl grade of the remainder): one
# (unit, form) pair per greedy independent column of the grade, in column
# order, where the form {label: weight} reads that unit's coefficient off a
# right-hand side in the columns' span; None for a grade that no column reaches.
_COMPLETION_CACHE: dict[tuple[Signature, int, tuple], list | None] = {}


def _grade(x_exps: tuple, d_exps: tuple) -> tuple:
    """Weyl grade of x^alpha d^beta: weight |alpha| - |beta|, parity per axis."""
    return (sum(x_exps) - sum(d_exps),) + tuple(
        (a - b) % 2 for a, b in zip(x_exps, d_exps)
    )


def _grade_units(m: int, rank: int, grade: tuple) -> list[tuple]:
    """The units x^alpha d^beta, |beta| < rank, whose columns can fall in the
    remainder grade `grade`, by beta and then alpha in graded-lex order.
    [box, .] lowers the weight by 2 and keeps each parity, and the division
    by box keeps the grade, so a unit's grade is `grade` with weight + 2."""
    unit_grade = (grade[0] + 2,) + grade[1:]
    d_monos = monomials_upto(m, max(rank, 1) - 1)
    x_monos = monomials_upto(m, unit_grade[0] + sum(d_monos[-1]))
    return [(x, d) for d in d_monos for x in x_monos if _grade(x, d) == unit_grade]


def _completion_block(sig: Signature, rank: int, grade: tuple) -> list | None:
    key = (sig, rank, grade)
    if key in _COMPLETION_CACHE:
        return _COMPLETION_CACHE[key]
    box = KGFOperator(sig).principal()
    # Column i of A is the remainder of [box, units[i]] modulo box.
    units = _grade_units(sig.m, rank, grade)
    by_label: dict[tuple, dict] = {}
    for i, unit in enumerate(units):
        _, r = divide_by_principal(commutator(box, WeylOp(sig.m, {unit: 1})), sig)
        for lab, v in r.terms.items():
            by_label.setdefault(lab, {})[i] = v
    labels = sorted(by_label)
    # Reduce the rows (A[l] | e_l).  The n unit columns come first, so their
    # pivots are the greedy independent columns, and pivot p's row (R | E)
    # gives x_p = E . b / R[p] in the solution of A x = b that is zero off them.
    n = len(units)
    reduced = reduce(clear_row({**by_label[lab], n + k: 1}) for k, lab in enumerate(labels))
    block = [
        (units[p], {labels[c - n]: Fraction(v, row[p]) for c, v in row.items() if c >= n})
        for p, row in reduced
        if p < n
    ] or None
    _COMPLETION_CACHE[key] = block
    return block


def conformal_symmetry_operator(F: SymTensorField) -> WeylOp:
    """Symmetry operator of the massless equation from a traceless solution.

    The nested-anticommutator part alone fails the symmetry condition for
    genuinely conformal fields (a special-conformal vector needs its weight
    term), so a lower-order part is added: terms x^alpha d^beta of derivative
    order < rank, chosen so that the commutator with the principal part
    divides exactly.  That solve is linear in F, and its columns (the
    remainders of [box, x^alpha d^beta]) split by Weyl grade (`_grade`), which
    [box, .] and the division keep, and depend only on the signature and the
    rank.  So `_completion_block` reduces each grade's block once, when a
    remainder first reaches it, and a field costs one linear form per greedy
    independent column of each grade its remainder touches.  The result, the
    unique solution that is zero off the greedy independent columns, is
    certified by exact division, or ValueError.
    """
    sig = F.signature
    box = KGFOperator(sig).principal()
    lead = build_symmetry_operator(F)
    _, rem = divide_by_principal(commutator(box, lead), sig)
    if rem.is_zero():
        return lead
    targets: dict[tuple, dict] = {}
    for key, c in rem.terms.items():
        targets.setdefault(_grade(*key), {})[key] = c
    terms = {}
    for grade, target in targets.items():
        block = _completion_block(sig, F.rank, grade)
        if block is None:
            raise ValueError("field does not extend to a symmetry operator")
        for unit, form in block:
            c = -sum((w * target[lab] for lab, w in form.items() if lab in target), Fraction(0))
            if c:
                terms[unit] = c
    correction = WeylOp(sig.m, terms)
    # The remainder is linear, so [box, lead + correction] divides exactly
    # iff the correction's remainder cancels the lead's.
    if not (rem + divide_by_principal(commutator(box, correction), sig)[1]).is_zero():
        raise ValueError("field does not extend to a symmetry operator")
    return lead + correction


def lie_closure_check(generators: list[WeylOp]) -> bool:
    """True iff all pairwise commutators stay in the rational span, that is
    iff adding them leaves the dimension of the span unchanged."""
    vecs = [g.terms for g in generators]
    brackets = [commutator(A, B).terms for A, B in itertools.combinations(generators, 2)]
    return span_dim(vecs + brackets) == span_dim(vecs)
