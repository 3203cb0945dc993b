"""Symmetric tensor fields with polynomial components over R^{p,q}.

Indices are 1-based axis labels stored as sorted tuples, so a rank-j field
keeps exactly C(j+m-1, m-1) components.  The metric is diagonal with p
entries +1 followed by q entries -1; component polynomials are written in
the plain coordinates x^a, and every lowered index x_a is expanded as
g_aa * x^a.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping

from .exactalg import Poly, _json_array, _json_key

SymMultiIndex = tuple  # non-decreasing tuple of axis labels in 1..m


class Record:
    """Base of the package's value classes, in place of `dataclasses`, whose
    import pulls `inspect`, `ast` and `dis` into every CLI start.  The
    annotated class attributes are the fields, in order, and a class
    attribute is a field's default.  Fields are given positionally or by
    keyword and checked by `__post_init__`; == compares two instances of one
    class field by field, and repr lists the fields.  A subclass declared
    with `frozen=True` refuses assignment and hashes its fields."""

    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = False):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._frozen
            cls.__hash__ = lambda self: hash(tuple(getattr(self, f) for f in self._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if (
            len(args) > len(fields)
            or len(values) < len(args) + len(kwargs)
            or not values.keys() <= set(fields)
            or any(f not in values and not hasattr(type(self), f) for f in fields)
        ):
            name = type(self).__name__
            raise TypeError(f"{name} takes the fields {fields}, got {args}, {kwargs}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _frozen(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class Signature(Record, frozen=True):
    """Metric signature (p pluses, q minuses); dimension m = p + q."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError(f"invalid signature ({self.p}, {self.q})")

    @property
    def m(self) -> int:
        return self.p + self.q

    def g(self, axis: int) -> int:
        """Diagonal metric entry for a 1-based axis (g^aa = g_aa = +-1)."""
        if not 1 <= axis <= self.m:
            raise ValueError(f"axis {axis} out of range 1..{self.m}")
        return 1 if axis <= self.p else -1


def enumerate_indices(j: int, m: int) -> list[SymMultiIndex]:
    """All sorted rank-j multi-indices over axes 1..m, lexicographically."""
    if j < 0 or m < 1:
        raise ValueError(f"invalid rank {j} or dimension {m}")
    return list(itertools.combinations_with_replacement(range(1, m + 1), j))


def index_content(idx: SymMultiIndex, m: int) -> tuple[int, ...]:
    """Multiplicity vector of an index: how often each axis appears."""
    content = [0] * m
    for a in idx:
        content[a - 1] += 1
    return tuple(content)


def x_squared(sig: Signature) -> Poly:
    """The invariant x^2 = g_ab x^a x^b = sum_a g_aa (x^a)^2."""
    m = sig.m
    terms = {}
    for a in range(1, m + 1):
        exps = tuple(2 if i == a - 1 else 0 for i in range(m))
        terms[exps] = Fraction(sig.g(a))
    return Poly(m, terms)


class SymTensorField:
    """Rank-j symmetric tensor field, components keyed by sorted multi-index."""

    __slots__ = ("rank", "signature", "components")

    def __init__(
        self,
        rank: int,
        signature: Signature,
        components: Mapping[SymMultiIndex, Poly] | None = None,
    ):
        if rank < 0:
            raise ValueError(f"rank must be >= 0, got {rank}")
        self.rank = rank
        self.signature = signature
        m = signature.m
        clean: dict[SymMultiIndex, Poly] = {}
        if components:
            for idx, poly in components.items():
                idx = _checked_index(idx, rank, m)
                if not isinstance(poly, Poly):
                    poly = Poly.constant(m, poly)
                if poly.dim != m:
                    raise ValueError("component dimension does not match signature")
                if poly:
                    clean[idx] = poly
        self.components = clean

    @property
    def dim(self) -> int:
        return self.signature.m

    def component(self, idx: Iterable[int]) -> Poly:
        key = tuple(sorted(idx))
        got = self.components.get(key)
        return got if got is not None else Poly.zero(self.dim)

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "SymTensorField") -> "SymTensorField":
        if not isinstance(other, SymTensorField):
            return NotImplemented
        if self.rank != other.rank or self.signature != other.signature:
            raise ValueError("rank/signature mismatch")
        comps = dict(self.components)
        for idx, poly in other.components.items():
            acc = comps.get(idx)
            comps[idx] = poly if acc is None else acc + poly
        return SymTensorField(self.rank, self.signature, comps)

    def __sub__(self, other: "SymTensorField") -> "SymTensorField":
        return self + other.scale(-1)

    def scale(self, c) -> "SymTensorField":
        """Every component times c, a number or a Poly."""
        return SymTensorField(
            self.rank,
            self.signature,
            {idx: poly * c for idx, poly in self.components.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensorField):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.signature == other.signature
            and self.components == other.components
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{idx}: {poly!r}" for idx, poly in sorted(self.components.items())
        )
        return f"SymTensorField(rank={self.rank}, {{{body}}})"

    def max_degree(self) -> int:
        """Largest total degree over all components; -1 if zero."""
        if not self.components:
            return -1
        return max(poly.degree() for poly in self.components.values())

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "signature": [self.signature.p, self.signature.q],
            "components": [
                {"index": list(idx), "poly": self.components[idx].to_json()}
                for idx in sorted(self.components)
            ],
        }

    @classmethod
    def from_json(cls, data: dict, seen: dict | None = None) -> "SymTensorField":
        """Read `to_json` output like `Poly.from_json` (`seen` is passed on): ints
        for the rank and the signature, each index `rank` sorted int axes in 1..m
        given once."""
        rank = _json_int(_json_key(data, "rank"), "rank")
        sig = _json_signature(_json_key(data, "signature"))
        m = sig.m
        comps: dict[SymMultiIndex, Poly] = {}
        for entry in _json_array(_json_key(data, "components"), "components"):
            idx = _checked_index(_json_array(_json_key(entry, "index"), "index"), rank, m)
            if idx in comps:
                raise ValueError(f"index {idx} is given twice")
            comps[idx] = Poly.from_json(_json_key(entry, "poly"), m, seen)
        # every check of __init__ is made above, so its second pass is skipped
        out = cls.__new__(cls)
        out.rank = rank
        out.signature = sig
        out.components = {idx: poly for idx, poly in comps.items() if poly}
        return out


def _checked_index(idx, rank: int, m: int) -> SymMultiIndex:
    """idx as a tuple if it is `rank` sorted int axes in 1..m, else ValueError."""
    idx = tuple(idx)
    if len(idx) != rank or any(type(a) is not int or not 1 <= a <= m for a in idx):
        raise ValueError(f"index {idx} is not {rank} int axes in 1..{m}")
    if idx != tuple(sorted(idx)):
        raise ValueError(f"index {idx} is not sorted")
    return idx


def _json_int(value, name: str, least: int = 0) -> int:
    """A JSON integer field: an int (not a bool or a float) >= least, else ValueError."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return value


def _json_signature(value) -> Signature:
    """A JSON [p, q] array of ints as a Signature, else ValueError."""
    if len(_json_array(value, "signature")) != 2:
        raise ValueError(f"signature must be [p, q], got {len(value)} entries")
    return Signature(*(_json_int(v, "signature entry") for v in value))


def symmetrize(
    components: Mapping[tuple, Poly], j: int, signature: Signature
) -> SymTensorField:
    """Collapse arbitrarily-ordered index storage into a symmetric field.

    The component at a sorted index I is the sum of the input values over all
    distinct orderings of I; absent orderings contribute zero.  On data that
    is already stored by sorted index the map is the identity.
    """
    m = signature.m
    out: dict[SymMultiIndex, Poly] = {}
    for key in components:
        if len(tuple(key)) != j:
            raise ValueError(f"index {key} does not have rank {j}")
    for idx in enumerate_indices(j, m):
        total = Poly.zero(m)
        for perm in set(itertools.permutations(idx)):
            got = components.get(perm)
            if got is not None:
                if not isinstance(got, Poly):
                    got = Poly.constant(m, got)
                total = total + got
        if total:
            out[idx] = total
    return SymTensorField(j, signature, out)


def _scaled(F: SymTensorField) -> tuple[int, dict[SymMultiIndex, dict[tuple, int]]]:
    """F times the lcm of its denominators: (scale, integer terms by index)."""
    scale = lcm(*(c.denominator for poly in F.components.values() for c in poly.terms.values()))
    return scale, {
        idx: {mono: c.numerator * (scale // c.denominator) for mono, c in poly.terms.items()}
        for idx, poly in F.components.items()
    }


def _unscaled(
    rank: int, sig: Signature, comps: Mapping[SymMultiIndex, Mapping[tuple, int]], scale: int
) -> SymTensorField:
    """The field comps / scale; only its nonzero terms become Fractions."""
    out = {}
    for idx, terms in comps.items():
        poly = {mono: Fraction(c, scale) for mono, c in terms.items() if c}
        if poly:
            out[idx] = Poly(sig.m, poly)
    return SymTensorField(rank, sig, out)


def _trace_scaled(comps: Mapping, sig: Signature) -> dict[SymMultiIndex, dict[tuple, int]]:
    """Integer trace: T[I] = sum_a g_aa F[I + (a, a)], nonzero terms only, by index."""
    out: dict[SymMultiIndex, dict[tuple, int]] = {}
    for K, terms in comps.items():
        for a in set(K):
            if K.count(a) < 2:
                continue
            i = K.index(a)
            acc = out.setdefault(K[:i] + K[i + 2 :], {})
            g = sig.g(a)
            for mono, c in terms.items():
                acc[mono] = acc.get(mono, 0) + g * c
    return {idx: t for idx in sorted(out) if (t := {mo: c for mo, c in out[idx].items() if c})}


def trace(F: SymTensorField, pair: tuple[int, int] = (0, 1)) -> SymTensorField:
    """Metric contraction over one pair of index positions (rank drops by 2).

    For symmetric storage the result does not depend on which positions are
    chosen; the pair argument is validated only.  The sums run on F scaled
    to integers.
    """
    j = F.rank
    if j < 2:
        raise ValueError(f"trace needs rank >= 2, got {j}")
    p1, p2 = pair
    if not (0 <= p1 < p2 < j):
        raise ValueError(f"invalid position pair {pair} for rank {j}")
    scale, comps = _scaled(F)
    return _unscaled(j - 2, F.signature, _trace_scaled(comps, F.signature), scale)


def _outer_scaled(comps: Mapping, sig: Signature) -> dict[SymMultiIndex, dict[tuple, int]]:
    """Integer outer product g (x) T: out[K] sums comb(K.count(a), 2) g_aa T[I]
    over the axes a with K = sort(I + (a, a)), for the nonzero terms of T."""
    out: dict[SymMultiIndex, dict[tuple, int]] = {}
    for I, terms in comps.items():
        if terms := {key: c for key, c in terms.items() if c}:
            for a in range(1, sig.m + 1):
                K = tuple(sorted(I + (a, a)))
                w = comb(K.count(a), 2) * sig.g(a)
                acc = out.setdefault(K, {})
                for key, c in terms.items():
                    acc[key] = acc.get(key, 0) + w * c
    return out


def metric_outer(T: SymTensorField) -> SymTensorField:
    """Symmetrized outer product g (x) T, rank j+2.

    Component at K sums g^aa * T[K minus {a,a}] over the distinct unordered
    position pairs of K carrying equal axes, weighted by the pair count.
    The sums run on T scaled to integers (`_outer_scaled`).
    """
    scale, comps = _scaled(T)
    return _unscaled(T.rank + 2, T.signature, _outer_scaled(comps, T.signature), scale)


def _project_scaled(
    comps: Mapping, rank: int, sig: Signature
) -> tuple[int, dict[SymMultiIndex, dict[tuple, int]]]:
    """(d, d * P applied to the integer components R), by sorted index.

    On rank-r tensors tr . outer - outer . tr = m + 2r, so the traceless
    projector is P = sum_k a_k outer^k tr^k over k <= r/2, with a_0 = 1 and
    a_(k+1) = -a_k / ((k + 1)(m + 2r - 2k - 4)), and d is the lcm of the a_k
    denominators.  With c_k = d a_k this runs Horner-style on integers:
    c_0 R + outer(c_1 tr R + outer(c_2 tr^2 R + ...)).  The inner keys of R
    are opaque: monomials for a field, monomial id * N + n for N merged fields.
    """
    a, traces = [Fraction(1)], [comps]
    for k in range(rank // 2):
        a.append(-a[k] / ((k + 1) * (sig.m + 2 * rank - 2 * k - 4)))
        traces.append(_trace_scaled(traces[k], sig))
    d = lcm(*(a_k.denominator for a_k in a))
    out: dict[SymMultiIndex, dict[tuple, int]] = {}
    for a_k, tr_k in zip(reversed(a), reversed(traces)):
        out = _outer_scaled(out, sig)
        c_k = a_k.numerator * (d // a_k.denominator)
        for K, terms in tr_k.items():
            acc = out.setdefault(K, {})
            for key, c in terms.items():
                acc[key] = acc.get(key, 0) + c_k * c
    return d, {K: out[K] for K in sorted(out)}


def traceless_project(F: SymTensorField) -> SymTensorField:
    """Traceless part of F: P F, for the traceless projector P in closed form.

    F - P F is a sym(g (x) T), and P F has every trace zero.  P runs on F
    scaled to integers (`_project_scaled`, shared with the residuals and the
    solver's ansatz rows), and each nonzero output term is divided back once.
    On rank 0 and 1 fields P is the identity.
    """
    scale, comps = _scaled(F)
    den, out = _project_scaled(comps, F.rank, F.signature)
    return _unscaled(F.rank, F.signature, out, scale * den)


def contract_x(F: SymTensorField, metric: bool = True) -> SymTensorField:
    """Contract one index with x: sum_b F[..b] * g_bb x^b.

    With metric=False the weight g_bb is dropped (the plain coordinate x^b).
    Under the stored-in-coordinates convention the metric signs of the
    covariant contraction cancel, and that plain version is the one that
    raises the order of a solution by one; the g-weighted one does not in
    indefinite signature.
    """
    if F.rank < 1:
        raise ValueError("contract_x needs rank >= 1")
    sig = F.signature
    m = sig.m
    out: dict[SymMultiIndex, Poly] = {}
    for idx in enumerate_indices(F.rank - 1, m):
        total = Poly.zero(m)
        for b in range(1, m + 1):
            poly = F.components.get(tuple(sorted(idx + (b,))))
            if poly is not None:
                x_b = Poly.variable(b, m)
                total = total + poly * (x_b.scale(sig.g(b)) if metric else x_b)
        if total:
            out[idx] = total
    return SymTensorField(F.rank - 1, sig, out)


def _check_family(kind: str, j: int, s: int) -> None:
    """The (kind, j, s) check of a defining system, an ansatz and a basis."""
    if kind not in ("ordinary", "conformal"):
        raise ValueError(f"unknown kind {kind!r}")
    if j < 0 or s < 1:
        raise ValueError(f"invalid (j={j}, s={s})")


class Basis(Record):
    """Ordered list of fields solving one defining system."""

    kind: str  # "ordinary" | "conformal"
    j: int
    s: int
    signature: Signature
    elements: list[SymTensorField] | None = None  # None stands for a new empty list
    degree_bound: int = 0

    def __post_init__(self):
        if self.elements is None:
            self.elements = []
        _check_family(self.kind, self.j, self.s)

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "j": self.j,
            "s": self.s,
            "signature": [self.signature.p, self.signature.q],
            "degree_bound": self.degree_bound,
            "count": len(self.elements),
            "elements": [el.to_json() for el in self.elements],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Basis":
        """Read `to_json` output like `SymTensorField.from_json`; j, s, degree_bound
        and an optional count are ints, and count equals the number of elements.
        Each distinct (num, den) pair of the file is read to one Fraction."""
        seen: dict = {}
        basis = cls(
            kind=_json_key(data, "kind"),
            j=_json_int(_json_key(data, "j"), "j"),
            s=_json_int(_json_key(data, "s"), "s", 1),
            signature=_json_signature(_json_key(data, "signature")),
            elements=[
                SymTensorField.from_json(el, seen)
                for el in _json_array(_json_key(data, "elements"), "elements")
            ],
            degree_bound=_json_int(_json_key(data, "degree_bound"), "degree_bound"),
        )
        count = data.get("count", len(basis))
        if type(count) is not int or count != len(basis):
            raise ValueError("basis count does not match element list")
        return basis
