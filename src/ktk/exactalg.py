"""Exact rational scalars and sparse multivariate polynomials.

Coefficients are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator), monomials are dense exponent tuples of length m, and
polynomials are `Terms`, the sparse term maps that `operators.WeylOp` shares,
which never store a zero coefficient.  The canonical term order used
everywhere (iteration, JSON output) is graded lexicographic: first by total
degree, then by exponent tuple.

This bottom layer also holds the package's only exact linear algebra:
`echelon` (one fraction-free forward pass) and `reduce` (its rows in
reduced echelon form, still integers), with `clear_row` to bring rational
rows to integers.  Ranks elsewhere are read from `echelon`; every
nullspace, span solution and operator completion block from `reduce`.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping

Rational = Fraction

Monomial = tuple  # exponent tuple of length m


def grlex_key(exps: Monomial) -> tuple:
    return (sum(exps), exps)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact rational: {c!r}")


class Terms:
    """A sparse map `terms` from exponent keys to nonzero Fractions, in `dim`
    variables: the core that `Poly` and `operators.WeylOp` share.

    A key is one exponent tuple here; a subclass with another key shape
    overrides `_key`.  Sums, negation, scaling and equality need only like
    keys and one dimension, so they live here; products are the subclass's.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        clean: dict = {}
        if terms:
            for key, c in terms.items():
                key = self._key(key)
                c = _as_fraction(c)
                if key in clean:
                    c += clean[key]
                    if not c:
                        del clean[key]
                        continue
                if c:
                    clean[key] = c
        self.terms = clean

    def _key(self, exps) -> Monomial:
        """`exps` as a tuple of `dim` exponents >= 0, else ValueError."""
        exps = tuple(exps)
        if len(exps) != self.dim:
            raise ValueError(f"exponents {exps} do not have dimension {self.dim}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return exps

    @staticmethod
    def _unit(axis: int, dim: int) -> Monomial:
        """Exponents of x_axis: 1 at the axis, 0 elsewhere; axis in 1..dim, else ValueError."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range 1..{dim}")
        return tuple(int(i == axis - 1) for i in range(dim))

    @classmethod
    def _new(cls, dim: int, terms: dict):
        """An instance that takes `terms` as is: valid keys, nonzero Fractions."""
        out = cls.__new__(cls)
        out.dim = dim
        out.terms = terms
        return out

    @classmethod
    def _read_json(cls, data: list, dim: int, key_of, seen: dict | None = None):
        """Read a JSON term list in one strict pass: each term is a JSON
        object, `key_of(term)` parses its key, given at most once, and
        `_json_fraction` (passed `seen`) its "num" and "den"; zero terms are
        dropped.  Any fault is a ValueError."""
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        terms: dict = {}
        for t in _json_array(data, "term list"):
            if type(t) is not dict:
                raise ValueError(f"a term must be a JSON object, got {type(t).__name__}")
            key = key_of(t)
            if key in terms:
                raise ValueError(f"term {key} is given twice")
            terms[key] = _json_fraction(t.get("num"), t.get("den"), seen)
        return cls._new(dim, terms if all(terms.values()) else {k: c for k, c in terms.items() if c})

    @classmethod
    def zero(cls, dim: int):
        return cls(dim)

    def _check_dim(self, other: "Terms") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_dim(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            acc = terms.get(key, Fraction(0)) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return self._new(self.dim, terms)

    def __neg__(self):
        return self._new(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = _as_fraction(c)
        return self._new(self.dim, {k: v * c for k, v in self.terms.items()} if c else {})

    def __rmul__(self, other):
        return self.scale(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms


class Poly(Terms):
    """Sparse polynomial in x_1..x_m with rational coefficients.

    Example:
        >>> x1, x2 = Poly.variable(1, 2), Poly.variable(2, 2)
        >>> ((x1 + x2) * (x1 - x2)).terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
        True
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim: int, c) -> "Poly":
        return cls(dim, {(0,) * dim: _as_fraction(c)})

    @classmethod
    def variable(cls, axis: int, dim: int) -> "Poly":
        """x_axis, with axis in 1..dim."""
        return cls(dim, {cls._unit(axis, dim): Fraction(1)})

    @classmethod
    def monomial(cls, exps: Iterable[int], c=1) -> "Poly":
        exps = tuple(exps)
        return cls(len(exps), {exps: _as_fraction(c)})

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_dim(other)
        terms: dict[Monomial, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(a + b for a, b in zip(ea, eb))
                acc = terms.get(exps, Fraction(0)) + ca * cb
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
        return self._new(self.dim, terms)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, axis: int) -> "Poly":
        """Partial derivative with respect to x_axis (axis in 1..dim)."""
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range 1..{self.dim}")
        i = axis - 1
        terms: dict[Monomial, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                acc = terms.get(lowered, Fraction(0)) + c * e
                if acc:
                    terms[lowered] = acc
                else:
                    del terms[lowered]
        return self._new(self.dim, terms)

    # -- predicates / accessors --------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def eval(self, point: Iterable) -> Fraction:
        """Evaluate at a rational point of length dim."""
        pt = [_as_fraction(v) for v in point]
        if len(pt) != self.dim:
            raise ValueError("point has wrong dimension")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def sorted_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        for exps in sorted(self.terms, key=grlex_key):
            yield exps, self.terms[exps]

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"exps": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
            for exps, c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data: list[dict], dim: int, seen: dict | None = None) -> "Poly":
        """Read `to_json` output in one strict pass: each monomial is `dim` ints
        (not 1.0 or True) >= 0 given once, and zero terms are dropped; else ValueError.
        `seen` is passed on to `_json_fraction`."""
        return cls._read_json(data, dim, lambda t: _json_monomial(t.get("exps"), dim), seen)


def _json_array(value, name: str) -> list:
    """A JSON array, else ValueError: a string, an object or null is not read
    as an empty or a short one."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value


def _json_key(obj, key: str):
    """obj[key] for a JSON object obj that has the key, else ValueError."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object with {key!r}, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    return obj[key]


def _json_monomial(exps, dim: int) -> Monomial:
    """A JSON exponent array as a monomial: `dim` ints (not 1.0 or True) >= 0,
    else ValueError."""
    if type(exps) is not list or len(exps) != dim or any(type(e) is not int or e < 0 for e in exps):
        raise ValueError(f"monomial {exps!r} is not an array of {dim} nonnegative ints")
    return tuple(exps)


_NUM = re.compile(r"-?[0-9]+")
_DEN = re.compile(r"0*[1-9][0-9]*")


def _json_fraction(num, den, seen: dict | None = None) -> Fraction:
    """The rational num/den of a JSON term: strings of ASCII digits, num with
    an optional "-" and den nonzero; a missing one (None) or any other fault
    is a ValueError.

    `seen` maps the (num, den) pairs already read by one reader call to their
    Fraction, which is immutable and so is shared.  The type check comes
    before the lookup, so 1, 1.0 and True never share an entry."""
    if type(num) is not str or type(den) is not str:
        raise ValueError(f"num and den must be strings, got {num!r} and {den!r}")
    if seen is None:
        seen = {}
    value = seen.get((num, den))
    if value is None:
        if not (_NUM.fullmatch(num) and _DEN.fullmatch(den)):
            raise ValueError(f"{num!r}/{den!r} is not an integer over a positive integer")
        value = seen[num, den] = Fraction(int(num), int(den))
    return value


def monomials_upto(m: int, degree: int) -> list[Monomial]:
    """All exponent tuples of total degree <= degree, graded-lex order."""
    out = [
        tuple(axes.count(a) for a in range(m))
        for n in range(degree + 1)
        for axes in itertools.combinations_with_replacement(range(m), n)
    ]
    out.sort(key=grlex_key)
    return out


# ---------------------------------------------------------------------------
# exact elimination kernel
# ---------------------------------------------------------------------------


def clear_row(row: Mapping, keymap: Mapping | None = None) -> dict[int, int]:
    """Scale a sparse row of `int` and `Fraction` entries by the lcm of their
    denominators, dropping zeros (keys optionally remapped)."""
    denom = lcm(*(v.denominator for v in row.values()))
    return {
        keymap[k] if keymap else k: v.numerator * (denom // v.denominator)
        for k, v in row.items()
        if v
    }


def echelon(rows: Iterable[Mapping[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free forward elimination on sparse integer rows.

    Columns are taken in increasing order.  In each, the pivot is the row
    with the smallest absolute entry (ties by input order), and every
    surviving row gets the two-term Bareiss update, so all intermediate
    entries stay integral.  Returns the pivot rows as (pivot column, row)
    pairs in elimination order; their number is the rank, and no pivot row
    has an entry left of its pivot column.
    """
    active = [dict(r) for r in rows if r]
    pivots: list[tuple[int, dict[int, int]]] = []
    prev = 1
    for col in sorted({c for r in active for c in r}):
        best = None
        for i, row in enumerate(active):
            v = row.get(col)
            if v and (best is None or abs(v) < abs(active[best][col])):
                best = i
        if best is None:
            continue
        pivot_row = active.pop(best)
        pv = pivot_row[col]
        survivors = []
        for row in active:
            rv = row.get(col, 0)
            new: dict[int, int] = {}
            if rv:
                for c in row.keys() | pivot_row.keys():
                    val = pv * row.get(c, 0) - rv * pivot_row.get(c, 0)
                    if val:
                        q, rem = divmod(val, prev)
                        if rem:
                            raise ArithmeticError("inexact Bareiss division")
                        new[c] = q
            else:
                for c, v in row.items():
                    q, rem = divmod(pv * v, prev)
                    if rem:
                        raise ArithmeticError("inexact Bareiss division")
                    new[c] = q
            if new:
                survivors.append(new)
        active = survivors
        prev = pv
        pivots.append((col, pivot_row))
    return pivots


def reduce(rows: Iterable[Mapping[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Reduced echelon form of sparse integer rows, in integers: `echelon`'s
    rows, from the last up, each cleared at the later pivot columns by one
    integer combination and divided by its content, signed so that its pivot
    is positive.  Returns (pivot column, row) pairs in increasing column
    order.  The reduced echelon form of a row space is unique, so these rows
    are too."""
    pivots = echelon(rows)
    done: dict[int, dict[int, int]] = {}
    for col, row in reversed(pivots):
        hits = [c for c in row if c != col and c in done]
        scale = lcm(*(done[c][c] for c in hits))
        cleared = {c: scale * v for c, v in row.items()}
        for c in hits:
            factor = scale // done[c][c] * row[c]
            for k, w in done[c].items():
                cleared[k] = cleared.get(k, 0) - factor * w
        g = gcd(*cleared.values()) if row[col] > 0 else -gcd(*cleared.values())
        done[col] = {c: v // g for c, v in cleared.items() if v}
    return [(col, done[col]) for col, _ in pivots]
