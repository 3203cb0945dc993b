"""Defining residuals and prolonged algebraic systems for Killing-type fields.

A rank-j field F is a Killing tensor of order s when the symmetrized s-fold
derivative tensor vanishes; the conformal variant additionally requires F to
be traceless and only asks for the traceless part of that residual to vanish.
Differentiating the defining system k more times yields, at each point, a
linear algebraic system on the order-(k+s) derivative components; its shape
is what the counting helpers below report.

The residuals run on fields scaled to integers, with int inner keys:
monomial id * N + n for field n of N merged ones (`_killing_scaled`).  This
one pass serves every consumer, differing only in N: one field is the case
N = 1, `solver.verify_basis` checks a whole basis with N its number of
elements, and the solver's ansatz rows are the residual of the generic
field, one merged field per unknown.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, prod

from .exactalg import _json_array, _json_fraction, _json_key
from .tensors import (
    Record,
    Signature,
    SymMultiIndex,
    SymTensorField,
    _check_family,
    _json_int,
    _project_scaled,
    _scaled,
    _trace_scaled,
    _unscaled,
    enumerate_indices,
)


@functools.cache
def stencil(I: SymMultiIndex, s: int, m: int) -> tuple:
    """The order-s residual stencil of the index I: ((D, K, weight), ...).

    D runs over the size-s derivative multi-indices in lexicographic order,
    K = sort(I + D) is the residual index, and weight counts the position
    sets of K that carry D: residual[K] = sum of weight * d^D F[I].
    """
    entries = []
    for D in enumerate_indices(s, m):
        K = tuple(sorted(I + D))
        entries.append((D, K, prod(comb(K.count(a), D.count(a)) for a in set(D))))
    return tuple(entries)


def residual_terms(I: SymMultiIndex, mono: tuple, s: int, m: int):
    """Terms (K, beta, factor) of the order-s residual of the unit field x^mono at I."""
    for D, K, weight in stencil(I, s, m):
        exps = list(mono)
        factor = weight
        for a in D:
            e = exps[a - 1]
            if not e:
                break
            factor *= e
            exps[a - 1] = e - 1
        else:
            yield K, tuple(exps), factor


def _killing_scaled(
    comps: dict, s: int, m: int, ids: dict, n_fields: int
) -> dict[SymMultiIndex, dict[int, int]]:
    """The order-s residual of integer components, as integer terms by index.

    `comps` holds `n_fields` fields in one map: the term of field n at the
    monomial numbered i in `ids` sits under the int key i * n_fields + n.
    The residual keys its terms the same way and numbers in `ids` each new
    monomial it meets.  A derivative d^D x^mono = factor * x^beta moves a
    term by the key offset (id(beta) - id(mono)) * n_fields, worked out once
    per distinct monomial: with I = () the stencil's K is D.
    """
    if s < 1:
        raise ValueError(f"order must be >= 1, got {s}")
    pos = {D: n for n, D in enumerate(enumerate_indices(s, m))}
    monos = list(ids)
    derivs: dict[int, list] = {}
    out: dict[SymMultiIndex, dict[int, int]] = {}
    for idx, terms in comps.items():
        entries = stencil(idx, s, m)
        targets = [(out.setdefault(K, {}), weight) for _, K, weight in entries]
        for key, c in terms.items():
            i = key // n_fields
            ds = derivs.get(i)
            if ds is None:
                ds = derivs[i] = [
                    (pos[D], (ids.setdefault(beta, len(ids)) - i) * n_fields, factor)
                    for D, beta, factor in residual_terms((), monos[i], s, m)
                ]
            for n, offset, factor in ds:
                acc, weight = targets[n]
                acc[key + offset] = acc.get(key + offset, 0) + c * factor * weight
    return out


def _residual_scaled(
    comps: dict, rank: int, s: int, sig: Signature, ids: dict, n_fields: int, conformal: bool
) -> tuple[int, dict[SymMultiIndex, dict[int, int]]]:
    """(d, d times the order-s residual) of rank-`rank` integer fields merged
    as in `_killing_scaled`; for the conformal kind the residual is its
    traceless part and d the projector's denominator, else d = 1."""
    res = _killing_scaled(comps, s, sig.m, ids, n_fields)
    if conformal and rank + s >= 2:
        return _project_scaled(res, rank + s, sig)
    return 1, res


def _field_residual(F: SymTensorField, s: int, conformal: bool) -> SymTensorField:
    """The residual of one field: `_residual_scaled` with n_fields = 1."""
    sig = F.signature
    scale, comps = _scaled(F)
    if conformal and _trace_scaled(comps, sig):
        raise ValueError("candidate field is not traceless")
    ids: dict[tuple, int] = {}
    keyed = {
        idx: {ids.setdefault(mono, len(ids)): c for mono, c in terms.items()}
        for idx, terms in comps.items()
    }
    d, res = _residual_scaled(keyed, F.rank, s, sig, ids, 1, conformal)
    monos = list(ids)
    by_mono = {K: {monos[i]: c for i, c in terms.items()} for K, terms in res.items()}
    return _unscaled(F.rank + s, sig, by_mono, scale * d)


def killing_residual(F: SymTensorField, s: int) -> SymTensorField:
    """Symmetrized s-fold derivative of F, a rank j+s field.

    The component at K sums, over the stencil entries (D, K, weight), the
    weight times the D-derivative of F at the index that D extends to K.
    The sums run on F scaled to integers by the lcm of its denominators.
    The result is zero exactly when F is a rank-j, order-s Killing tensor.
    """
    return _field_residual(F, s, False)


def conformal_residual(F: SymTensorField, s: int) -> SymTensorField:
    """Traceless part of the order-s residual; requires F itself traceless.

    The trace test, the residual and the projection all run on F scaled to
    integers; only the nonzero terms of the result become Fractions.
    """
    return _field_residual(F, s, True)


def count_eq_unknowns(j: int, k: int, s: int, m: int) -> tuple[int, int]:
    """(N_e, N_u) of the k-fold prolonged order-s system in dimension m."""
    if min(j, k, m - 1) < 0 or s < 1:
        raise ValueError(f"invalid (j={j}, k={k}, s={s}, m={m})")
    n_e = comb(j + s + m - 1, m - 1) * comb(k + m - 1, m - 1)
    n_u = comb(j + m - 1, m - 1) * comb(k + s + m - 1, m - 1)
    return n_e, n_u


class ProlongedSystem(Record):
    """Sparse exact matrix of the k-fold differentiated defining system.

    Rows are labeled (K, B): equation index K of rank j+s and extra
    derivative multi-index B of rank k.  Columns are labeled (I, C): base
    index I of rank j and derivative multi-index C of rank k+s, ordered
    graded-lex on (derivative, base).  Entries are integer position counts.
    """

    j: int
    k: int
    s: int
    signature: Signature
    row_labels: list[tuple[SymMultiIndex, SymMultiIndex]]
    col_labels: list[tuple[SymMultiIndex, SymMultiIndex]]
    entries: dict[tuple[int, int], int]

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def dense(self) -> list[list[Fraction]]:
        mat = [[Fraction(0)] * self.n_cols for _ in range(self.n_rows)]
        for (r, c), v in self.entries.items():
            mat[r][c] = Fraction(v)
        return mat

    def to_json(self) -> dict:
        triplets = [
            [r, c, str(v), "1"]
            for (r, c), v in sorted(self.entries.items())
        ]
        return {"rows": self.n_rows, "cols": self.n_cols, "entries": triplets}

    @classmethod
    def from_json(cls, data: dict, j: int, k: int, s: int, sig: Signature) -> "ProlongedSystem":
        """Read `to_json` output for (j, k, s, sig) in one strict pass: int
        rows and cols equal to the shape of `prolong`, and each entry an
        [int row, int col, num, den] array inside the matrix, given once,
        whose value is an integer; else ValueError."""
        system = prolong(j, k, s, sig)
        rows = _json_int(_json_key(data, "rows"), "rows")
        cols = _json_int(_json_key(data, "cols"), "cols")
        if (rows, cols) != (system.n_rows, system.n_cols):
            raise ValueError("matrix shape does not match (j, k, s, signature)")
        entries = {}
        for n, entry in enumerate(_json_array(_json_key(data, "entries"), "entries")):
            if type(entry) is not list or len(entry) != 4:
                raise ValueError(f"entry {n} is not a [row, col, num, den] array")
            r, c, num, den = entry
            v = _json_fraction(num, den)
            if v.denominator != 1:
                raise ValueError(f"entry ({r}, {c}) = {v} is not an integer")
            if not (type(r) is type(c) is int and r in range(rows) and c in range(cols)):
                raise ValueError(f"entry ({r!r}, {c!r}) lies outside the matrix")
            if (r, c) in entries:
                raise ValueError(f"entry ({r}, {c}) is given twice")
            entries[(r, c)] = v.numerator
        system.entries = entries
        return system


def prolong(j: int, k: int, s: int, signature: Signature) -> ProlongedSystem:
    """Assemble the prolonged linear system for (j, k, s) over the signature.

    Row (K, B) states that the residual component K, further differentiated
    by B, vanishes: each stencil entry (D, K, weight) of a base index I puts
    its weight on the derivative component (I, sort(D + B)).
    """
    if j < 0 or k < 0:
        raise ValueError(f"invalid (j={j}, k={k})")
    if s < 1:
        raise ValueError(f"order must be >= 1, got {s}")
    m = signature.m
    eq_indices = enumerate_indices(j + s, m)
    extra_indices = enumerate_indices(k, m)
    row_labels = [
        (K, B)
        for B in extra_indices
        for K in eq_indices
    ]
    col_labels = [
        (I, C)
        for C in enumerate_indices(k + s, m)
        for I in enumerate_indices(j, m)
    ]
    row_pos = {label: r for r, label in enumerate(row_labels)}
    col_pos = {label: c for c, label in enumerate(col_labels)}
    entries: dict[tuple[int, int], int] = {}
    for I in enumerate_indices(j, m):
        for D, K, weight in stencil(I, s, m):
            for B in extra_indices:
                entries[(row_pos[(K, B)], col_pos[(I, tuple(sorted(D + B)))])] = weight
    system = ProlongedSystem(j, k, s, signature, row_labels, col_labels, entries)
    n_e, n_u = count_eq_unknowns(j, k, s, m)
    if (system.n_rows, system.n_cols) != (n_e, n_u):
        raise RuntimeError(
            f"prolonged system is {system.n_rows} x {system.n_cols}, "
            f"the count gives {n_e} x {n_u}"
        )
    return system


class DefiningSystem(Record, frozen=True):
    """Which residual a candidate field must annihilate."""

    kind: str  # "ordinary" | "conformal"
    j: int
    s: int
    signature: Signature

    def __post_init__(self):
        _check_family(self.kind, self.j, self.s)

    def residual(self, F: SymTensorField) -> SymTensorField:
        if F.rank != self.j or F.signature != self.signature:
            raise ValueError("field does not match the defining system")
        if self.kind == "ordinary":
            return killing_residual(F, self.s)
        return conformal_residual(F, self.s)
