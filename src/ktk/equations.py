"""Defining residuals and prolonged algebraic systems for Killing-type fields.

A rank-j field F is a Killing tensor of order s when the symmetrized s-fold
derivative tensor vanishes; the conformal variant additionally requires F to
be traceless and only asks for the traceless part of that residual to vanish.
Differentiating the defining system k more times yields, at each point, a
linear algebraic system on the order-(k+s) derivative components; its shape
is what the counting helpers below report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .exactalg import _json_fraction
from .tensors import (
    Signature,
    SymMultiIndex,
    SymTensorField,
    _project_scaled,
    _scaled,
    _trace_scaled,
    _unscaled,
    enumerate_indices,
)


@functools.cache
def stencil(j: int, s: int, m: int) -> dict[SymMultiIndex, tuple]:
    """The order-s residual stencil: rank-j index I -> ((D, K, weight), ...).

    D runs over the size-s derivative multi-indices in lexicographic order,
    K = sort(I + D) is the residual index, and weight counts the position
    sets of K that carry D: residual[K] = sum of weight * d^D F[I].
    """
    out = {}
    for I in enumerate_indices(j, m):
        entries = []
        for D in enumerate_indices(s, m):
            K = tuple(sorted(I + D))
            entries.append((D, K, prod(comb(K.count(a), D.count(a)) for a in set(D))))
        out[I] = tuple(entries)
    return out


def residual_terms(I: SymMultiIndex, mono: tuple, s: int, m: int):
    """Terms (K, beta, factor) of the order-s residual of the unit field x^mono at I."""
    for D, K, weight in stencil(len(I), s, m)[I]:
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


def _killing_scaled(comps: dict, s: int, m: int) -> dict[SymMultiIndex, dict[tuple, int]]:
    """The order-s residual of integer components, as integer terms by index.

    `derivs` maps each distinct monomial to its (position of D in the stencil,
    d^D mono, factor) list, once per call: with I = () the stencil's K is D.
    """
    if s < 1:
        raise ValueError(f"order must be >= 1, got {s}")
    pos = {D: n for n, D in enumerate(enumerate_indices(s, m))}
    derivs: dict[tuple, list] = {}
    out: dict[SymMultiIndex, dict[tuple, int]] = {}
    for idx, terms in comps.items():
        entries = stencil(len(idx), s, m)[idx]
        targets = [(out.setdefault(K, {}), weight) for _, K, weight in entries]
        for mono, c in terms.items():
            ds = derivs.get(mono)
            if ds is None:
                ds = derivs[mono] = [(pos[D], b, f) for D, b, f in residual_terms((), mono, s, m)]
            for n, beta, factor in ds:
                acc, weight = targets[n]
                acc[beta] = acc.get(beta, 0) + c * factor * weight
    return out


def killing_residual(F: SymTensorField, s: int) -> SymTensorField:
    """Symmetrized s-fold derivative of F, a rank j+s field.

    The component at K sums, over the stencil entries (D, K, weight), the
    weight times the D-derivative of F at the index that D extends to K.
    The sums run on F scaled to integers by the lcm of its denominators.
    The result is zero exactly when F is a rank-j, order-s Killing tensor.
    """
    scale, comps = _scaled(F)
    return _unscaled(F.rank + s, F.signature, _killing_scaled(comps, s, F.dim), scale)


def conformal_residual(F: SymTensorField, s: int) -> SymTensorField:
    """Traceless part of the order-s residual; requires F itself traceless.

    The trace test, the residual and the projection all run on F scaled to
    integers; only the nonzero terms of the result become Fractions.
    """
    sig = F.signature
    scale, comps = _scaled(F)
    if F.rank >= 2 and _trace_scaled(comps, sig):
        raise ValueError("candidate field is not traceless")
    res = _killing_scaled(comps, s, sig.m)
    if F.rank + s >= 2:
        den, res = _project_scaled(res, F.rank + s, sig)
        scale *= den
    return _unscaled(F.rank + s, sig, res, scale)


def count_eq_unknowns(j: int, k: int, s: int, m: int) -> tuple[int, int]:
    """(N_e, N_u) of the k-fold prolonged order-s system in dimension m."""
    if min(j, k, m - 1) < 0 or s < 1:
        raise ValueError(f"invalid (j={j}, k={k}, s={s}, m={m})")
    n_e = comb(j + s + m - 1, m - 1) * comb(k + m - 1, m - 1)
    n_u = comb(j + m - 1, m - 1) * comb(k + s + m - 1, m - 1)
    return n_e, n_u


@dataclass
class ProlongedSystem:
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
        system = prolong(j, k, s, sig)
        if data["rows"] != system.n_rows or data["cols"] != system.n_cols:
            raise ValueError("matrix shape does not match (j, k, s, signature)")
        entries = {}
        for r, c, num, den in data["entries"]:
            v = _json_fraction({"num": num, "den": den})
            if v.denominator != 1:
                raise ValueError(f"entry ({r}, {c}) = {v} is not an integer")
            if r not in range(system.n_rows) or c not in range(system.n_cols):
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
    for I, terms in stencil(j, s, m).items():
        for D, K, weight in terms:
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


@dataclass(frozen=True)
class DefiningSystem:
    """Which residual a candidate field must annihilate."""

    kind: str  # "ordinary" | "conformal"
    j: int
    s: int
    signature: Signature

    def __post_init__(self):
        if self.kind not in ("ordinary", "conformal"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.s < 1 or self.j < 0:
            raise ValueError(f"invalid (j={self.j}, s={self.s})")

    def residual(self, F: SymTensorField) -> SymTensorField:
        if F.rank != self.j or F.signature != self.signature:
            raise ValueError("field does not match the defining system")
        if self.kind == "ordinary":
            return killing_residual(F, self.s)
        return conformal_residual(F, self.s)
