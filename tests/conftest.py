"""Shared helpers: signatures, random field generators, the generative basis
oracle and the solution families it builds, and the dense oracles (the exact
inverse `_invert` and the traceless projector columns it serves)."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from ktk import (
    AnsatzSpec,
    Basis,
    DefiningSystem,
    Poly,
    Signature,
    SymTensorField,
    conformal_residual,
    conformal_vectors,
    count,
    enumerate_indices,
    killing_residual,
    killing_vectors,
    traceless_project,
    x_squared,
)
from ktk.constructors import _sym_vector_product
from ktk.equations import residual_terms
from ktk.exactalg import clear_row, monomials_upto, reduce
from ktk.solver import (
    _nullspace_sparse,
    _split_blocks,
    _unknown_items,
    fields_to_vectors,
    independent_subset,
    unknown_labels,
    vectors_to_fields,
)
from ktk.tensors import _project_scaled

EUCLID = {m: Signature(m, 0) for m in (1, 2, 3, 4)}

SIGS_BY_M = {
    1: [Signature(1, 0), Signature(0, 1)],
    2: [Signature(2, 0), Signature(1, 1)],
    3: [Signature(3, 0), Signature(2, 1)],
    4: [Signature(4, 0), Signature(3, 1), Signature(2, 2), Signature(1, 3)],
}

M4_SIGS = SIGS_BY_M[4]


def random_poly(rng: random.Random, dim: int, degree: int) -> Poly:
    """Sparse polynomial with small rational coefficients."""
    terms = {}
    n_terms = rng.randint(1, 4)
    for _ in range(n_terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(dim)] += 1
        num = rng.randint(-4, 4)
        den = rng.choice([1, 1, 2, 3])
        if num:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(num, den)
    p = Poly.zero(dim)
    for exps, c in terms.items():
        if c:
            p = p + Poly.monomial(exps, c)
    return p


def random_field(rng: random.Random, rank: int, sig: Signature, degree: int) -> SymTensorField:
    comps = {}
    for idx in enumerate_indices(rank, sig.m):
        if rng.random() < 0.8:
            comps[idx] = random_poly(rng, sig.m, degree)
    return SymTensorField(rank, sig, comps)


def canonical_basis(
    kind: str, j: int, s: int, sig: Signature, fields: list[SymTensorField], degree_bound: int
) -> Basis:
    """The reduced echelon basis of the span of fields at the degree bound."""
    labels = unknown_labels(j, sig.m, degree_bound)
    vecs = fields_to_vectors(fields, j, sig.m, degree_bound)
    rows = [
        {c: Fraction(v, row[p]) for c, v in row.items()}
        for p, row in reduce(clear_row(vec) for vec in vecs)
    ]
    return Basis(kind, j, s, sig, vectors_to_fields(rows, labels, j, sig), degree_bound)


def generative_family(kind: str, j: int, s: int, sig: Signature) -> list[SymTensorField]:
    """Order-1 products times multipliers: the paper's spanning set of the
    order-s family.

    Seeds are the rank-j products of (conformal) Killing vectors, projected
    traceless after each factor for the conformal kind; the empty product is
    the scalar 1.  For s >= 2 they are first reduced to the canonical basis
    of the order-1 family they span, which drops the many dependent products
    before they are multiplied.  Each seed is multiplied by every x^delta,
    and for the conformal kind every x^delta (x^2)^c, with |delta| + c <=
    s - 1: each affine factor (lemma 3) or x^2 (lemma 5) raises the order by
    one.  The monomial fields e_I x^delta (for the conformal kind their
    traceless parts) need no loop of their own: e_I is a product of
    translations, and the traceless projection commutes with scalar factors.
    """
    m = sig.m
    conformal = kind == "conformal"
    vectors = (conformal_vectors if conformal else killing_vectors)(sig).elements
    seeds = []
    for combo in itertools.combinations_with_replacement(vectors, j):
        F = SymTensorField(0, sig, {(): Poly.constant(m, 1)})
        for V in combo:
            F = _sym_vector_product(F, V)
            if conformal:
                F = traceless_project(F)
        seeds.append(F)
    if s > 1:
        degree = AnsatzSpec(kind, j, 1, sig).resolved_degree()
        seeds = canonical_basis(kind, j, 1, sig, seeds, degree).elements
    xsq = x_squared(sig)
    multipliers = [
        Poly.monomial(exps) * xsq**c
        for c in range(s if conformal else 1)
        for exps in monomials_upto(m, s - 1 - c)
    ]
    return [F.scale(phi) for phi in multipliers for F in seeds]


def generative_basis(kind: str, j: int, s: int, sig: Signature) -> Basis:
    """The canonical basis of `generative_family`'s span at the ansatz degree
    bound, which must reach the counting formula: the spanning oracle that
    the solver's bases are compared against."""
    degree_bound = AnsatzSpec(kind, j, s, sig).resolved_degree()
    basis = canonical_basis(kind, j, s, sig, generative_family(kind, j, s, sig), degree_bound)
    want = count(kind, sig.m, j, s)
    assert len(basis) == want, f"generative span of {kind} j={j} s={s} on {sig}: {len(basis)} != {want}"
    return basis


@lru_cache(maxsize=None)
def solution_family(kind: str, j: int, s: int, p: int, q: int):
    return generative_basis(kind, j, s, Signature(p, q))


def random_solution(rng: random.Random, kind: str, j: int, s: int, sig: Signature) -> SymTensorField:
    """Random rational combination of a complete solution family, never zero."""
    basis = solution_family(kind, j, s, sig.p, sig.q)
    out = SymTensorField(j, sig, {})
    for el in basis.elements:
        c = rng.randint(-3, 3)
        if c:
            out = out + el.scale(Fraction(c, rng.choice([1, 1, 2])))
    if out.is_zero():
        out = basis.elements[rng.randrange(len(basis.elements))]
    return out


def residual_of(kind: str, F: SymTensorField, s: int) -> SymTensorField:
    if kind == "ordinary":
        return killing_residual(F, s)
    return conformal_residual(F, s)


def back_substitute(pivots: list, values: dict) -> dict:
    """The solution of `echelon`'s pivot rows with the given non-pivot values,
    in `Fraction` arithmetic: the reference for the read-offs from `reduce`.

    Columns absent from values are zero.  Returns those values plus every
    nonzero pivot-column value, found from the last pivot row back to the
    first, so that each pivot row vanishes on the result.
    """
    out = {c: Fraction(v) for c, v in values.items()}
    for col, row in reversed(pivots):
        acc = Fraction(0)
        for c, v in row.items():
            if c != col and c in out:
                acc += v * out[c]
        if acc:
            out[col] = -acc / row[col]
    return out


def all_blocks_nullspace(labels: list, rows: dict, key_of) -> list[dict]:
    """`solver._solve_blocks` without its orbit map: every block's nullspace
    from its own elimination, in global coordinates, by leading unknown."""
    blocks = _split_blocks([key_of(u) for u in range(len(labels))], rows.values())
    out = [
        {cols[c]: v for c, v in vec.items()}
        for cols, block_rows in blocks.values()
        for vec in _nullspace_sparse(block_rows, len(cols))
    ]
    out.sort(key=min)
    return out


def _invert(rows: list[dict[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Exact inverse of the square matrix whose row k has the entries rows[k]
    (column: value, zeros left out), its rows in the same sparse form:
    [M | -I] reduces to rows R[r] = R[r][r] (e_r | -M^-1[r])."""
    n = len(rows)
    reduced = reduce(clear_row({**row, n + k: -1}) for k, row in enumerate(rows))
    if [col for col, _ in reduced] != list(range(n)):
        raise ValueError("matrix is singular")
    return [
        {c - n: Fraction(-v, row[r]) for c, v in row.items() if c >= n}
        for r, row in reduced
    ]


@lru_cache(maxsize=None)
def projection_columns(rank: int, sig: Signature) -> dict:
    """Sparse columns of the traceless projector on rank-`rank` coefficient tensors,
    built densely: the reference for the closed-form projector and the ansatz rows.

    P = 1 - outer . (tr . outer)^-1 . tr, where outer is `metric_outer` and tr
    is `trace` on coefficient tensors; the column of index I lists the
    nonzero (K, P[K][I]).
    """
    m = sig.m
    idx_j = enumerate_indices(rank, m)
    idx_t = enumerate_indices(rank - 2, m)
    pos_j = {idx: n for n, idx in enumerate(idx_j)}
    nj, nt = len(idx_j), len(idx_t)
    # outer[k][t] = coefficient of unit t-tensor in metric_outer, at index k;
    # tr[t][k] = trace matrix on rank-j coefficient tensors
    outer = [[Fraction(0)] * nt for _ in idx_j]
    tr = [[Fraction(0)] * nj for _ in idx_t]
    for tn, tidx in enumerate(idx_t):
        for a in range(1, m + 1):
            kidx = tuple(sorted(tidx + (a, a)))
            outer[pos_j[kidx]][tn] += comb(kidx.count(a), 2) * sig.g(a)
            tr[tn][pos_j[kidx]] += sig.g(a)
    composed = [
        [sum(tr[r][k] * outer[k][c] for k in range(nj)) for c in range(nt)]
        for r in range(nt)
    ]
    inv = _invert([{c: v for c, v in enumerate(row) if v} for row in composed])
    invtr = [
        [sum(v * tr[t][k] for t, v in inv[r].items()) for k in range(nj)]
        for r in range(nt)
    ]
    data = {}
    for i, idx in enumerate(idx_j):
        column = []
        for k, kidx in enumerate(idx_j):
            v = (k == i) - sum(outer[k][r] * invtr[r][i] for r in range(nt))
            if v:
                column.append((kidx, v))
        data[idx] = column
    return data


def verify_basis_per_element(basis) -> list[str]:
    """The problem list of `verify_basis`, found one element at a time: the
    reference for the one-pass version.  Each element's residual comes from
    `DefiningSystem.residual`, and independence from distinct leads or, when
    they collide, one `independent_subset` elimination."""
    problems = []
    system = DefiningSystem(basis.kind, basis.j, basis.s, basis.signature)
    for n, el in enumerate(basis.elements):
        if el.rank != basis.j or el.signature != basis.signature:
            problems.append(f"element {n}: rank/signature mismatch")
            continue
        try:
            res = system.residual(el)
        except ValueError as exc:
            problems.append(f"element {n}: {exc}")
            continue
        if not res.is_zero():
            bad = min(res.components)
            mono, value = next(res.components[bad].sorted_terms())
            problems.append(
                f"element {n}: nonzero residual at index {bad}, "
                f"monomial {mono}, value {value}"
            )
    leads = {
        min((u for u, _ in _unknown_items(el)), default=None) for el in basis.elements
    } - {None}
    if len(leads) != len(basis.elements):
        vecs = [dict(_unknown_items(el)) for el in basis.elements]
        independent = independent_subset(vecs)
        if len(independent) != len(vecs):
            first = min(set(range(len(vecs))).difference(independent))
            problems.append(
                f"elements are linearly dependent: element {first} "
                "lies in the span of the elements before it"
            )
    return problems


def reference_residual_rows(spec, labels_pos: dict) -> dict:
    """Integer rows of the order-s residual, keyed (residual index, monomial),
    built term by term from `residual_terms`: the reference for the ordinary
    ansatz rows.  Rows come in the order the unknowns first meet them."""
    m = spec.signature.m
    rows: dict[tuple, dict[int, int]] = {}
    for (I, mono), u in labels_pos.items():
        for K, beta, factor in residual_terms(I, mono, spec.s, m):
            row = rows.setdefault((K, beta), {})
            row[u] = row.get(u, 0) + factor
    return rows


def reference_conformal_rows(spec, max_degree: int, labels_pos: dict) -> dict:
    """Traceless-residual rows plus trace-side-constraint rows, all integer:
    the reference for the conformal ansatz rows.

    The residual rows of one monomial beta form a rank-(j+s) tensor whose
    entries are rows keyed by unknown; `_project_scaled` applies d times the
    traceless projector to it, and each projected row is divided by the gcd
    of d and its entries.  Rows come out by beta, then by index, and the
    trace rows, by rank-(j-2) index and then monomial, after them.
    """
    sig = spec.signature
    m = sig.m
    rows = reference_residual_rows(spec, labels_pos)
    if spec.j + spec.s >= 2:
        by_beta: dict[tuple, dict] = {}
        for (K, beta), row in rows.items():
            by_beta.setdefault(beta, {})[K] = row
        rows = {}
        for beta, krows in by_beta.items():
            d, projected = _project_scaled(krows, spec.j + spec.s, sig)
            for K, row in projected.items():
                g = gcd(d, *row.values())
                rows[(K, beta)] = {u: c // g for u, c in row.items() if c}
    if spec.j >= 2:
        for T0 in enumerate_indices(spec.j - 2, m):
            for mono in monomials_upto(m, max_degree):
                row: dict[int, int] = {}
                for a in range(1, m + 1):
                    u = labels_pos[(tuple(sorted(T0 + (a, a))), mono)]
                    row[u] = row.get(u, 0) + sig.g(a)
                rows[("trace", T0, mono)] = {u: v for u, v in row.items() if v}
    return rows
