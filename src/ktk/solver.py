"""Exact nullspace solver for degree-bounded Killing-type ansatz systems.

A candidate field is expanded as unknown rational coefficients on
(component index, monomial) pairs; the defining residual is linear in those
unknowns, so a complete basis is the nullspace of an integer matrix.  Its
rows come from the one residual pass that `verify_basis` and the field
residuals run (`equations._residual_scaled`), with one merged field per
unknown.  The matrix splits into small independent blocks: the ordinary
residual conserves the per-axis count of index entries plus exponents, the
traceless variant still conserves its total and parity, and `system_rank`
splits the prolonged systems by the same count.  `_solve_blocks` eliminates
one block per orbit of the axis permutations that keep the metric, and maps
its nullspace onto each mirror block whose columns and rows, as a set, the
permutation hits exactly; a block that fails that check is eliminated
itself.  Every rank, nullspace and span test here is read from the exact
kernel in `ktk.exactalg`: one fraction-free (integer Bareiss) forward pass,
reduced in integers.
Every emitted basis is in reduced echelon form over a graded-lex unknown
order, so output is deterministic down to the byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .equations import ProlongedSystem, _residual_scaled, prolong
from .exactalg import Poly, clear_row, echelon, grlex_key, monomials_upto, reduce
from .tensors import (
    Basis,
    Record,
    Signature,
    SymMultiIndex,
    SymTensorField,
    _check_family,
    _trace_scaled,
    enumerate_indices,
    index_content,
)

# ---------------------------------------------------------------------------
# nullspaces, ranks and spans, all read from the exactalg kernel
# ---------------------------------------------------------------------------


def _nullspace_sparse(rows: list[dict[int, int]], n_cols: int) -> list[dict[int, Fraction]]:
    """Canonical nullspace basis (reduced echelon rows over column order).

    Elimination runs on reversed column labels, so every reduced row R ends
    at its pivot p.  The null vector with a 1 at free column f and 0 at the
    other free columns is -R[f]/R[p] at each pivot p; it has no entry left
    of f, so it is the reduced echelon row led by f.
    """
    last = n_cols - 1
    reduced = reduce([{last - c: v for c, v in row.items()} for row in rows])
    vecs = {f: {f: Fraction(1)} for f in range(n_cols)}
    for p, row in reversed(reduced):
        del vecs[last - p]
        for c, v in row.items():
            if c != p:
                vecs[last - c][last - p] = Fraction(-v, row[p])
    return list(vecs.values())


def nullspace(matrix: list[list]) -> list[list[Fraction]]:
    """Reduced basis of the right nullspace of a dense exact matrix."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    rows = []
    for row in matrix:
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        rows.append(clear_row(dict(enumerate(row))))
    sparse = _nullspace_sparse(rows, n_cols)
    return [[vec.get(c, Fraction(0)) for c in range(n_cols)] for vec in sparse]


def matrix_rank(matrix: list[list]) -> int:
    """Exact rank of a dense rational matrix."""
    return len(echelon(clear_row(dict(enumerate(row))) for row in matrix))


# ---------------------------------------------------------------------------
# generic span utilities over sparse vectors with orderable labels
# ---------------------------------------------------------------------------


def _transposed_rows(vectors: list[dict]) -> list[dict[int, int]]:
    """Integer rows of the matrix whose column n is vectors[n], in label order."""
    by_label: dict = {}
    for n, vec in enumerate(vectors):
        for lab, v in vec.items():
            by_label.setdefault(lab, {})[n] = v
    return [clear_row(by_label[lab]) for lab in sorted(by_label)]


def span_dim(vectors: list[dict]) -> int:
    """Dimension of the rational span of sparse labeled vectors: the rank of
    the transposed system, so the size of a maximal independent subset."""
    return len(independent_subset(vectors))


def same_span(avecs: list[dict], bvecs: list[dict]) -> bool:
    ra = span_dim(avecs)
    rb = span_dim(bvecs)
    return ra == rb == span_dim(avecs + bvecs)


def independent_subset(vectors: list[dict]) -> list[int]:
    """Indices of a maximal independent subset, greedy in input order.

    Column n of the transposed system is a pivot exactly when vectors[n]
    is independent of vectors[:n].
    """
    return [col for col, _ in echelon(_transposed_rows(vectors))]


def in_rational_span(vectors: list[dict], target: dict) -> list[Fraction] | None:
    """Exact coordinates of target in span(vectors), or None if outside."""
    # Eliminate the transposed system with target as one more column.
    rhs_col = len(vectors)
    reduced = reduce(_transposed_rows([*vectors, target]))
    # Inconsistent iff some pivot lands on the rhs column.
    if any(col == rhs_col for col, _ in reduced):
        return None
    # The null vector (coeffs, -1) that is zero at the free columns.
    known = {p: Fraction(row.get(rhs_col, 0), row[p]) for p, row in reduced}
    result = [known.get(c, Fraction(0)) for c in range(rhs_col)]
    # Verify the combination reproduces target.
    recon: dict = {}
    for n, vec in enumerate(vectors):
        if result[n]:
            for k, v in vec.items():
                recon[k] = recon.get(k, Fraction(0)) + result[n] * Fraction(v)
    for k in set(recon) | set(target):
        if recon.get(k, Fraction(0)) != Fraction(target.get(k, 0)):
            return None
    return result


# ---------------------------------------------------------------------------
# ansatz assembly
# ---------------------------------------------------------------------------


def unknown_labels(j: int, m: int, max_degree: int) -> list[tuple[SymMultiIndex, tuple]]:
    """Ansatz unknowns (index, monomial), graded-lex on monomial then index."""
    return [
        (I, mono)
        for mono in monomials_upto(m, max_degree)
        for I in enumerate_indices(j, m)
    ]


def field_vector(F: SymTensorField, labels_pos: dict) -> dict:
    """Coordinates of a field in the ansatz unknown basis."""
    vec = {}
    for idx, poly in F.components.items():
        for mono, c in poly.terms.items():
            key = (idx, mono)
            if key not in labels_pos:
                raise ValueError(f"component {key} outside the ansatz degree bound")
            vec[labels_pos[key]] = c
    return vec


def vectors_to_fields(
    vectors: list[dict], labels: list, j: int, signature: Signature
) -> list[SymTensorField]:
    """The fields whose ansatz coordinates (over labels) are the given vectors."""
    fields = []
    for vec in vectors:
        comps: dict[SymMultiIndex, dict] = {}
        for u, c in vec.items():
            I, mono = labels[u]
            comps.setdefault(I, {})[mono] = c
        polys = {I: Poly(signature.m, t) for I, t in comps.items()}
        fields.append(SymTensorField(j, signature, polys))
    return fields


def fields_to_vectors(fields: list[SymTensorField], j: int, m: int, max_degree: int) -> list[dict]:
    labels = unknown_labels(j, m, max_degree)
    pos = {lab: i for i, lab in enumerate(labels)}
    return [field_vector(F, pos) for F in fields]


class AnsatzSpec(Record):
    """Degree-bounded polynomial ansatz for one defining system."""

    kind: str
    j: int
    s: int
    signature: Signature
    max_degree: int | None = None

    def __post_init__(self):
        _check_family(self.kind, self.j, self.s)

    def resolved_degree(self) -> int:
        if self.max_degree is not None:
            if self.max_degree < 0:
                raise ValueError("max_degree must be >= 0")
            return self.max_degree
        if self.kind == "ordinary":
            return self.j + self.s - 1
        if self.signature.m <= 2:
            raise ValueError(
                "conformal fields in dimension <= 2 form an infinite family; "
                "an explicit max_degree is required"
            )
        return 2 * (self.j + self.s - 1)


def _ansatz_rows(spec: AnsatzSpec, labels: list) -> dict[tuple, dict[int, int]]:
    """Integer rows of the defining system on the ansatz unknowns.

    The rows are the residual of the generic field, whose coefficient at
    label u is the unknown u.  That field goes through `verify_basis`'s
    merged pass as one field per unknown, comps[I][id(mono) * N + u] = 1
    for N unknowns, so row (K, beta) lists each unknown's coefficient in d
    times residual component K at x^beta (d = 1 for the ordinary kind),
    divided by the gcd of d and its entries.  Rows come by beta in
    graded-lex order, then by K.  The conformal kind adds the rows
    ("trace", T, mono) of the trace side constraint after them, by T and
    then mono.
    """
    N = len(labels)
    ids: dict[tuple, int] = {}
    comps: dict[SymMultiIndex, dict[int, int]] = {}
    for u, (I, mono) in enumerate(labels):
        comps.setdefault(I, {})[ids.setdefault(mono, len(ids)) * N + u] = 1
    monos = list(ids)  # graded-lex, and every beta is among them

    def by_mono(items):
        """The terms of each index K regrouped as rows keyed (i, K), i the monomial id."""
        grouped: dict[tuple, dict[int, int]] = {}
        for K, terms in items:
            for key, c in terms.items():
                i, u = divmod(key, N)
                grouped.setdefault((i, K), {})[u] = c
        return grouped

    conformal = spec.kind == "conformal"
    d, res = _residual_scaled(comps, spec.j, spec.s, spec.signature, ids, N, conformal)
    grouped = by_mono(res.items())
    rows = {}
    for i, K in sorted(grouped):
        row = grouped[(i, K)]
        g = gcd(d, *row.values())
        rows[(K, monos[i])] = {u: c // g for u, c in row.items() if c}
    if conformal:
        traces = by_mono(_trace_scaled(comps, spec.signature).items())
        for i, T in sorted(traces, key=lambda iT: (iT[1], iT[0])):
            rows[("trace", T, monos[i])] = traces[(i, T)]
    return rows


def _content_key(I: SymMultiIndex, exps: tuple, m: int, kind: str = "ordinary") -> tuple:
    """The block of an unknown (I, exps): how often each axis appears in the
    index I plus the exponents exps, which the residual and its derivatives
    conserve.  The traceless residual conserves only its total and parity."""
    content = tuple(a + e for a, e in zip(index_content(I, m), exps))
    if kind == "ordinary":
        return content
    return (sum(content), tuple(c % 2 for c in content))


def _split_blocks(col_keys: list, rows) -> dict:
    """Columns grouped by key, each block as (its columns, its rows), where a
    row's columns are renumbered by place in the block and its zeros dropped.
    A row with columns in two blocks raises ValueError."""
    blocks: dict = {}
    place = []
    for u, key in enumerate(col_keys):
        cols = blocks.setdefault(key, ([], []))[0]
        place.append(len(cols))
        cols.append(u)
    for row in rows:
        if row:
            key = col_keys[next(iter(row))]
            if any(col_keys[u] != key for u in row):
                raise ValueError("row crosses block boundary")
            blocks[key][1].append({place[u]: c for u, c in row.items() if c})
    return blocks


def _axis_swaps(labels: list, signature: Signature) -> list[list[int]]:
    """For each exchange of neighbouring same-sign axes a and a + 1, the id of
    the image of each unknown (I, mono): the index entries and the exponents
    move to the exchanged axes, and the index is sorted again."""
    pos = {label: u for u, label in enumerate(labels)}
    indices = {I for I, _ in labels}
    monos = {mono for _, mono in labels}
    perms = []
    for a in range(1, signature.m):
        if a == signature.p:
            continue
        swap = {a: a + 1, a + 1: a}
        index_image = {I: tuple(sorted(swap.get(b, b) for b in I)) for I in indices}
        mono_image = {e: (*e[: a - 1], e[a], e[a - 1], *e[a + 1 :]) for e in monos}
        perms.append([pos[index_image[I], mono_image[mono]] for I, mono in labels])
    return perms


def _mapped_nullspace(src: tuple, null: list[dict], dst: tuple, image: list[int]):
    """The canonical nullspace of block dst, read from the nullspace null of
    block src, if the unknown map (column c of src to image[c]) takes src's
    columns onto dst's and src's rows onto dst's rows as a set, which makes
    the two systems equal up to relabeling; else None."""
    (src_cols, src_rows), (dst_cols, dst_rows) = src, dst
    place = {u: i for i, u in enumerate(dst_cols)}
    if len(dst_cols) != len(image) or any(u not in place for u in image):
        return None
    moved = [place[u] for u in image]
    mapped = {frozenset((moved[c], v) for c, v in row.items()) for row in src_rows}
    if mapped != {frozenset(row.items()) for row in dst_rows}:
        return None
    reduced = reduce(clear_row(vec, moved) for vec in null)
    return [{c: Fraction(v, row[p]) for c, v in row.items()} for p, row in reduced]


def _solve_blocks(labels, rows, key_of, signature: Signature) -> list[dict[int, Fraction]]:
    """Nullspace of a block-diagonal system of integer rows, canonical per block.

    key_of maps an unknown id to its block; a row that crosses a block
    boundary raises ValueError.  Returns reduced vectors in global
    coordinates, ordered by leading unknown.

    The labels are the ansatz unknowns (I, mono).  Exchanging two neighbouring
    axes of one metric sign keeps the metric, so it maps the system onto
    itself and each block onto a mirror block; these exchanges generate the
    p!·q! such axis permutations.  A block that no solved block has reached
    is solved directly, and then its orbit is walked one exchange at a time:
    each block reached is mapped from the block it was reached from
    (`_mapped_nullspace`).  The reduced echelon basis of a subspace is
    unique, so a mapped block has the bytes of a direct solve.  A block that
    fails the map's check is solved directly when the loop reaches it.
    """
    keys = [key_of(u) for u in range(len(labels))]
    blocks = _split_blocks(keys, rows.values())
    perms = _axis_swaps(labels, signature)
    solved: dict = {}
    for key, (cols, block_rows) in blocks.items():
        if key in solved:
            continue
        solved[key] = _nullspace_sparse(block_rows, len(cols))
        walk = [key]
        while walk:
            src = walk.pop()
            for perm in perms:
                image = [perm[u] for u in blocks[src][0]]
                dst = keys[image[0]]
                if dst not in solved:
                    null = _mapped_nullspace(blocks[src], solved[src], blocks[dst], image)
                    if null is not None:
                        solved[dst] = null
                        walk.append(dst)
    out = [
        {blocks[key][0][c]: v for c, v in vec.items()}
        for key, null in solved.items()
        for vec in null
    ]
    out.sort(key=min)
    return out


def solve_basis(spec: AnsatzSpec) -> Basis:
    """Complete basis of degree-bounded solutions of the defining system."""
    max_degree = spec.resolved_degree()
    labels = unknown_labels(spec.j, spec.signature.m, max_degree)
    rows = _ansatz_rows(spec, labels)
    vectors = _solve_blocks(
        labels,
        rows,
        lambda u: _content_key(*labels[u], spec.signature.m, spec.kind),
        spec.signature,
    )
    elements = vectors_to_fields(vectors, labels, spec.j, spec.signature)
    return Basis(
        kind=spec.kind,
        j=spec.j,
        s=spec.s,
        signature=spec.signature,
        elements=elements,
        degree_bound=max_degree,
    )


def saturation_check(spec: AnsatzSpec) -> bool:
    """True iff raising the degree bound by two leaves the dimension fixed."""
    base = spec.resolved_degree()
    dim0 = len(solve_basis(AnsatzSpec(spec.kind, spec.j, spec.s, spec.signature, base)))
    dim1 = len(
        solve_basis(AnsatzSpec(spec.kind, spec.j, spec.s, spec.signature, base + 2))
    )
    return dim0 == dim1


# ---------------------------------------------------------------------------
# prolonged-system rank checks
# ---------------------------------------------------------------------------


class RankReport(Record):
    j: int
    k: int
    s: int
    signature: Signature
    n_e: int
    n_u: int
    rank: int
    full_row_rank: bool

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "k": self.k,
            "s": self.s,
            "signature": [self.signature.p, self.signature.q],
            "N_e": self.n_e,
            "N_u": self.n_u,
            "rank": self.rank,
            "full_row_rank": self.full_row_rank,
        }


def system_rank(system: ProlongedSystem) -> int:
    """Exact rank of a prolonged system via its conserved-content blocks; a
    row that crosses a block boundary raises ValueError."""
    m = system.signature.m
    col_keys = [_content_key(I, index_content(C, m), m) for I, C in system.col_labels]
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in system.entries.items():
        rows.setdefault(r, {})[c] = v
    blocks = _split_blocks(col_keys, rows.values())
    return sum(len(echelon(block_rows)) for _, block_rows in blocks.values())


def full_rank_check(j: int, k: int, s: int, signature: Signature) -> RankReport:
    """Rank of the (j, k, s) prolonged system; full row rank means no slack."""
    system = prolong(j, k, s, signature)
    rank = system_rank(system)
    return RankReport(
        j=j,
        k=k,
        s=s,
        signature=signature,
        n_e=system.n_rows,
        n_u=system.n_cols,
        rank=rank,
        full_row_rank=rank == system.n_rows,
    )


# ---------------------------------------------------------------------------
# basis verification
# ---------------------------------------------------------------------------


def _unknown_items(F: SymTensorField):
    """(unknown, coefficient) for each nonzero coefficient of F, keyed as in
    `unknown_labels`; its `dict` is F's vector."""
    return (
        ((grlex_key(mono), idx), c)
        for idx, poly in F.components.items()
        for mono, c in poly.terms.items()
        if c
    )


def verify_basis(basis: Basis) -> list[str]:
    """Re-check residuals and independence; returns problem descriptions.

    The residuals of all elements are found in one pass.  Each element n is
    scaled to integers by the lcm of its denominators, and the elements are
    merged into one component map whose inner key is the int i * N + n, for
    N elements and i the number of a monomial, given as the pass first
    meets it.  One trace test, one stencil pass (`equations._killing_scaled`)
    and, for the conformal kind, one projection then run over that map, and
    each element's problem is read off the nonzero keys it owns.  A bad
    residual is reported with its first index, the first monomial of that
    component in graded-lex order, and the exact value there.

    Independence is certified by leading unknowns, taken in the same loop
    that merges the elements.  The lead of an element is its least unknown
    (monomial in graded-lex order, then index) with a nonzero coefficient.
    If the leads are pairwise distinct, the elements are independent: in a
    combination with some nonzero coefficient, take the element with the
    smallest lead among those.  Every other element in it is zero at that
    lead, which is smaller than its own, so the combination is nonzero
    there.  Only when leads collide or an element is zero does the check
    fall back to one exact elimination, which also names the first element
    that lies in the span of the ones before it.
    """
    elements, sig = basis.elements, basis.signature
    N = len(elements)
    conformal = basis.kind == "conformal"
    failed: dict[int, str] = {}
    scales: dict[int, int] = {}
    leads = []
    ids: dict[tuple, int] = {}
    grlex: list[tuple] = []  # grlex_key of each numbered monomial
    comps: dict[SymMultiIndex, dict[int, int]] = {}
    for n, el in enumerate(elements):
        if el.rank != basis.j or el.signature != sig:
            failed[n] = "rank/signature mismatch"
            leads.append(min((u for u, _ in _unknown_items(el)), default=None))
            continue
        scale = scales[n] = lcm(
            *(c.denominator for poly in el.components.values() for c in poly.terms.values())
        )
        lead = None
        for idx, poly in el.components.items():
            acc = comps.setdefault(idx, {})
            for mono, c in poly.terms.items():
                i = ids.get(mono)
                if i is None:
                    i = ids[mono] = len(grlex)
                    grlex.append(grlex_key(mono))
                acc[i * N + n] = c.numerator * (scale // c.denominator)
                if lead is None or (grlex[i], idx) < lead:
                    lead = (grlex[i], idx)
        leads.append(lead)
    if conformal:
        for terms in _trace_scaled(comps, sig).values():
            for key in terms:
                failed.setdefault(key % N, "candidate field is not traceless")
    if len(failed) < N:
        try:
            d, res = _residual_scaled(comps, basis.j, basis.s, sig, ids, N, conformal)
        except ValueError as exc:
            d, res = 1, {}
            for n in range(N):
                failed.setdefault(n, str(exc))
        monos = list(ids)
        bad: dict[int, tuple] = {}
        for K in sorted(res):
            if any(res[K].values()):
                for key, c in res[K].items():
                    i, n = divmod(key, N)
                    if c and n not in failed:
                        # K is the least bad index of n; keep its least monomial
                        got = bad.get(n)
                        if got is None or got[0] == K and grlex_key(monos[i]) < grlex_key(got[1]):
                            bad[n] = (K, monos[i], c)
        for n, (K, mono, c) in bad.items():
            failed[n] = (
                f"nonzero residual at index {K}, monomial {mono}, "
                f"value {Fraction(c, scales[n] * d)}"
            )
    problems = [f"element {n}: {failed[n]}" for n in sorted(failed)]
    if len(set(leads) - {None}) != N:
        vecs = [dict(_unknown_items(el)) for el in elements]
        independent = independent_subset(vecs)
        if len(independent) != len(vecs):
            first = min(set(range(len(vecs))).difference(independent))
            problems.append(
                f"elements are linearly dependent: element {first} "
                "lies in the span of the elements before it"
            )
    return problems
