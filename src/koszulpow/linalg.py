"""Exact linear algebra: dense field routines, sparse rank, Smith normal form.

Two regimes.  Small matrices (kernels, solving, membership) use dense
reduced row echelon over a field with Fraction or mod-p scalars, and
Echelon is the one Gauss-Jordan: rref feeds it the rows, and rank_dense,
kernel_basis and solve read rref.  Large graded slices and the
spanning sets of ideal powers only need rank, so those go through a
sparse row elimination that stays in integers (_clear_row clears
denominators up front and gives the primitive integer row; rows are
renormalized by gcd) to avoid Fraction overhead.  dense_row expands a
sparse row.

Matrices are lists of rows; a row is a list of scalars (dense) or a dict
col->scalar with no stored zeros (sparse).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .poly import Domain, QQ


# ---------------------------------------------------------------------------
# Dense routines over a field.

def _require_field(dom: Domain):
    if not dom.is_field:
        raise ValueError(f"need a field, got {dom}")


def dense_row(row: dict[int, object], n_cols: int, zero=0) -> list:
    """Dense form of a sparse row (col -> scalar) of length n_cols."""
    out = [zero] * n_cols
    for j, v in row.items():
        out[j] = v
    return out


def rref(matrix: list[list], n_cols: int, dom: Domain):
    """Reduced row echelon form. Returns (rows, pivot_cols), zero rows dropped."""
    ech = Echelon(dom)
    for r in matrix:
        if len(r) != n_cols:
            raise ValueError("ragged matrix")
        ech.insert(r)
    return [row for _, row in ech.rows], [pc for pc, _ in ech.rows]


def rank_dense(matrix: list[list], n_cols: int, dom: Domain) -> int:
    return len(rref(matrix, n_cols, dom)[1])


def kernel_basis(matrix: list[list], n_cols: int, dom: Domain) -> list[list]:
    """Basis of the right kernel {v : M v = 0}, one vector per free column.

    Deterministic: free columns are taken in increasing order and each
    basis vector has a 1 in its free column, so the result is the reduced
    echelon kernel basis.
    """
    red, pivots = rref(matrix, n_cols, dom)
    zero, one = dom.zero(), dom.one()
    pivot_set = set(pivots)
    basis = []
    for c in range(n_cols):
        if c in pivot_set:
            continue
        v = [zero] * n_cols
        v[c] = one
        for r, pc in enumerate(pivots):
            v[pc] = dom.neg(red[r][c])
        basis.append(v)
    return basis


def solve(matrix: list[list], rhs: list, dom: Domain):
    """One solution of M x = rhs, or None if inconsistent."""
    _require_field(dom)
    if not matrix:
        return [] if all(dom.coerce(b) == dom.zero() for b in rhs) else None
    n_cols = len(matrix[0])
    aug = [list(r) + [b] for r, b in zip(matrix, rhs)]
    red, pivots = rref(aug, n_cols + 1, dom)
    if n_cols in pivots:
        return None
    x = [dom.zero()] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n_cols]
    return x


def mat_vec(matrix: list[list], v: list, dom: Domain) -> list:
    return [sum((dom.mul(a, b) for a, b in zip(row, v)),
                start=dom.zero()) for row in matrix]


def mat_mul(a: list[list], b: list[list], dom: Domain) -> list[list]:
    if not a or not b:
        return [[] for _ in a]
    bt = list(zip(*b))
    return [[sum((dom.mul(x, y) for x, y in zip(row, col)), start=dom.zero())
             for col in bt] for row in a]


class Echelon:
    """Incrementally built reduced echelon basis of a subspace.

    Rows are kept fully reduced (Gauss-Jordan), so reduce() returns the
    canonical residue of a vector modulo the span: unique, with zeros in
    every pivot position.
    """

    def __init__(self, dom: Domain):
        _require_field(dom)
        self.dom = dom
        self.rows: list[tuple[int, list]] = []   # (pivot_col, normalized row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> Echelon:
        other = Echelon(self.dom)
        other.rows = list(self.rows)     # insert() never edits a row in place
        return other

    def reduce(self, v: list) -> list:
        dom = self.dom
        zero = dom.zero()
        v = [dom.coerce(x) for x in v]
        for pc, row in self.rows:
            f = v[pc]
            if f != zero:
                v = [dom.sub(x, dom.mul(f, y)) for x, y in zip(v, row)]
        return v

    def insert(self, v: list) -> bool:
        """Add v to the span. True if it enlarged the space."""
        dom = self.dom
        zero = dom.zero()
        r = self.reduce(v)
        pc = next((i for i, x in enumerate(r) if x != zero), None)
        if pc is None:
            return False
        pv = r[pc]
        if pv != dom.one():
            r = [dom.div(x, pv) for x in r]
        # only rows with an entry in the new pivot column change
        self.rows = [(p, row) if row[pc] == zero else
                     (p, [dom.sub(x, dom.mul(row[pc], y))
                          for x, y in zip(row, r)])
                     for p, row in self.rows]
        self.rows.append((pc, r))
        self.rows.sort(key=lambda t: t[0])
        return True

    def contains(self, v: list) -> bool:
        zero = self.dom.zero()
        return all(x == zero for x in self.reduce(v))


# ---------------------------------------------------------------------------
# Sparse rank.

def _clear_row(row: dict[int, object]) -> dict[int, int]:
    """The primitive integer row proportional to a row of rationals (int or
    Fraction), with zero entries dropped."""
    mult = lcm(*(v.denominator for v in row.values()))
    if mult == 1:
        out = {c: v.numerator for c, v in row.items() if v}
    else:
        out = {c: (v * mult).numerator for c, v in row.items() if v}
    g = gcd(*out.values()) if out else 1
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def sparse_rank(rows: list[dict[int, object]], dom: Domain = QQ) -> int:
    """Rank of a sparse matrix given as row dicts (col -> nonzero scalar).

    Over Q/Z the elimination is fraction-free: each update is
    pivot*row - entry*pivot_row followed by a gcd renormalization, so all
    intermediate values stay integers.  Over F_p arithmetic is mod p.
    Input dicts are not mutated.

    Rows wait in buckets keyed by their leading column, and the columns
    are taken in increasing order from a heap: only the rows of the
    current bucket contain the pivot column, so only they are eliminated,
    and each moves to the bucket of its new leading column.
    """
    modp = dom.p if dom.kind == "Fp" else None
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        if modp is None:
            r = _clear_row(r)
        else:
            r = {c: dom.coerce(v) for c, v in r.items()}
            r = {c: v for c, v in r.items() if v}
        if r:
            buckets.setdefault(min(r), []).append(r)
    heap = list(buckets)
    heapify(heap)
    rank = 0
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        # sparsest pivot row limits fill-in; the first one keeps it stable
        pi = min(range(len(bucket)), key=lambda i: len(bucket[i]))
        piv = bucket.pop(pi)
        pv = piv.pop(col)
        rank += 1
        if modp is not None:
            inv = pow(pv, -1, modp)
        for r in bucket:
            f = r.pop(col)
            if modp is not None:
                f = f * inv % modp
                out = r
                for c, v in piv.items():
                    w = (out.get(c, 0) - f * v) % modp
                    if w:
                        out[c] = w
                    else:
                        del out[c]
            else:
                out = {c: pv * v for c, v in r.items()}
                for c, v in piv.items():
                    w = out.get(c, 0) - f * v
                    if w:
                        out[c] = w
                    else:
                        del out[c]
                g = gcd(*out.values()) if out else 1
                if g > 1:
                    out = {c: v // g for c, v in out.items()}
            if out:
                lead = min(out)
                if lead in buckets:
                    buckets[lead].append(out)
                else:
                    buckets[lead] = [out]
                    heappush(heap, lead)
    return rank


# ---------------------------------------------------------------------------
# Smith normal form over the integers.

class SmithForm:
    """Nonzero elementary divisors of an integer matrix, d1 | d2 | ... .
    Equal and hashed by (diagonal, rank)."""

    __slots__ = ("diagonal", "rank")

    def __init__(self, diagonal: tuple[int, ...], rank: int):
        self.diagonal = diagonal
        self.rank = rank

    def __eq__(self, other):
        if other.__class__ is not SmithForm:
            return NotImplemented
        return self.diagonal == other.diagonal and self.rank == other.rank

    def __hash__(self):
        return hash((self.diagonal, self.rank))

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _snf_pivot(m: list[list[int]], t: int, nr: int, nc: int):
    """Smallest-magnitude nonzero entry of the trailing submatrix, scanning
    rows then columns so ties resolve deterministically."""
    best = None
    for i in range(t, nr):
        row = m[i]
        for j in range(t, nc):
            v = row[j]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:
                    return best[1], best[2]
    return (best[1], best[2]) if best else None


def smith_normal_form(matrix: list[list[int]]) -> SmithForm:
    """Euclidean row/column diagonalization, smallest pivot first; the
    divisors d1 | d2 | ... of the diagonal come from merge_divisor_chains.

    Returns the nonzero divisors only; rank equals their count.  Transform
    matrices are not tracked (nothing downstream needs them).
    """
    m = [[int(x) for x in row] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if m else 0
    for row in m:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    diag: list[int] = []
    for t in range(min(nr, nc)):
        loc = _snf_pivot(m, t, nr, nc)
        if loc is None:
            break
        i, j = loc
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        while True:
            # knock down the pivot column, then the pivot row
            reduced = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                        reduced = True
                    if m[i][t]:          # remainder smaller than pivot: swap up
                        m[t], m[i] = m[i], m[t]
                        reduced = True
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                        reduced = True
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        reduced = True
            if not reduced:
                break
        diag.append(abs(m[t][t]))
    return SmithForm(merge_divisor_chains([diag]), len(diag))


def merge_divisor_chains(chains: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Divisor chain of a block-diagonal matrix from the chains of its blocks.

    diag(a) + diag(b) has the same cokernel as diag(gcd(a,b), lcm(a,b)), so
    pairwise gcd/lcm exchanges converge to the merged chain.  Units divide
    everything, so they are set aside and put back in front.
    """
    ds = sorted(d for ch in chains for d in ch)
    units = ds.count(1)
    ds = ds[units:]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return (1,) * units + tuple(ds)


def block_smith_form(blocks: list[list[list[int]]]) -> SmithForm:
    """Smith normal form of a block-diagonal matrix from its diagonal
    blocks: their divisor chains merged, their ranks added."""
    forms = [smith_normal_form(b) for b in blocks]
    return SmithForm(merge_divisor_chains([f.diagonal for f in forms]),
                     sum(f.rank for f in forms))
