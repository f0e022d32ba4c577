"""Exact linear algebra: dense field routines, sparse rank, Smith normal form.

Two regimes.  Small matrices (kernels, solving, membership) use dense
reduced row echelon over a field with the domain's scalars (over Q an
int unless a proper Fraction, mod-p ints over F_p), and Echelon is the
one Gauss-Jordan: rref feeds it the rows, and rank_dense, kernel_basis
and solve read rref.  Large graded slices and the spanning sets of ideal
powers only need rank, so those go through a sparse row elimination that
stays in integers (_clear_row gives the primitive integer row, clearing
the denominators of proper fractions, which the +-1 and +-u_i slices
never have; rows are renormalized by gcd).  The Smith normal form
reads the same sparse rows, with integer entries, and pivots on stored
entries.  dense_row expands a sparse row.

Matrices are lists of rows; a row is a list of scalars (dense) or a dict
col->scalar with no stored zeros (sparse).
"""

from __future__ import annotations

from collections import namedtuple
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
    return [dom.coerce(sum(dom.mul(a, b) for a, b in zip(row, v)))
            for row in matrix]


def mat_mul(a: list[list], b: list[list], dom: Domain) -> list[list]:
    if not a or not b:
        return [[] for _ in a]
    bt = list(zip(*b))
    return [[dom.coerce(sum(dom.mul(x, y) for x, y in zip(row, col)))
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

class SmithForm(namedtuple("SmithForm", "diagonal rank")):
    """Nonzero elementary divisors of an integer matrix, d1 | d2 | ..., and
    its rank.  Equal and hashed by (diagonal, rank)."""

    __slots__ = ()

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _reduce(lines: dict, cross: dict, i: int, j: int) -> None:
    """Take multiples of line i off every other line meeting position j,
    leaving there its remainder modulo the pivot lines[i][j].  lines are
    the rows and cross the columns (row steps), or the other way round
    (column steps); both are kept in step, and emptied lines dropped."""
    piv = lines[i]
    p = piv[j]
    for k in [k for k in cross[j] if k != i]:
        line = lines[k]
        q = line[j] // p
        for c, v in piv.items():
            w = line.get(c, 0) - q * v
            if w:
                line[c] = cross[c][k] = w
            else:
                line.pop(c, None)
                cross[c].pop(k, None)
        if not line:
            del lines[k]


def smith_normal_form(rows: list[dict[int, int]]) -> SmithForm:
    """Smith normal form of a sparse integer matrix, given as row dicts
    col -> entry; the rows are not mutated and stored zeros are ignored.

    Each pivot is a stored +-1 if there is one, else an entry of least
    magnitude.  Row steps reduce its column modulo the pivot, then column
    steps its row; a remainder left becomes the next, smaller pivot, and a
    pivot alone in its row and column is one diagonal entry.  The divisors
    d1 | d2 | ... come from merge_divisor_chains, the rank is their count.
    Transform matrices are not tracked (nothing downstream needs them).
    """
    m = {i: {c: int(v) for c, v in r.items() if v} for i, r in enumerate(rows)}
    m = {i: r for i, r in m.items() if r}
    cols: dict[int, dict[int, int]] = {}
    for i, r in m.items():
        for c, v in r.items():
            cols.setdefault(c, {})[i] = v
    diag: list[int] = []
    while m:
        i, j = next(((i, j) for i, r in m.items() for j, v in r.items()
                     if v in (1, -1)), (None, None))
        if i is None:
            _, i, j = min((abs(v), i, j) for i, r in m.items()
                          for j, v in r.items())
        while len(m[i]) > 1 or len(cols[j]) > 1:
            _reduce(m, cols, i, j)
            if len(cols[j]) > 1:
                i = min((k for k in cols[j] if k != i),
                        key=lambda k: abs(cols[j][k]))
                continue
            _reduce(cols, m, j, i)
            if len(m[i]) > 1:
                j = min((c for c in m[i] if c != j),
                        key=lambda c: abs(m[i][c]))
        diag.append(abs(m[i][j]))
        del m[i], cols[j]
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


def block_smith_form(blocks: list[list[dict[int, int]]]) -> SmithForm:
    """Smith normal form of a block-diagonal matrix from its diagonal
    blocks, each given as sparse rows: their divisor chains merged, their
    ranks added."""
    forms = [smith_normal_form(b) for b in blocks]
    return SmithForm(merge_divisor_chains([f.diagonal for f in forms]),
                     sum(f.rank for f in forms))
