"""Exact linear algebra: one sparse row elimination, Smith normal form.

_insert is the one elimination: it adds a sparse row to an echelon basis
kept as {pivot column: row}, clearing the row's least column against the
row stored there until the row is zero or its least column is free.
Over Q/Z rows are primitive integer rows (_clear_row clears the
denominators of proper fractions, which the +-1 and +-u_i slices never
have) and each step is fraction-free; over F_p rows are residues.
sparse_rank counts the rows a basis keeps, Echelon keeps one for
residues, and rref back-substitutes one into the reduced echelon form
that rank_dense, kernel_basis and solve read.  The Smith normal form
reads the same sparse rows, with integer entries.  dense_row expands a
sparse row.

Matrices are lists of rows; a row is a list of scalars (dense) or a dict
col->scalar with no stored zeros (sparse).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .poly import Domain, QQ


# ---------------------------------------------------------------------------
# One sparse row elimination.

def _clear_row(row: dict[int, object]) -> dict[int, int]:
    """The primitive integer row proportional to a row of rationals (int or
    Fraction), with zero entries dropped, in one pass on an int row."""
    out = {c: v for c, v in row.items() if v}
    try:
        g = gcd(*out.values())
    except TypeError:                  # a Fraction: clear the denominators
        mult = lcm(*(v.denominator for v in out.values()))
        return _clear_row({c: (v * mult).numerator for c, v in out.items()})
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _insert(rows: dict[int, dict[int, int]], row: dict[int, object],
            dom: Domain) -> int | None:
    """Eliminate a sparse row (not mutated) against the basis rows, each
    stored under its least column, and store the rest under its least
    column; return that column, or None if the row lies in the span.
    Over Q/Z a step is pivot*r - lead*row renormalized by the gcd.  Stored
    rows are never edited."""
    p = dom.p if dom.kind == "Fp" else None
    if p is None:
        r = _clear_row(row)
    else:
        r = {c: w for c, v in row.items() if (w := dom.coerce(v))}
    while r:
        col = min(r)
        piv = rows.get(col)
        if piv is None:
            rows[col] = r
            return col
        f, pv = r[col], piv[col]
        if p is not None:
            f = f * pow(pv, -1, p) % p
            for c, v in piv.items():
                w = (r.get(c, 0) - f * v) % p
                if w:
                    r[c] = w
                else:
                    del r[c]
            continue
        if pv != 1:
            r = {c: pv * v for c, v in r.items()}
        for c, v in piv.items():
            w = r.get(c, 0) - f * v
            if w:
                r[c] = w
            else:
                del r[c]
        g = gcd(*r.values())
        if g > 1:
            r = {c: v // g for c, v in r.items()}
    return None


def sparse_rank(rows: list[dict[int, object]], dom: Domain = QQ) -> int:
    """Rank of a sparse matrix given as row dicts (col -> nonzero scalar),
    by inserting the rows, sparsest first, into an empty basis.  Input
    dicts are not mutated."""
    basis: dict[int, dict[int, int]] = {}
    for r in sorted(rows, key=len):
        _insert(basis, r, dom)
    return len(basis)


def _residue(rows: dict[int, dict], v: list, pivots: list[int],
             dom: Domain) -> list:
    """The dense vector v (edited in place) less the multiples of the
    stored rows at pivots, taken in increasing order, that clear it there.
    A stored row has no entry left of its pivot, so one pass leaves v zero
    at every one of pivots."""
    for pc in pivots:
        f = v[pc]
        if f:
            row = rows[pc]
            f = dom.div(f, row[pc])
            for c, x in row.items():
                v[c] = dom.sub(v[c], dom.mul(f, x))
    return v


class Echelon:
    """Incrementally built echelon basis of a subspace, for residues.

    rows maps each pivot column to the stored row (sparse, as _insert keeps
    it) whose least column it is.  reduce() returns the canonical residue
    of a vector modulo the span: unique, with zeros in every pivot position.
    """

    def __init__(self, dom: Domain):
        _require_field(dom)
        self.dom = dom
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> Echelon:
        other = Echelon(self.dom)
        other.rows = dict(self.rows)     # _insert never edits a stored row
        return other

    def reduce(self, v: list) -> list:
        dom = self.dom
        return _residue(self.rows, [dom.coerce(x) for x in v],
                        sorted(self.rows), dom)

    def insert(self, v: list) -> bool:
        """Add v to the span. True if it enlarged the space."""
        return _insert(self.rows, dict(enumerate(v)), self.dom) is not None

    def contains(self, v: list) -> bool:
        zero = self.dom.zero()
        return all(x == zero for x in self.reduce(v))


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
    """Reduced row echelon form. Returns (rows, pivot_cols), zero rows dropped.

    The rows go into one basis; each basis row, divided by its pivot, is
    reduced modulo the basis rows at the later pivots.
    """
    _require_field(dom)
    basis: dict[int, dict] = {}
    for r in matrix:
        if len(r) != n_cols:
            raise ValueError("ragged matrix")
        _insert(basis, dict(enumerate(r)), dom)
    pivots = sorted(basis)
    zero = dom.zero()
    red = []
    for i, pc in enumerate(pivots):
        pv = basis[pc][pc]
        v = {c: dom.div(x, pv) for c, x in basis[pc].items()}
        red.append(_residue(basis, dense_row(v, n_cols, zero),
                            pivots[i + 1:], dom))
    return red, pivots


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
