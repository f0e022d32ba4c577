"""Labeled free modules, sparse polynomial matrices, chain complexes, and
finite graded slices.

A generator label has an exterior part (strictly increasing indices, the
wedge factors) and a tag part (weakly increasing indices, a monomial in
the sequence generators); either may be empty.  Homological degree of a
generator is its exterior length; the internal (polynomial) degree is
stored on the label.  Maps are sparse associations (target, source) ->
polynomial, kept homogeneous.  A GradedSlice expands one internal degree
of a map over monomial bases into a sparse scalar matrix (one dict per
row); its dense form is built only on request.

One routine, _nonzero_source, decides whether a sum of signed composites
f after g vanishes and names the least source label where it does not.
verify_complex, ChainMap.verify and extensions.verify_connecting read
their witnesses from it; compose builds its map from the same sum.
"""

from __future__ import annotations

from operator import ge, gt

from .poly import (Polynomial, Domain, monomials_of_degree, mono_mul,
                   RegularSequenceSpec)
from .linalg import sparse_rank, dense_row

Element = dict  # Label -> nonzero Polynomial


class Label:
    """A free-module generator e_S t_m with its internal degree.  Equal and
    hashed by (exterior, tag, ideg), the hash computed once; ordered by
    sort_key."""

    __slots__ = ("exterior", "tag", "ideg", "_hash")

    def __init__(self, exterior: tuple[int, ...], tag: tuple[int, ...],
                 ideg: int):
        if exterior and (exterior[0] < 1 or
                         any(map(ge, exterior, exterior[1:]))):
            raise ValueError(f"exterior indices not strictly increasing: {exterior}")
        if tag and (tag[0] < 1 or any(map(gt, tag, tag[1:]))):
            raise ValueError(f"tag indices not weakly increasing: {tag}")
        self.exterior = exterior
        self.tag = tag
        self.ideg = ideg
        self._hash = hash((exterior, tag, ideg))

    def __eq__(self, other):
        if other.__class__ is not Label:
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self.exterior == other.exterior
                                 and self.tag == other.tag
                                 and self.ideg == other.ideg)

    def __hash__(self):
        return self._hash

    @property
    def hom_degree(self) -> int:
        return len(self.exterior)

    @property
    def sort_key(self):
        return (len(self.tag), self.tag, self.exterior)

    def __lt__(self, other: Label):
        return self.sort_key < other.sort_key

    def __str__(self):
        parts = []
        if self.exterior:
            parts.append("e{" + ",".join(map(str, self.exterior)) + "}")
        if self.tag:
            parts.append("t(" + ",".join(map(str, self.tag)) + ")")
        return "".join(parts) if parts else "1"

    def __repr__(self):
        return f"Label({self})"


def make_label(spec: RegularSequenceSpec, exterior: tuple[int, ...],
               tag: tuple[int, ...]) -> Label:
    ideg = sum(spec.degrees[i - 1] for i in exterior) + \
        sum(spec.degrees[i - 1] for i in tag)
    return Label(tuple(exterior), tuple(tag), ideg)


class FreeModule:
    """A free module on distinct labels, in order.  Equal and hashed by its
    label tuple.  index maps each label to its position: the one label
    index that membership, positions and map entries read."""

    __slots__ = ("labels", "index")

    def __init__(self, labels: tuple[Label, ...]):
        self.index = {g: i for i, g in enumerate(labels)}
        if len(self.index) != len(labels):
            raise ValueError("duplicate generator labels")
        self.labels = labels

    def __eq__(self, other):
        if other.__class__ is not FreeModule:
            return NotImplemented
        return self is other or self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index_of(self, label: Label) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise KeyError(f"label {label} not in module") from None

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: Label) -> bool:
        return label in self.index


EMPTY_MODULE = FreeModule(())


class SparseMap:
    """A map of free modules as a sparse polynomial matrix.

    entries: (target_label, source_label) -> nonzero homogeneous
    Polynomial of degree ideg(source) - ideg(target), so the map preserves
    internal degree.
    """

    __slots__ = ("source", "target", "entries", "n_vars", "domain", "_cols")

    def __init__(self, source: FreeModule, target: FreeModule,
                 entries: dict, n_vars: int, domain: Domain):
        self.source = source
        self.target = target
        self.n_vars = n_vars
        self.domain = domain
        clean = {}
        # keyed on the modules' own labels, so later lookups (columns,
        # map_slice) match by identity and skip Label.__eq__
        for (tgt_key, src_key), p in entries.items():
            if p.is_zero():
                continue
            j = source.index.get(src_key)
            if j is None:
                raise ValueError(
                    f"entry source {src_key} not a source generator")
            i = target.index.get(tgt_key)
            if i is None:
                raise ValueError(
                    f"entry target {tgt_key} not a target generator")
            src, tgt = source.labels[j], target.labels[i]
            if p.n_vars != n_vars or p.domain != domain:
                raise ValueError("entry polynomial in the wrong ring")
            if p.homogeneous_degree() != src.ideg - tgt.ideg:
                raise ValueError(
                    f"entry {tgt} <- {src} : {p} breaks internal degree "
                    f"({src.ideg} - {tgt.ideg} expected)")
            clean[(tgt, src)] = p
        self.entries = clean
        self._cols = None

    def is_zero(self) -> bool:
        return not self.entries

    def columns(self) -> dict:
        """source label -> list of (target label, polynomial)."""
        if self._cols is None:
            cols: dict = {g: [] for g in self.source.labels}
            for (tgt, src), p in self.entries.items():
                cols[src].append((tgt, p))
            self._cols = cols
        return self._cols

    def apply(self, elt: Element) -> Element:
        out: Element = {}
        cols = self.columns()
        for src, coeff in elt.items():
            for tgt, p in cols[src]:
                q = out.get(tgt)
                q = p * coeff if q is None else q + p * coeff
                if q.is_zero():
                    out.pop(tgt, None)
                else:
                    out[tgt] = q
        return out

    def scale(self, c) -> SparseMap:
        return SparseMap(self.source, self.target,
                         {k: p.scale(c) for k, p in self.entries.items()},
                         self.n_vars, self.domain)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMap)
                and self.source == other.source and self.target == other.target
                and self.entries == other.entries)

    def entry_lines(self) -> list[str]:
        col_of, row_of = self.source.index, self.target.index
        items = sorted(self.entries.items(),
                       key=lambda kv: (col_of[kv[0][1]], row_of[kv[0][0]]))
        return [f"{tgt} <- {src} : {p}" for (tgt, src), p in items]


def zero_map(source: FreeModule, target: FreeModule, n_vars: int,
             domain: Domain) -> SparseMap:
    return SparseMap(source, target, {}, n_vars, domain)


def _composite_sum(terms):
    """(target, source) -> the raw terms {monomial: int or Fraction} of the
    sum of sign * f[target, mid] * g[mid, source] over the terms (f, g) or
    (f, g, sign), not yet reduced mod p, and the maps' ring (domain,
    n_vars), None if no term counts.  A map given as None counts as zero."""
    ent: dict = {}
    ring = None
    for f, g, *sign in terms:
        if f is None or g is None:
            continue
        if g.target != f.source:
            raise ValueError("compose shape mismatch: target(g) != source(f)")
        ring = ring or (f.domain, f.n_vars)
        if {(f.domain, f.n_vars), (g.domain, g.n_vars)} != {ring}:
            raise ValueError("composite of maps over different rings")
        sg = sign[0] if sign else 1
        f_cols = f.columns()
        for (mid, src), p in g.entries.items():
            for tgt, q in f_cols[mid]:
                acc = ent.setdefault((tgt, src), {})
                for ma, ca in q.terms.items():
                    for mb, cb in p.terms.items():
                        m = mono_mul(ma, mb)
                        acc[m] = acc.get(m, 0) + sg * ca * cb
    return ent, ring


def _nonzero_source(*terms) -> Label | None:
    """The least source label on which the sum of sign * (f after g) over
    the terms (f, g) or (f, g, sign) is nonzero, or None if the sum
    vanishes.  Every check on built maps reads its witness here."""
    ent, ring = _composite_sum(terms)
    return min((src for (_, src), raw in ent.items()
                if any(map(ring[0].coerce, raw.values()))), default=None)


def compose(f: SparseMap, g: SparseMap) -> SparseMap:
    """f after g."""
    ent, (dom, n_vars) = _composite_sum([(f, g)])
    return SparseMap(g.source, f.target, {
        k: Polynomial(n_vars, dom, raw) for k, raw in ent.items()}, n_vars, dom)


# -- elements ---------------------------------------------------------------

def element_add(a: Element, b: Element) -> Element:
    out = dict(a)
    for g, p in b.items():
        q = out.get(g)
        q = p if q is None else q + p
        if q.is_zero():
            out.pop(g, None)
        else:
            out[g] = q
    return out


def element_str(a: Element) -> str:
    if not a:
        return "0"
    parts = []
    for g in sorted(a):
        parts.append(f"({a[g]})*{g}")
    return " + ".join(parts)


# -- complexes --------------------------------------------------------------

class ChainComplex:
    """Nonnegatively graded complex of labeled free modules.

    modules: degree n -> FreeModule (missing means zero); diffs: degree
    n -> SparseMap C_n -> C_{n-1}.  Treated as immutable once built.
    """

    def __init__(self, n_vars: int, domain: Domain,
                 modules: dict[int, FreeModule], diffs: dict[int, SparseMap]):
        self.n_vars = n_vars
        self.domain = domain
        self.modules = {n: m for n, m in modules.items() if m.dim > 0}
        if any(n < 0 for n in self.modules):
            raise ValueError("negative homological degree")
        self.diffs = {}
        for n, f in diffs.items():
            if f.source != self.module(n) or f.target != self.module(n - 1):
                raise ValueError(f"differential at {n} has wrong shape")
            if not f.is_zero():
                self.diffs[n] = f

    def module(self, n: int) -> FreeModule:
        return self.modules.get(n, EMPTY_MODULE)

    def differential(self, n: int) -> SparseMap:
        f = self.diffs.get(n)
        if f is not None:
            return f
        return zero_map(self.module(n), self.module(n - 1),
                        self.n_vars, self.domain)

    @property
    def max_degree(self) -> int:
        return max(self.modules, default=-1)

    def dims(self) -> tuple[int, ...]:
        return tuple(self.module(n).dim for n in range(self.max_degree + 1))

    def same_shape_as(self, other: ChainComplex) -> bool:
        return self.modules == other.modules

    def equal_maps(self, other: ChainComplex) -> bool:
        """Label-for-label, entry-for-entry equality of the differentials."""
        if self.modules != other.modules:
            return False
        degs = set(self.diffs) | set(other.diffs)
        return all(self.differential(n) == other.differential(n) for n in degs)

    def report_lines(self) -> list[str]:
        lines = []
        for n in range(self.max_degree + 1):
            mod = self.module(n)
            gens = ", ".join(f"{g}(deg {g.ideg})" for g in mod)
            lines.append(f"degree {n}: dim {mod.dim}: {gens}")
        for n in range(1, self.max_degree + 1):
            f = self.differential(n)
            if f.is_zero():
                continue
            lines.append(f"d_{n}:")
            lines.extend("  " + s for s in f.entry_lines())
        return lines


class ComplexReport:
    __slots__ = ("ok", "failing_degree", "witness", "detail")

    def __init__(self, ok: bool, failing_degree: int | None = None,
                 witness: Label | None = None, detail: str = ""):
        self.ok = ok
        self.failing_degree = failing_degree
        self.witness = witness
        self.detail = detail


def verify_complex(c: ChainComplex) -> ComplexReport:
    """Check d_n composed with d_{n+1} vanishes, symbolically."""
    for n in sorted(c.modules):
        src = _nonzero_source((c.differential(n), c.differential(n + 1)))
        if src is not None:
            return ComplexReport(False, n + 1, src,
                                 f"d∘d nonzero on {src} at degree {n + 1}")
    return ComplexReport(True)


def tensor_mod_I(c: ChainComplex, spec: RegularSequenceSpec) -> ChainComplex:
    """Apply R/I tensor to a complex on tagged labels, by the role of each
    entry: one that keeps the tag length must be +-u_i (a boundary) and is
    dropped; one that raises it by one must be a constant (a transfer) and
    is kept; anything else raises.  The output has constant entries on the
    same labels.  resolution.tensor_mod_I_complex writes the tensored
    resolution down directly; this is its reference.
    """
    dom = c.domain
    gens = [Polynomial(c.n_vars, dom, dict(u.terms)) for u in spec.gens]
    boundaries = set(gens) | {-u for u in gens}
    diffs = {}
    for n, f in c.diffs.items():
        ent = {}
        for (tgt, src), p in f.entries.items():
            rise = len(tgt.tag) - len(src.tag)
            if rise == 0 and p in boundaries:
                continue
            if rise != 1 or not p.is_constant():
                raise ValueError(f"entry {tgt} <- {src} : {p} is neither +-u_i"
                                 f" nor a constant raising the tag length")
            ent[(tgt, src)] = p
        diffs[n] = SparseMap(f.source, f.target, ent, c.n_vars, dom)
    return ChainComplex(c.n_vars, dom, dict(c.modules), diffs)


def constant_rows(f: SparseMap) -> list[dict[int, int]]:
    """Sparse integer matrix of a map whose entries are all integer
    constants (tensored differentials, transfer maps): one dict
    column -> nonzero entry per row.  Rows follow target label order,
    columns source label order."""
    row_of, col_of = f.target.index, f.source.index
    rows: list[dict[int, int]] = [{} for _ in range(f.target.dim)]
    for (tgt, src), p in f.entries.items():
        if not p.is_constant():
            raise ValueError(f"non-constant entry {p} at {tgt} <- {src}")
        v = p.constant_value()
        if v.__class__ is not int:           # a proper fraction over Q
            raise ValueError(f"non-integer entry {p} at {tgt} <- {src}")
        rows[row_of[tgt]][col_of[src]] = v
    return rows


def constant_matrix(f: SparseMap) -> list[list[int]]:
    """Dense form of constant_rows."""
    return [dense_row(row, f.source.dim) for row in constant_rows(f)]


# -- graded slices ----------------------------------------------------------

class GradedSlice:
    """One internal degree of a map, as a sparse scalar matrix.

    Rows and columns are labeled by (generator, complementary monomial)
    pairs: generator g of internal degree e contributes the columns
    {(g, mu) : deg mu = d - e}.  Ordering is module label order, then the
    monomial enumeration order within a generator.  entries holds one dict
    column -> nonzero scalar per row.
    """

    __slots__ = ("row_basis", "col_basis", "entries", "domain")

    def __init__(self, row_basis: list[tuple[Label, tuple[int, ...]]],
                 col_basis: list[tuple[Label, tuple[int, ...]]],
                 entries: list[dict[int, object]], domain: Domain):
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.entries = entries
        self.domain = domain

    @property
    def n_cols(self) -> int:
        return len(self.col_basis)

    @property
    def rows(self) -> list[list]:
        """The dense matrix, built on each access."""
        zero = self.domain.zero()
        return [dense_row(row, self.n_cols, zero) for row in self.entries]

    def sparse_rows(self) -> list[dict[int, object]]:
        return self.entries

    def rank(self, field: Domain | None = None) -> int:
        return sparse_rank(self.sparse_rows(), field or self.domain.rank_field)


def slice_basis(mod: FreeModule, n_vars: int, d: int):
    out = []
    for g in mod:
        for mu in monomials_of_degree(n_vars, d - g.ideg):
            out.append((g, mu))
    return out


def map_slice(f: SparseMap, d: int) -> GradedSlice:
    """Sparse matrix of f restricted to internal degree d.

    Column (g, mu) holds the terms c*mon of the entries f[tgt, g] at rows
    (tgt, mon*mu).  Distinct (tgt, mon) give distinct rows and stored
    coefficients are nonzero, so every cell gets at most one nonzero value.
    """
    row_basis = slice_basis(f.target, f.n_vars, d)
    col_basis = slice_basis(f.source, f.n_vars, d)
    row_index = {rc: i for i, rc in enumerate(row_basis)}
    rows: list[dict[int, object]] = [{} for _ in row_basis]
    f_cols = f.columns()
    for j, (g, mu) in enumerate(col_basis):
        for tgt, p in f_cols[g]:
            for mon, cval in p.terms.items():
                rows[row_index[(tgt, mono_mul(mon, mu))]][j] = cval
    return GradedSlice(row_basis, col_basis, rows, f.domain)


def graded_slice(c: ChainComplex, n: int, d: int) -> GradedSlice:
    """Slice of the differential C_n -> C_{n-1} at internal degree d."""
    return map_slice(c.differential(n), d)


# -- chain maps -------------------------------------------------------------

class ChainMap:
    """Degree-preserving map of complexes: components f_n: C_n -> D_n."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: dict[int, SparseMap]):
        self.source = source
        self.target = target
        self.components = {}
        for n, f in components.items():
            if f.source != source.module(n) or f.target != target.module(n):
                raise ValueError(f"component at {n} has wrong shape")
            self.components[n] = f

    def component(self, n: int) -> SparseMap:
        f = self.components.get(n)
        if f is not None:
            return f
        return zero_map(self.source.module(n), self.target.module(n),
                        self.source.n_vars, self.source.domain)

    def verify(self) -> ComplexReport:
        """Chain property: d_target after f equals f after d_source."""
        top = max(self.source.max_degree, self.target.max_degree)
        for n in range(1, top + 1):
            src = _nonzero_source(
                (self.target.differential(n), self.components.get(n)),
                (self.components.get(n - 1), self.source.differential(n), -1))
            if src is not None:
                return ComplexReport(False, n, src,
                                     f"chain property fails on {src} at degree {n}")
        return ComplexReport(True)
