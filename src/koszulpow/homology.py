"""Homology of the tensored resolution: Tor with explicit generators,
torsion certificates, product triviality, freeness, and induced maps.

The tensored resolution (resolution.tensor_mod_I_complex) has the +-1
transfer matrices on the generator labels as its differentials.  All Tor
accounting happens on that integer skeleton: ranks and kernels over the
rationals, torsion via Smith normal form, and base change to any
coefficient field is legitimate exactly when the elementary divisors are
units, which freeness_check certifies.

The skeleton is block diagonal.  direct_summands splits a complex with
constant entries into the connected components of the nonzero entries of
all its differentials, and every elimination, freeness included, runs on
those small dense blocks.  (For the tensored resolution each component
lies inside one support set ext u tag of spectral.support_blocks, and
they are finer: 192 components on 16 support sets for 4 generators at
s = 4.  Nothing here relies on that.)  Block by block:

- ranks add up over the blocks and Smith forms merge
  (linalg.block_smith_form);
- pivot columns, the reduced-echelon kernel basis, the greedy choice of
  generators modulo the boundaries and canonical residues all split over
  a block-diagonal matrix, so generators chosen block by block and merged
  in global free-column order are the ones a whole-matrix elimination
  picks, and product residues and class coordinates are solved within
  the block of the vector alone.

One tor(spec, s) run builds the tensored complex t = K (x) R/I and its
blocks once, and no polynomial resolution K; per degree n and block it
keeps one reduced-echelon span of the block's columns of d_{n+1} (the
boundaries in degree n).  The TorReport carries them all and one map
from each label to its block; its generators are a basis of homology
over the rank field, so their counts are the free ranks.  The other two
routes read one page 2 off the same t (transfer-cokernel: its last
column).  Products and the reduction map read labels only, so they run
on t and on the t of R/I^{s-1}.
"""

from __future__ import annotations

from .poly import Polynomial, GF, RegularSequenceSpec
from .linalg import (block_smith_form, kernel_basis, rank_dense, sparse_rank,
                     Echelon, class_coordinates, _clear_row)
from .chain import (ChainComplex, ChainMap, Element, Label, constant_rows,
                    element_str, element_add, map_slice)
from .koszul import koszul_complex
from .resolution import (KRIsComplex, cut, cut_top_level, dga_multiply,
                         homology_slice_dims, default_internal_bound,
                         tag_floor, tensor_mod_I_complex)


# ---------------------------------------------------------------------------
# Direct-summand blocks.

class Summand:
    """One direct summand of a complex with constant integer entries.

    index[n] lists the global indices of its degree-n generators in
    increasing order (degrees without any are absent); mats[n] is its dense
    block of d_n, rows index[n-1] and columns index[n], present when both
    are; _tor_basis sets spans[n] to the span over the rank field of its
    boundaries in degree n (the columns of mats[n+1]).  Compared by identity.
    """

    __slots__ = ("index", "mats", "spans")

    def __init__(self, index: dict[int, list[int]],
                 mats: dict[int, list[list[int]]]):
        self.index = index
        self.mats = mats
        self.spans: dict[int, Echelon] = {}

    def dim(self, n: int) -> int:
        return len(self.index.get(n, ()))


def direct_summands(t: ChainComplex) -> list[Summand]:
    """Split t into the connected components of the nonzero entries of all
    its differentials (union-find over the generators of every degree).

    No entry joins two components, so t is their direct sum.  Input must
    have constant integer entries; anything else raises.  Components come
    in the order of their first generator by (degree, index).
    """
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    rows = {n: constant_rows(t.differential(n))
            for n in range(1, t.max_degree + 1)}
    for n, m in rows.items():
        for i, row in enumerate(m):
            for j in row:
                a, b = find((n - 1, i)), find((n, j))
                if a != b:
                    parent[b] = a
    root_of: dict[tuple[int, int], Summand] = {}
    where: dict[tuple[int, int], tuple[Summand, int]] = {}
    out: list[Summand] = []
    for n in range(t.max_degree + 1):
        for i in range(t.module(n).dim):
            r = find((n, i))
            b = root_of.get(r)
            if b is None:
                b = root_of[r] = Summand({}, {})
                out.append(b)
            idx = b.index.setdefault(n, [])
            where[(n, i)] = (b, len(idx))
            idx.append(i)
    for b in out:
        for n in b.index:
            if n - 1 in b.index:
                b.mats[n] = [[0] * len(b.index[n]) for _ in b.index[n - 1]]
    for n, m in rows.items():
        for i, row in enumerate(m):
            b, li = where[(n - 1, i)]
            for j, v in row.items():
                b.mats[n][li][where[(n, j)][1]] = v
    return out


def homology_ranks(t: ChainComplex) -> list[tuple[int, tuple[int, ...]]]:
    """Per homological degree: (free rank, torsion divisors > 1).

    Input must have constant integer entries (the tensored complexes).
    Rank from rank-nullity, each block of each differential ranked once;
    torsion as in _torsion.
    """
    summands = direct_summands(t)
    fd = t.domain.rank_field
    rank: dict[int, int] = {}
    for b in summands:
        for n, m in b.mats.items():
            rank[n] = rank.get(n, 0) + rank_dense(m, b.dim(n), fd)
    torsion = _torsion(t, summands)
    return [(t.module(n).dim - rank.get(n, 0) - rank.get(n + 1, 0),
             torsion[n]) for n in range(t.max_degree + 1)]


def _torsion(t: ChainComplex,
             summands: list[Summand]) -> tuple[tuple[int, ...], ...]:
    """Per degree n, the torsion divisors > 1 of H_n: those of the Smith
    form of d_{n+1} (none over F_p, where every divisor is a unit)."""
    if t.domain.kind == "Fp":
        return ((),) * (t.max_degree + 1)
    return tuple(block_smith_form([b.mats[n + 1] for b in summands
                                   if n + 1 in b.mats]).torsion
                 for n in range(t.max_degree + 1))


# ---------------------------------------------------------------------------
# Tor with explicit generators.

class ProductTable:
    __slots__ = ("gens", "entries", "all_zero", "certificate")

    def __init__(self, gens: list[tuple[int, int]], entries: dict,
                 all_zero: bool, certificate: str):
        self.gens = gens                 # (homological degree, index)
        self.entries = entries           # (i, j) -> nonzero residue Element
        self.all_zero = all_zero
        self.certificate = certificate   # "tag-length" or "reduced"

    def _line(self, i: int, j: int) -> str:
        res = self.entries.get((i, j))
        return f"g{i} * g{j} = {element_str(res) if res else '0'}"

    def lines(self) -> list[str]:
        n = len(self.gens)
        return [self._line(i, j) for i in range(n) for j in range(n)]

    def nonzero_lines(self) -> list[str]:
        """The lines of the nonzero products, in the order of lines()."""
        return [self._line(i, j) for i, j in sorted(self.entries)]


class TorReport:
    """Tor of (R/I, R/I^s); _tor_basis fills it up to where, tor() the rest."""

    __slots__ = ("generators", "t", "summands", "where", "torsion", "routes",
                 "products", "induced_reduction")

    def __init__(self, generators: list[list[Element]], t: KRIsComplex,
                 summands: list[Summand],
                 where: dict[Label, tuple[Summand, int]]):
        self.generators = generators     # per homological degree
        self.t = t                       # K (x) R/I, K resolving R/I^s
        self.summands = summands         # the blocks of t, with their spans
        self.where = where               # label -> block, index in it
        self.torsion: tuple[tuple[int, ...], ...] = ()
        self.routes: dict[str, tuple[int, ...]] = {}
        self.products: ProductTable | None = None
        self.induced_reduction: dict | None = None

    @property
    def ranks(self) -> tuple[int, ...]:
        """Free ranks: over the rank field the generators are a basis."""
        return tuple(len(gens) for gens in self.generators)

    @property
    def routes_agree(self) -> bool:
        return len(set(self.routes.values())) == 1

    def generator_strings(self) -> list[list[str]]:
        return [[element_str(g) for g in gens] for gens in self.generators]


def _column_span(matrix: list[list], n_cols: int, dom) -> Echelon:
    """Reduced echelon span of the columns of a dense matrix."""
    span = Echelon(dom)
    for j in range(n_cols):
        span.insert([row[j] for row in matrix])
    return span


def _homology_basis(m_out: list[list], n_cols: int,
                    span: Echelon) -> list[list]:
    """Reduced-echelon kernel basis vectors of m_out that are independent
    modulo span (the incoming image), taken in column order.
    Deterministic."""
    ech = span.copy()
    return [v for v in kernel_basis(m_out, n_cols, span.dom) if ech.insert(v)]


def _block_vectors(elt: Element, n: int, where: dict,
                   fd) -> dict[Summand, list]:
    """Coordinates of a degree-n tensored element, split by block: summand
    -> vector on its degree-n indices, for the summands the element meets."""
    vecs: dict[Summand, list] = {}
    for g, p in elt.items():
        if not p.is_constant():
            raise ValueError(f"non-constant coefficient {p} in tensored element")
        b, j = where[g]
        if b not in vecs:
            vecs[b] = [fd.zero()] * b.dim(n)
        vecs[b][j] = fd.coerce(p.constant_value())
    return vecs


def coker_transfer_ranks(spec: RegularSequenceSpec, s: int) -> tuple[int, ...]:
    """Tor ranks via the cokernel of the last transfer map."""
    from .spectral import e2_page
    return _coker_ranks(e2_page(spec, s))


def _coker_ranks(page2) -> tuple[int, ...]:
    """Tor in degree n > 0 is the cokernel of the transfer d1 from cell
    (s-2, n+1) into (s-1, n); no d1 leaves the last column, so that is
    page 2 at (s-1, n).  Degree 0 contributes the unit."""
    return (1,) + tuple(page2.rank(page2.s - 1, n)
                        for n in range(1, page2.n_gens + 1))


def tor(spec: RegularSequenceSpec, s: int) -> TorReport:
    """Tor of (R/I, R/I^s): ranks, explicit generator cycles, torsion, the
    product table and, for s >= 2, the map induced by R/I^s -> R/I^{s-1}.

    Ranks are cross-checked against two further routes, both read off
    one page 2 of the column filtration: the cokernel of the last
    transfer map (page 2's last column) and page 2's column sums.
    """
    if s < 1:
        raise ValueError("power must be >= 1")
    report = _tor_basis(spec, s)
    report.torsion = _torsion(report.t, report.summands)
    from .spectral import _page_one, e2_page
    page2 = e2_page(spec, s, _page_one(report.t, spec, s))
    report.routes = {"direct": report.ranks,
                     "transfer-cokernel": _coker_ranks(page2),
                     "page2": page2.total_ranks()}
    report.products = tor_products(report)
    if s >= 2:
        lower = _tor_basis(spec, s - 1)
        report.induced_reduction = _induced_matrices(
            cut_top_level(report.t, lower.t), report, lower)
    return report


def _tor_basis(spec: RegularSequenceSpec, s: int) -> TorReport:
    """The tensored resolution of R/I^s and its blocks with their boundary
    spans, the label map, and per degree the generators: a reduced-echelon
    kernel basis modulo the span, block by block, merged in global
    free-column order."""
    t = tensor_mod_I_complex(spec, s)
    summands = direct_summands(t)
    fd = t.domain.rank_field
    one = Polynomial.one(t.n_vars, t.domain)
    where, generators = {}, []
    for n in range(t.max_degree + 1):
        labels = t.module(n).labels
        picked = []
        for b in summands:
            idx = b.index.get(n)
            if idx is None:
                continue
            span = b.spans[n] = _column_span(b.mats.get(n + 1, []),
                                             b.dim(n + 1), fd)
            where.update((labels[gi], (b, j)) for j, gi in enumerate(idx))
            for v in _homology_basis(b.mats.get(n, []), len(idx), span):
                w = {j: c for j, c in enumerate(v) if c}
                if fd.kind != "Fp":
                    w = _clear_row(w)
                # a reduced-echelon kernel vector ends at its free column
                picked.append((idx[max(w)], {labels[idx[j]]: one.scale(c)
                                             for j, c in w.items()}))
        generators.append([g for _, g in sorted(picked, key=lambda p: p[0])])
    return TorReport(generators, t, summands, where)


def tor_products(report: TorReport) -> ProductTable:
    """Pairwise products of the report's positive-degree Tor generators,
    multiplied on the labels of its tensored complex and reduced modulo
    boundaries, each within its own blocks.  A pair whose tag floors cut
    every term is zero unmultiplied: for s >= 2 every pair (certificate
    "tag-length"); for s = 1 none, and the table is genuinely nonzero."""
    t = report.t
    fd = t.domain.rank_field
    fone = Polynomial.one(t.n_vars, fd)
    flat = [(n, i) for n in range(1, len(report.generators))
            for i in range(len(report.generators[n]))]
    tau = [tag_floor(report.generators[n][i]) for n, i in flat]
    least = min(tau, default=0)
    entries = {}
    certificate = "tag-length"
    for ai, (na, ia) in enumerate(flat):
        if cut(t.s, tau[ai], least):      # then every pair (ai, bi) is
            continue
        for bi, (nb, ib) in enumerate(flat):
            if cut(t.s, tau[ai], tau[bi]):
                continue
            certificate = "reduced"
            prod = dga_multiply(t, report.generators[na][ia],
                                report.generators[nb][ib])
            nd = na + nb
            if not prod:      # as when nd > t.max_degree: exteriors overlap
                continue
            resid = []
            for b, v in _block_vectors(prod, nd, report.where, fd).items():
                resid += [(gi, c) for gi, c in
                          zip(b.index[nd], b.spans[nd].reduce(v))
                          if c != fd.zero()]
            if resid:
                labels = t.module(nd).labels
                entries[(ai, bi)] = {labels[gi]: fone.scale(c)
                                     for gi, c in sorted(resid)}
    return ProductTable(flat, entries, not entries, certificate)


# ---------------------------------------------------------------------------
# Freeness and induced maps.

class FreenessReport:
    __slots__ = ("ok", "divisors", "rank_by_field", "offending")

    def __init__(self, ok: bool, divisors: dict, rank_by_field: dict,
                 offending: list[str]):
        self.ok = ok
        self.divisors = divisors         # degree -> SNF divisors
        self.rank_by_field = rank_by_field  # field name -> per-degree ranks
        self.offending = offending

    def summary(self) -> str:
        if self.ok:
            return "all elementary divisors are units; ranks field-independent"
        return "; ".join(self.offending)


# the primes at which a divisor certificate re-ranks every matrix
_PROBE_PRIMES = (2, 3, 5)


def divisor_report(matrices: dict[int, list[list[int]]]) -> FreenessReport:
    """Divisor certificate of integer matrices, one per degree."""
    return _block_divisor_report({n: [m] for n, m in matrices.items()})


def _block_divisor_report(
        blocks: dict[int, list[list[list[int]]]]) -> FreenessReport:
    """divisor_report of the block-diagonal matrices with these diagonal
    blocks, one list per degree."""
    divisors = {}
    rank_by_field: dict = {"QQ": {}}
    offending = []
    for p in _PROBE_PRIMES:
        rank_by_field[f"F{p}"] = {}
    for n, ms in sorted(blocks.items()):
        snf = block_smith_form(ms)
        divisors[n] = snf.diagonal
        for d in snf.torsion:
            offending.append(f"degree {n}: elementary divisor {d} != 1")
        rows_q = [[{j: v for j, v in enumerate(r) if v} for r in m]
                  for m in ms]
        rank_by_field["QQ"][n] = snf.rank
        for p in _PROBE_PRIMES:
            rp = sum(sparse_rank(rows, GF(p)) for rows in rows_q)
            rank_by_field[f"F{p}"][n] = rp
            if rp != snf.rank:
                offending.append(
                    f"degree {n}: rank drops from {snf.rank} to {rp} mod {p}")
    return FreenessReport(not offending, divisors, rank_by_field, offending)


def freeness_check(spec: RegularSequenceSpec, s: int) -> FreenessReport:
    """Certify Tor is a free R/I-module: every elementary divisor of every
    tensored differential is 1, so images are direct summands and ranks
    survive base change to any field.  Read block by block off the direct
    summands of the tensored resolution."""
    if spec.domain.kind == "Fp":
        raise ValueError("freeness certificate needs a characteristic-0 domain")
    t = tensor_mod_I_complex(spec, s)
    summands = direct_summands(t)
    return _block_divisor_report({n: [b.mats[n] for b in summands
                                      if n in b.mats]
                                  for n in range(1, t.max_degree + 1)})


def induced_tor_map(f: ChainMap) -> dict[int, list[list]]:
    """Matrices of the map induced on Tor by a chain map of resolutions.

    Both complexes must carry their construction parameters.  Rows index
    target Tor generators, columns source generators, in the deterministic
    generator bases of tor().
    """
    for c in (f.source, f.target):
        if not hasattr(c, "spec"):
            raise ValueError("induced map needs system-built complexes")
    chain_ok = f.verify()
    if not chain_ok.ok:
        raise ValueError(f"not a chain map: {chain_ok.detail}")
    return _induced_matrices(f, _tor_basis(f.source.spec, f.source.s),
                             _tor_basis(f.target.spec, f.target.s))


def _induced_matrices(f: ChainMap, src: TorReport,
                      tgt: TorReport) -> dict[int, list[list]]:
    """induced_tor_map of a chain map f, given the Tor reports of its ends."""
    fd = tgt.t.domain.rank_field
    out = {}
    for n in range(max(len(src.ranks), len(tgt.ranks))):
        src_gens = src.generators[n] if n < len(src.generators) else []
        tgt_gens = tgt.generators[n] if n < len(tgt.generators) else []
        # each target generator lies in one block; a class has unique
        # coordinates on its block's generators, which are independent
        # modulo the block's boundaries
        gens_in: dict[Summand, list[tuple[int, list]]] = {}
        for i, g in enumerate(tgt_gens):
            (b, v), = _block_vectors(g, n, tgt.where, fd).items()
            gens_in.setdefault(b, []).append((i, v))
        comp = f.component(n)
        cols = []
        for g in src_gens:
            col = [0] * len(tgt_gens)
            image = _block_vectors(comp.apply(g), n, tgt.where, fd)
            for b, v in image.items():
                gens = gens_in.get(b, [])
                coords = class_coordinates([w for _, w in gens],
                                           b.spans[n], v)
                if coords is None:
                    raise ValueError("cycle class not in generator span")
                for (i, _), x in zip(gens, coords):
                    col[i] = int(x) if x.denominator == 1 else x
            cols.append(col)
        out[n] = [[col[i] for col in cols] for i in range(len(tgt_gens))]
    return out


# ---------------------------------------------------------------------------
# Regularity probe.

class ProbeReport:
    __slots__ = ("ok", "max_internal", "failures", "witness")

    def __init__(self, ok: bool, max_internal: int, failures: list,
                 witness: str | None):
        self.ok = ok
        self.max_internal = max_internal
        self.failures = failures         # (homological degree, internal degree)
        self.witness = witness

    def summary(self) -> str:
        if self.ok:
            return (f"no positive-degree homology up to internal degree "
                    f"{self.max_internal}: consistent with a regular sequence")
        n, d = self.failures[0]
        return (f"homology detected at degree {n}, internal degree {d} "
                f"(witness {self.witness}): sequence is NOT regular")


def koszul_regularity_probe(spec: RegularSequenceSpec,
                            max_internal: int | None = None) -> ProbeReport:
    """Necessary condition for regularity: the exterior-algebra complex on
    the sequence has no homology in positive degrees.  A clean pass is
    evidence (not proof); any failure certifies non-regularity."""
    if max_internal is None:
        max_internal = default_internal_bound(spec, 1)
    rspec = spec.with_domain(spec.domain.rank_field)
    c = koszul_complex(rspec)
    dims, = homology_slice_dims(c, max_internal)
    failures = [(n, d) for (n, d), h in sorted(dims.items())
                if n >= 1 and h != 0]
    witness = None
    if failures:
        witness = _slice_homology_witness(c, *failures[0])
    return ProbeReport(not failures, max_internal, failures, witness)


def _slice_homology_witness(c: ChainComplex, n: int, d: int) -> str:
    """A cycle at slice (n, d) that is not a boundary, as printable text."""
    sl = map_slice(c.differential(n), d)
    up = map_slice(c.differential(n + 1), d)
    dom = c.domain
    basis = _homology_basis(sl.rows, sl.n_cols,
                            _column_span(up.rows, up.n_cols, dom))
    if not basis:
        return "(none)"
    elt: Element = {}
    for (g, mono), coeff in zip(sl.col_basis, basis[0]):
        if coeff != dom.zero():
            term = Polynomial(c.n_vars, dom, {mono: coeff})
            elt = element_add(elt, {g: term})
    return element_str(elt)
