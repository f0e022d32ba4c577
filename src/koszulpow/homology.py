"""Homology of the tensored resolution: Tor with explicit generators,
torsion certificates, product triviality, freeness, and induced maps.

The tensored resolution t = K (x) R/I has the +-1 transfer entries as
its differentials and carries the max-rule acyclic matching
(resolution.MorseMatching).  Once its certificate holds, it settles Tor
with no elimination: the generators are the matching's critical labels,
each standing for the cycle with coefficient 1 on it (zero differential),
so Tor is free on them over Z and every field; d_n has pairs[n]
elementary divisors, all 1, so there is no torsion; and class
coordinates, of products and of images under a chain map, are the Morse
projection onto the critical cells, with t's own coefficients.  tor and
freeness_check report a failed certificate as a failed check;
induced_tor_map raises on it.  tor(spec, s) builds t and its matching
once and no polynomial resolution: the matching at s also certifies its
restriction below tag length s - 1, whose critical cells are the Tor
generators of R/I^{s-1}, the target of the reduction map.  Its other
two rank routes read one page 2 off t by real elimination
(transfer-cokernel: its last column; page2: its column sums).
"""

from __future__ import annotations

from .poly import Polynomial, GF, RegularSequenceSpec
from .linalg import kernel_basis, smith_normal_form, sparse_rank, Echelon
from .chain import (ChainComplex, ChainMap, Element, constant_rows,
                    element_str, element_add, map_slice)
from .koszul import koszul_complex
from .resolution import (MorseMatching, PROBE_PRIMES, _max_rule_mate, cut,
                         dga_multiply, homology_slice_dims,
                         default_internal_bound, tensor_mod_I_complex)
from .spectral import _page_one, e2_page
from .ideals import hilbert_function


def homology_ranks(t: ChainComplex) -> list[tuple[int, tuple[int, ...]]]:
    """Per homological degree: (free rank, torsion divisors > 1), for a
    complex with constant integer entries.  Rank by rank-nullity, each
    differential read once as sparse integer rows and ranked once over the
    rank field; torsion of H_n from the Smith form of d_{n+1} (none over
    F_p)."""
    fd = t.domain.rank_field
    rows = {n: constant_rows(t.differential(n))
            for n in range(1, t.max_degree + 1)}
    rank = {n: sparse_rank(r, fd) for n, r in rows.items()}
    return [(t.module(n).dim - rank.get(n, 0) - rank.get(n + 1, 0),
             smith_normal_form(rows[n + 1]).torsion
             if n + 1 in rows and fd.kind != "Fp" else ())
            for n in range(t.max_degree + 1)]


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
    """Tor of (R/I, R/I^s) read off the max-rule matching on t = K (x) R/I:
    generators[n] is its list of critical labels, each standing for the
    cycle with coefficient 1 on it.  tor() fills in the rest, the
    reduction map in induced_tor_map's form; failure is None when the
    matching is certified, else its first failing label and check."""

    __slots__ = ("generators", "t", "matching", "failure", "torsion",
                 "routes", "products", "induced_reduction")

    def __init__(self, matching: MorseMatching):
        self.t = matching.t              # K (x) R/I, K resolving R/I^s
        self.generators = matching.critical
        self.matching = matching
        self.failure = matching.failure
        # every elementary divisor is 1 (MorseMatching): no torsion
        self.torsion = ((),) * len(self.generators)
        self.routes: dict[str, tuple[int, ...]] = {}
        self.products: ProductTable | None = None
        self.induced_reduction: dict | None = None

    @property
    def ranks(self) -> tuple[int, ...]:
        """Free ranks: the critical labels counted per degree."""
        return tuple(len(gens) for gens in self.generators)

    @property
    def routes_agree(self) -> bool:
        return len(set(self.routes.values())) == 1

    def generator_strings(self) -> list[list[str]]:
        return [[f"(1)*{g}" for g in c] for c in self.generators]


def coker_transfer_ranks(spec: RegularSequenceSpec, s: int) -> tuple[int, ...]:
    """Tor ranks via the cokernel of the last transfer map."""
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
    The reduction map is computed generator by generator through the cut,
    in induced_tor_map's sparse form: the unit, below tag length s - 1,
    keeps 1 on its row, and the cut drops every other generator; the rows
    are t's labels below that length left critical by the max rule at
    s - 1 (README, "Why Tor needs no elimination").
    """
    if s < 1:
        raise ValueError("power must be >= 1")
    report = _tor_basis(spec, s)
    page2 = e2_page(spec, s, _page_one(report.t))
    report.routes = {"direct": report.ranks,
                     "transfer-cokernel": _coker_ranks(page2),
                     "page2": page2.total_ranks()}
    report.products = tor_products(report)
    if s >= 2:
        report.induced_reduction = {}
        for n, gens in enumerate(report.generators):
            rows = [g for g in report.t.module(n)
                    if len(g.tag) < s - 1 and _max_rule_mate(g, s - 1) is None]
            report.induced_reduction[n] = ((len(rows), len(gens)), [
                (rows.index(g), j, 1) for j, g in enumerate(gens)
                if len(g.tag) < s - 1])
    return report


def _tor_basis(spec: RegularSequenceSpec, s: int) -> TorReport:
    """The generators of Tor, read off the tensored resolution of R/I^s."""
    return TorReport(MorseMatching(tensor_mod_I_complex(spec, s), s))


def tor_products(report: TorReport) -> ProductTable:
    """Pairwise products of the report's positive-degree Tor generators on
    the labels of its tensored complex, each residue its Morse projection.
    A pair whose tag lengths cut every term is zero unmultiplied: for
    s >= 2 every pair (certificate "tag-length"); for s = 1 none, d = 0,
    the projection is the identity and the table is genuinely nonzero."""
    t, gens = report.t, report.generators
    one = Polynomial.one(t.n_vars, t.domain)
    flat = [(n, i) for n in range(1, len(gens)) for i in range(len(gens[n]))]
    tau = [len(gens[n][i].tag) for n, i in flat]
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
            resid = report.matching.project(dga_multiply(
                t, {gens[na][ia]: one}, {gens[nb][ib]: one}))
            if resid:
                entries[(ai, bi)] = resid
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


def divisor_report(matrices: dict[int, list[list[int]]]) -> FreenessReport:
    """Divisor certificate of dense integer matrices, one per degree, each
    read once as sparse rows: their Smith form, and their rank again
    modulo each probe prime."""
    divisors = {}
    offending = []
    rank_by_field = {f: {} for f in ["QQ"] + [f"F{p}" for p in PROBE_PRIMES]}
    for n, m in sorted(matrices.items()):
        rows = [{j: v for j, v in enumerate(r) if v} for r in m]
        snf = smith_normal_form(rows)
        divisors[n] = snf.diagonal
        for d in snf.torsion:
            offending.append(f"degree {n}: elementary divisor {d} != 1")
        rank_by_field["QQ"][n] = snf.rank
        for p in PROBE_PRIMES:
            rp = rank_by_field[f"F{p}"][n] = sparse_rank(rows, GF(p))
            if rp != snf.rank:
                offending.append(
                    f"degree {n}: rank drops from {snf.rank} to {rp} mod {p}")
    return FreenessReport(not offending, divisors, rank_by_field, offending)


def freeness_check(spec: RegularSequenceSpec, s: int) -> FreenessReport:
    """Certify Tor is a free R/I-module: every elementary divisor of every
    tensored differential is 1, so images are direct summands and ranks
    survive base change to any field.  Read off the certified max-rule
    matching: d_n has pairs[n] divisors, all 1, and rank pairs[n] over Q
    and modulo every prime.  A failed certificate is the offending line."""
    if spec.domain.kind == "Fp":
        raise ValueError("freeness certificate needs a characteristic-0 domain")
    m = MorseMatching(tensor_mod_I_complex(spec, s), s)
    ranks = {n: r for n, r in enumerate(m.pairs) if n}
    return FreenessReport(
        m.failure is None, {n: (1,) * r for n, r in ranks.items()},
        {f: dict(ranks) for f in ["QQ"] + [f"F{p}" for p in PROBE_PRIMES]},
        [m.failure] if m.failure else [])


def induced_tor_map(f: ChainMap) -> dict[int, tuple]:
    """The map induced on Tor by a chain map of resolutions, per degree n
    as ((rows, cols), its sorted nonzero (row, col, value) triples), the
    form of tor()'s reduction map.  Rows index target Tor generators,
    columns source generators, in the generator bases of tor(); both
    complexes must carry their construction parameters."""
    for c in (f.source, f.target):
        if not hasattr(c, "spec"):
            raise ValueError("induced map needs system-built complexes")
    chain_ok = f.verify()
    if not chain_ok.ok:
        raise ValueError(f"not a chain map: {chain_ok.detail}")
    src, tgt = (_tor_basis(c.spec, c.s) for c in (f.source, f.target))
    if src.failure or tgt.failure:
        raise ValueError(f"uncertified basis: {src.failure or tgt.failure}")
    # column j in degree n: the Morse projection of f(g_j) onto the
    # target's critical cells
    one = Polynomial.one(f.source.n_vars, f.source.domain)
    out = {}
    for n in range(max(len(src.ranks), len(tgt.ranks))):
        src_gens = src.generators[n] if n < len(src.generators) else []
        cells = tgt.generators[n] if n < len(tgt.generators) else []
        row_of = {g: i for i, g in enumerate(cells)}
        comp = f.component(n)
        out[n] = ((len(cells), len(src_gens)), sorted(
            (row_of[h], j, x.constant_value()) for j, g in enumerate(src_gens)
            for h, x in tgt.matching.project(comp.apply({g: one})).items()))
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


def regularity_defect(spec: RegularSequenceSpec,
                      probe: ProbeReport | None = None) -> str | None:
    """Why the sequence is not regular, else None.  It lies in (x1..xn), of
    grade n over Q, F_p and Z, so it is at most n long.  With n generators,
    it is regular over a field iff R/I is Artinian, iff (R/I)_D = 0 at
    D = sum(d_i - 1) + 1, the degree past the top of the Hilbert series
    prod(1 + t + .. + t^(d_i - 1)) (Bruns-Herzog 1.5, Thm 2.1.2).  Over Z
    that is checked over Q, a necessary condition: regular over Z implies
    regular over Q by flat base change.  With fewer generators, homology
    found by the Koszul probe (run here unless given) proves it; a clean
    probe decides nothing, and None is returned."""
    if spec.n_gens > spec.n_vars:
        return (f"not regular: {spec.n_gens} generators, more than the "
                f"{spec.n_vars} variables")
    if spec.n_gens < spec.n_vars:
        probe = probe or koszul_regularity_probe(spec)
        return None if probe.ok else probe.summary()
    top = sum(spec.degrees) - spec.n_gens + 1
    h = hilbert_function(spec, 1, top)
    return f"not regular: (R/I)_{top} has dimension {h}, not 0" if h else None


def _slice_homology_witness(c: ChainComplex, n: int, d: int) -> str:
    """A cycle at slice (n, d) that is not a boundary, as printable text:
    the first reduced-echelon kernel vector of the slice of d_n that lies
    outside the span of the columns of the slice of d_{n+1}."""
    sl = map_slice(c.differential(n), d)
    dom = c.domain
    span = Echelon(dom)
    for col in zip(*map_slice(c.differential(n + 1), d).rows):
        span.insert(list(col))
    cycle = next((v for v in kernel_basis(sl.rows, sl.n_cols, dom)
                  if span.insert(v)), None)
    if cycle is None:
        return "(none)"
    elt: Element = {}
    for (g, mono), coeff in zip(sl.col_basis, cycle):
        if coeff != dom.zero():
            term = Polynomial(c.n_vars, dom, {mono: coeff})
            elt = element_add(elt, {g: term})
    return element_str(elt)
