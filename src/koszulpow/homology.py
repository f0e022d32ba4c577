"""Homology of the tensored resolution: Tor with explicit generators,
torsion certificates, product triviality, freeness, and induced maps.

After applying R/I the differentials become integer matrices on the
generator labels (every polynomial entry is a constant plus a combination
of the sequence generators).  All Tor accounting happens on that integer
skeleton: ranks and kernels over the rationals, torsion via Smith normal
form, and base change to any coefficient field is legitimate exactly when
the elementary divisors are units, which freeness_check certifies.

One tor(spec, s) run builds the resolution K and its tensored complex
t = K (x) R/I once, and per degree n one reduced-echelon span of the
columns of d_{n+1} (the boundaries in degree n).  The TorReport carries
both; generator selection, tor_products and the induced reduction map
read them and rebuild neither.  The reduction map needs exactly one more
report, tor(spec, s - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .poly import Polynomial, QQ, GF, RegularSequenceSpec, binomial
from .linalg import (smith_normal_form, SmithForm, kernel_basis, rank_dense,
                     sparse_rank, solve, mat_vec, Echelon)
from .chain import (ChainComplex, ChainMap, Element, constant_matrix,
                    element_str, element_add, map_slice, tensor_mod_I)
from .koszul import koszul_complex, del_map
from .resolution import (build_k_ris, reduction_chain_map, dga_multiply,
                         homology_slice_dims, default_internal_bound)


def tensored_matrices(t: ChainComplex) -> dict[int, list[list[int]]]:
    """Integer differential matrices of a tensored complex, per degree."""
    return {n: constant_matrix(t.differential(n))
            for n in range(1, t.max_degree + 1)}


def _coeff_field(dom):
    """Field used for rank work on the constant skeleton: the domain itself
    for F_p coefficients (entries are residues), the rationals otherwise."""
    return dom if dom.kind == "Fp" else QQ


def homology_ranks(t: ChainComplex) -> list[tuple[int, tuple[int, ...]]]:
    """Per homological degree: (free rank, torsion divisors > 1).

    Input must have constant integer entries (the tensored complexes).
    Rank from rank-nullity; torsion from the Smith normal form of the
    incoming differential (skipped over F_p, where every divisor is a unit).
    """
    mats = tensored_matrices(t)
    fd = _coeff_field(t.domain)
    out = []
    for n in range(t.max_degree + 1):
        dim = t.module(n).dim
        m_out = mats.get(n)
        m_in = mats.get(n + 1)
        r_out = rank_dense(m_out, dim, fd) if m_out else 0
        r_in = rank_dense(m_in, t.module(n + 1).dim, fd) if m_in else 0
        if m_in and fd.kind != "Fp":
            torsion = smith_normal_form(m_in).torsion
        else:
            torsion = ()
        out.append((dim - r_out - r_in, torsion))
    return out


# ---------------------------------------------------------------------------
# Tor with explicit generators.

@dataclass
class ProductTable:
    gens: list[tuple[int, int]]          # (homological degree, index)
    entries: dict                        # (i, j) -> residue Element
    all_zero: bool

    def lines(self) -> list[str]:
        out = []
        for (i, j), res in sorted(self.entries.items()):
            tag = "0" if not res else element_str(res)
            out.append(f"g{i} * g{j} = {tag}")
        return out


@dataclass
class TorReport:
    s: int
    n_gens: int
    ranks: tuple[int, ...]
    generators: list[list[Element]]      # per homological degree
    torsion: tuple[tuple[int, ...], ...]
    routes: dict[str, tuple[int, ...]]
    t: ChainComplex                      # the tensored complex
    spans: list[Echelon]                 # degree n -> columns of d_{n+1}
    products: ProductTable | None = None
    induced_reduction: dict | None = None

    @property
    def routes_agree(self) -> bool:
        return len(set(self.routes.values())) == 1

    def generator_strings(self) -> list[list[str]]:
        return [[element_str(g) for g in gens] for gens in self.generators]


def _primitive_int_vector(v: list[Fraction]) -> list[int]:
    mult = lcm(*(x.denominator for x in v)) if v else 1
    w = [int(x * mult) for x in v]
    g = gcd(*w) if any(w) else 1
    if g > 1:
        w = [x // g for x in w]
    return w


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


def _vector_to_element(t: ChainComplex, n: int, v: list[int]) -> Element:
    one = Polynomial.one(t.n_vars, t.domain)
    out: Element = {}
    for g, c in zip(t.module(n).labels, v):
        if c:
            out[g] = one.scale(c)
    return out


def _element_to_vector(t: ChainComplex, n: int, elt: Element) -> list:
    fd = _coeff_field(t.domain)
    v = [fd.zero()] * t.module(n).dim
    for g, p in elt.items():
        if not p.is_constant():
            raise ValueError(f"non-constant coefficient {p} in tensored element")
        v[t.module(n).index_of(g)] = fd.coerce(p.constant_value())
    return v


def coker_transfer_ranks(spec: RegularSequenceSpec, s: int) -> tuple[int, ...]:
    """Tor ranks via the cokernel of the last transfer map.

    Positive-degree Tor at homological degree n is the cokernel of the
    integer transfer matrix from (tag level s-2, exterior degree n+1) into
    (tag level s-1, exterior degree n); degree 0 contributes the unit.
    For s=1 the source is empty and the ranks are the binomials.
    """
    n_g = spec.n_gens
    fd = _coeff_field(spec.domain)
    ranks = [1]
    for n in range(1, n_g + 1):
        target_dim = binomial(n_g, n) * binomial(n_g + s - 2, s - 1)
        r = 0
        if s >= 2 and n + 1 <= n_g:
            f = del_map(spec, s - 2)[n + 1]
            m = constant_matrix(f)
            r = rank_dense(m, f.source.dim, fd) if m else 0
        ranks.append(target_dim - r)
    return tuple(ranks)


def tor(spec: RegularSequenceSpec, s: int, with_products: bool = True,
        with_reduction: bool | None = None,
        cross_check: bool = True) -> TorReport:
    """Tor of (R/I, R/I^s): ranks, explicit generator cycles, torsion.

    Ranks are cross-checked against two further routes: the cokernel
    formula for the last transfer map and the rank-2 page of the column
    filtration (cross_check=False skips those).
    """
    if s < 1:
        raise ValueError("power must be >= 1")
    if with_reduction is None:
        with_reduction = s >= 2
    kris = build_k_ris(spec, s)
    t = tensor_mod_I(kris, spec)
    hr = homology_ranks(t)
    ranks = tuple(r for r, _ in hr)
    torsion = tuple(tor_ for _, tor_ in hr)
    mats = tensored_matrices(t)
    fd = _coeff_field(t.domain)
    spans, generators = [], []
    for n in range(t.max_degree + 1):
        spans.append(_column_span(mats.get(n + 1, []),
                                  t.module(n + 1).dim, fd))
        vecs = _homology_basis(mats.get(n, []), t.module(n).dim, spans[n])
        if fd.kind != "Fp":
            vecs = [_primitive_int_vector(v) for v in vecs]
        generators.append([_vector_to_element(t, n, v) for v in vecs])
    routes = {"direct": ranks}
    if cross_check:
        routes["transfer-cokernel"] = coker_transfer_ranks(spec, s)
        from .spectral import e2_page
        page = e2_page(spec, s)
        routes["page2"] = tuple(
            sum(r for (p, q), r in page.cells.items() if q == n)
            for n in range(t.max_degree + 1))
    report = TorReport(s, spec.n_gens, ranks, generators, torsion, routes,
                       t, spans)
    if with_products:
        report.products = tor_products(report, kris)
    if with_reduction and s >= 2:
        lower = tor(spec, s - 1, with_products=False, with_reduction=False,
                    cross_check=False)
        report.induced_reduction = _induced_matrices(
            reduction_chain_map(spec, s), report, lower)
    return report


def tensor_mod_I_complex(spec: RegularSequenceSpec, s: int) -> ChainComplex:
    return tensor_mod_I(build_k_ris(spec, s), spec)


def tor_products(report: TorReport, kris: ChainComplex) -> ProductTable:
    """Pairwise products in kris, the resolution the report was computed
    from, of its positive-degree Tor generators, reduced modulo
    boundaries.  All zero for s >= 2; genuinely nonzero for s=1."""
    t = report.t
    fd = _coeff_field(t.domain)
    fone = Polynomial.one(t.n_vars, fd)
    flat = [(n, i) for n in range(1, len(report.generators))
            for i in range(len(report.generators[n]))]
    entries = {}
    for ai, (na, ia) in enumerate(flat):
        for bi, (nb, ib) in enumerate(flat):
            prod = dga_multiply(kris, report.generators[na][ia],
                                report.generators[nb][ib])
            nd = na + nb
            if nd > t.max_degree or not prod:
                entries[(ai, bi)] = {}
                continue
            resid = report.spans[nd].reduce(_element_to_vector(t, nd, prod))
            entries[(ai, bi)] = {g: fone.scale(c) for g, c in
                                 zip(t.module(nd).labels, resid)
                                 if c != fd.zero()}
    return ProductTable(flat, entries, not any(entries.values()))


# ---------------------------------------------------------------------------
# Freeness and induced maps.

@dataclass
class FreenessReport:
    ok: bool
    divisors: dict                       # degree -> SNF divisors
    rank_by_field: dict                  # field name -> per-degree ranks
    offending: list[str]

    def summary(self) -> str:
        if self.ok:
            return "all elementary divisors are units; ranks field-independent"
        return "; ".join(self.offending)


def divisor_report(matrices: dict[int, list[list[int]]],
                   probe_primes=(2, 3, 5)) -> FreenessReport:
    divisors = {}
    rank_by_field: dict = {"QQ": {}}
    offending = []
    for p in probe_primes:
        rank_by_field[f"F{p}"] = {}
    for n, m in sorted(matrices.items()):
        snf = smith_normal_form(m) if m else SmithForm((), 0)
        divisors[n] = snf.diagonal
        for d in snf.torsion:
            offending.append(f"degree {n}: elementary divisor {d} != 1")
        rows_q = [{j: v for j, v in enumerate(r) if v} for r in m] if m else []
        rank_by_field["QQ"][n] = snf.rank
        for p in probe_primes:
            rp = sparse_rank(rows_q, GF(p))
            rank_by_field[f"F{p}"][n] = rp
            if rp != snf.rank:
                offending.append(
                    f"degree {n}: rank drops from {snf.rank} to {rp} mod {p}")
    return FreenessReport(not offending, divisors, rank_by_field, offending)


def freeness_check(spec: RegularSequenceSpec, s: int) -> FreenessReport:
    """Certify Tor is a free R/I-module: every elementary divisor of every
    tensored differential is 1, so images are direct summands and ranks
    survive base change to any field."""
    if spec.domain.kind == "Fp":
        raise ValueError("freeness certificate needs a characteristic-0 domain")
    t = tensor_mod_I_complex(spec, s)
    return divisor_report(tensored_matrices(t))


def induced_tor_map(f: ChainMap) -> dict[int, list[list]]:
    """Matrices of the map induced on Tor by a chain map of resolutions.

    Both complexes must carry their construction parameters.  Rows index
    target Tor generators, columns source generators, in the deterministic
    generator bases of tor().
    """
    for c in (f.source, f.target):
        if not hasattr(c, "spec"):
            raise ValueError("induced map needs system-built complexes")
    src_rep, tgt_rep = (tor(c.spec, c.s, with_products=False,
                            with_reduction=False, cross_check=False)
                        for c in (f.source, f.target))
    return _induced_matrices(f, src_rep, tgt_rep)


def _induced_matrices(f: ChainMap, src: TorReport,
                      tgt: TorReport) -> dict[int, list[list]]:
    """induced_tor_map, given the Tor reports of f's source and target."""
    chain_ok = f.verify()
    if not chain_ok.ok:
        raise ValueError(f"not a chain map: {chain_ok.detail}")
    fd = _coeff_field(tgt.t.domain)
    out = {}
    for n in range(max(len(src.ranks), len(tgt.ranks))):
        src_gens = src.generators[n] if n < len(src.generators) else []
        tgt_gens = tgt.generators[n] if n < len(tgt.generators) else []
        # generators, then the boundaries: coordinates on the generators
        # are unique because they are independent modulo the boundaries
        basis = [_element_to_vector(tgt.t, n, g) for g in tgt_gens]
        if n < len(tgt.spans):
            basis += [row for _, row in tgt.spans[n].rows]
        comp = constant_matrix(f.component(n))
        cols = [_class_coordinates(
                    basis, len(tgt_gens),
                    mat_vec(comp, _element_to_vector(src.t, n, g), fd), fd)
                for g in src_gens]
        out[n] = [[col[i] for col in cols] for i in range(len(tgt_gens))]
    return out


def _class_coordinates(basis: list[list], k: int, vec: list, fd) -> list:
    """Coordinates of a cycle's class on the first k basis vectors."""
    sol = solve([list(c) for c in zip(*basis)], vec, fd)
    if sol is None:
        raise ValueError("cycle class not in generator span")
    return [int(x) if x.denominator == 1 else x for x in sol[:k]]


# ---------------------------------------------------------------------------
# Regularity probe.

@dataclass
class ProbeReport:
    ok: bool
    max_internal: int
    failures: list                       # (homological degree, internal degree)
    witness: str | None = None

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
    rspec = spec if spec.domain.is_field else spec.with_domain(QQ)
    c = koszul_complex(rspec)
    dims = homology_slice_dims(c, max_internal)
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
