"""The free resolution of R/I^s: direct sum of tag-level complexes glued
by the transfer maps, with augmentation, graded exactness verification,
the truncated DGA product, and the reduction map to the s-1 resolution.

Degree-n generators are e_S t_m with |S| = n and tag length p < s.  The
differential sends a tag-level-p generator to its Koszul boundary (still
level p) plus its transfer image (level p+1, present only when p+1 < s).
The augmentation on degree 0 maps t_m to (-1)^p u_m mod I^s; the sign
alternates with tag length, which is exactly what makes the composite
with the differential vanish.
"""

from __future__ import annotations

from itertools import count
from math import gcd

from .poly import (Polynomial, QQ, GF, RegularSequenceSpec, _MR_BASES,
                   _MR_BOUND, _is_prime)
from .ideals import PowerReducer, hilbert_function, tag_product
from .chain import (make_label, FreeModule, SparseMap, ChainComplex,
                    ChainMap, graded_slice, Element, element_add)
from .koszul import q_module, boundary_entries, transfer_entries


class KRIsComplex(ChainComplex):
    """ChainComplex plus the parameters it was built from."""

    def __init__(self, spec: RegularSequenceSpec, s: int, modules, diffs):
        super().__init__(spec.n_vars, spec.domain, modules, diffs)
        self.spec = spec
        self.s = s


def resolution_module(spec: RegularSequenceSpec, s: int, n: int) -> FreeModule:
    """Degree-n module: all e_S t_m with |S| = n over tag levels p < s."""
    labels = []
    for p in range(s):
        labels.extend(q_module(spec, p, n).labels)
    labels.sort(key=lambda g: g.sort_key)
    return FreeModule(tuple(labels))


def _on_labels(spec: RegularSequenceSpec, s: int, entries) -> KRIsComplex:
    """The complex on the labels of the resolution of R/I^s whose
    differential out of each module m has the entries entries(m, inner),
    inner the labels of m below tag length s - 1 (those with a transfer)."""
    if s < 1:
        raise ValueError("power must be >= 1")
    modules = {q: resolution_module(spec, s, q)
               for q in range(spec.n_gens + 1)}
    diffs = {}
    for q in range(1, spec.n_gens + 1):
        inner = FreeModule(tuple(g for g in modules[q] if len(g.tag) < s - 1))
        diffs[q] = SparseMap(modules[q], modules[q - 1],
                             entries(modules[q], inner),
                             spec.n_vars, spec.domain)
    return KRIsComplex(spec, s, modules, diffs)


def build_k_ris(spec: RegularSequenceSpec, s: int) -> KRIsComplex:
    return _on_labels(spec, s, lambda m, inner: {
        **boundary_entries(spec, m), **transfer_entries(spec, inner)})


def tensor_mod_I_complex(spec: RegularSequenceSpec, s: int) -> KRIsComplex:
    """K (x) R/I for K = build_k_ris(spec, s), written from its labels: R/I
    kills every boundary entry +-u_i, so it is the +-1 transfer part alone.

    It depends on (n_gens, s, degrees, domain) only.  K is the generic
    resolution of Z[y]/(y)^s base-changed along y_i -> u_i, so it is exact
    when u is regular (README, "Why only regularity depends on the
    sequence"): regularity is the only check that depends on the input.
    """
    return _on_labels(spec, s, lambda m, inner: transfer_entries(spec, inner))


def augment(spec: RegularSequenceSpec, s: int, elt: Element,
            reducer: PowerReducer | None = None) -> Polynomial:
    """Residue of a degree-0 element in R/I^s.

    A coefficient a on the tag generator t_m contributes (-1)^{|m|} a u_m;
    the alternating sign makes the augmentation kill every boundary.
    The result is the canonical normal form modulo I^s.
    """
    if reducer is None:
        reducer = PowerReducer(spec, s)
    total = Polynomial.zero(spec.n_vars, spec.domain)
    for g, coeff in elt.items():
        if g.exterior:
            raise ValueError(f"augmentation applies to degree 0 only, got {g}")
        term = coeff * tag_product(spec, g.tag)
        total = total + term.scale((-1) ** len(g.tag))
    return reducer.reduce(total)


class ExactnessReport:
    __slots__ = ("ok", "s", "max_internal", "homology", "hilbert",
                 "mismatches", "fields_checked")

    def __init__(self, ok: bool, s: int, max_internal: int, homology: dict,
                 hilbert: dict, mismatches: list[str],
                 fields_checked: list[str]):
        self.ok = ok
        self.s = s
        self.max_internal = max_internal
        self.homology = homology    # (n, d) -> slice homology dimension
        self.hilbert = hilbert      # d -> independently computed dim (R/I^s)_d
        self.mismatches = mismatches
        self.fields_checked = fields_checked

    def __eq__(self, other):
        if other.__class__ is not ExactnessReport:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a)
                   for a in self.__slots__)

    def grid_lines(self) -> list[str]:
        top = max((n for n, _ in self.homology), default=0)
        lines = [f"homology slice dims (rows n, cols d<= {self.max_internal}):"]
        for n in range(top + 1):
            row = [self.homology.get((n, d), 0)
                   for d in range(self.max_internal + 1)]
            lines.append(f"  n={n}: " + " ".join(map(str, row)))
        return lines


def default_internal_bound(spec: RegularSequenceSpec, s: int) -> int:
    return (s + spec.n_gens) * spec.max_degree + 2


def homology_slice_dims(c: ChainComplex, max_d: int,
                        fields: list | None = None) -> list[dict]:
    """Per field (default: the rank field of c's domain), the dict (n, d) ->
    dim of degree-d slice homology, by rank-nullity.  Each slice is
    assembled once, and its row count is the dim of C_{n-1} in degree d;
    sparse_rank reduces integer entries mod p."""
    fields = fields or [c.domain.rank_field]
    dims, ranks = {}, {}
    for n in range(1, c.max_degree + 2):
        for d in range(max_d + 1):
            sl = graded_slice(c, n, d)
            dims[(n - 1, d)] = len(sl.row_basis)
            ranks.update({(k, n, d): sl.rank(f) for k, f in enumerate(fields)})
    return [{(n, d): dims[(n, d)] - ranks.get((k, n + 1, d), 0)
             - ranks.get((k, n, d), 0)
             for n in range(c.max_degree + 1) for d in range(max_d + 1)}
            for k in range(len(fields))]


def _coefficient_primes(spec: RegularSequenceSpec) -> set[int]:
    """The primes that divide a coefficient of some generator.

    The primes below 43 are divided out; Pollard's rho splits what is left
    until Miller-Rabin certifies every part prime.  A part from
    poly._MR_BOUND up has no certificate either way: ValueError."""
    primes = set()
    for coeff in {abs(int(c)) for u in spec.gens for c in u.terms.values()}:
        rest = coeff
        for p in _MR_BASES:
            while rest % p == 0:
                primes.add(p)
                rest //= p
        parts = [rest] if rest > 1 else []
        while parts:
            m = parts.pop()
            if m >= _MR_BOUND:
                raise ValueError(f"cannot factor the coefficient {coeff}: "
                                 f"its factor {m} is too large to certify")
            if _is_prime(m):
                primes.add(m)
            else:
                d = _rho_factor(m)
                parts += [d, m // d]
    return primes


def _rho_factor(m: int) -> int:
    """A proper factor of a composite m with no prime factor below 43
    (Pollard's rho, Floyd's cycle finding, one new constant per failure)."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = gcd(x - y, m)
        if d != m:
            return d


def verify_exactness(spec: RegularSequenceSpec, s: int,
                     max_internal: int | None = None) -> ExactnessReport:
    """Check the complex resolves R/I^s, slice by slice.

    Positive homological degrees must vanish in every internal degree up
    to the bound; the degree-0 cokernel dims must equal the independent
    Hilbert function.  Over ZZ the check runs over QQ and the prime fields
    F_p for p = 2, 3, 5 and every prime dividing a coefficient of a
    generator.  The integral resolution is built once and each of its
    graded slices assembled once; the F_p runs rank that slice mod p.
    Tensoring the integral resolution with F_p gives
    H_n = Tor_n^Z(R/I^s, F_p) (universal coefficients): H_0 has the
    Hilbert function of the sequence mod p, H_1 is the p-torsion of R/I^s,
    of dimension HF_p(d) - HF_Q(d), and H_n = 0 for n >= 2.  For
    unit-coefficient sequences HF_p = HF_Q and every F_p run must be
    exact like the QQ run.  ValueError if a coefficient has a prime factor
    too large to certify.
    """
    if max_internal is None:
        max_internal = default_internal_bound(spec, s)
    run_domains = [spec.domain]
    if not spec.domain.is_field:
        primes = sorted({2, 3, 5} | _coefficient_primes(spec))
        run_domains = [QQ] + [GF(p) for p in primes]
    mismatches: list[str] = []
    all_dims = homology_slice_dims(build_k_ris(spec, s), max_internal,
                                   run_domains)
    hfs = [{d: hilbert_function(spec.with_domain(dom), s, d)
            for d in range(max_internal + 1)} for dom in run_domains]
    hilbert = hfs[0]
    for dom, dims, hf in zip(run_domains, all_dims, hfs):
        for (n, d), h in sorted(dims.items()):
            if n == 0:
                if h != hf[d]:
                    mismatches.append(
                        f"[{dom}] cokernel dim at d={d} is {h}, "
                        f"Hilbert function says {hf[d]}")
                continue
            want = hf[d] - hilbert[d] if n == 1 else 0
            if h != want:
                mismatches.append(
                    f"[{dom}] homology at n={n}, d={d} has dim {h}, "
                    f"expected {want}")
    return ExactnessReport(not mismatches, s, max_internal, all_dims[0],
                           hilbert, mismatches, list(map(str, run_domains)))


# -- DGA structure ----------------------------------------------------------

def _shuffle_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of merging two increasing index tuples; 0 on overlap."""
    if set(left) & set(right):
        return 0
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


def tag_floor(a: Element) -> int:
    """tau(a): the least tag length among the labels of a nonzero a."""
    return min(len(g.tag) for g in a)


def cut(s: int, p: int, q: int) -> bool:
    """dga_multiply's cut rule for merged tags of lengths p + q; it cuts
    every term of a * b when cut(s, tag_floor(a), tag_floor(b))."""
    return p + q >= s


def dga_multiply(c: KRIsComplex, a: Element, b: Element) -> Element:
    """Product in the truncated differential graded algebra.

    Wedge the exterior parts with the shuffle sign, merge the tags; any
    term whose merged tag reaches length s is cut (it lives in I^s, which
    is zero in the quotient the complex resolves).
    """
    spec, s = c.spec, c.s
    out: Element = {}
    for g, pg in a.items():
        for h, ph in b.items():
            if cut(s, len(g.tag), len(h.tag)):
                continue
            sign = _shuffle_sign(g.exterior, h.exterior)
            if sign == 0:
                continue
            ext = tuple(sorted(g.exterior + h.exterior))
            tag = tuple(sorted(g.tag + h.tag))
            lbl = make_label(spec, ext, tag)
            term = (pg * ph).scale(sign)
            out = element_add(out, {lbl: term})
    return out


def dga_differential(c: KRIsComplex, a: Element) -> Element:
    """Differential of a (possibly mixed-degree) element."""
    out: Element = {}
    by_deg: dict[int, Element] = {}
    for g, p in a.items():
        by_deg.setdefault(g.hom_degree, {})[g] = p
    for n, part in by_deg.items():
        out = element_add(out, c.differential(n).apply(part))
    return out


def reduction_chain_map(spec: RegularSequenceSpec, s: int) -> ChainMap:
    """The projection covering R/I^s -> R/I^{s-1}: cut the top tag level."""
    if s < 2:
        raise ValueError("reduction needs s >= 2")
    return cut_top_level(build_k_ris(spec, s), build_k_ris(spec, s - 1))


def cut_top_level(big: KRIsComplex, small: KRIsComplex) -> ChainMap:
    """reduction_chain_map between complexes built on the labels (two
    resolutions, or two tensored complexes) of R/I^s and R/I^{s-1}."""
    spec, s = big.spec, big.s
    one = Polynomial.one(spec.n_vars, spec.domain)
    comps = {}
    for n in range(big.max_degree + 1):
        ent = {(g, g): one for g in big.module(n) if len(g.tag) < s - 1}
        comps[n] = SparseMap(big.module(n), small.module(n), ent,
                             spec.n_vars, spec.domain)
    return ChainMap(big, small, comps)
