"""The free resolution of R/I^s: direct sum of tag-level complexes glued
by the transfer maps, with augmentation, graded exactness verification,
the truncated DGA product, the reduction map to the s-1 resolution, and
the max-rule Morse matching whose critical labels are the Tor generators.

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
from .chain import (Label, make_label, FreeModule, SparseMap, ChainComplex,
                    ChainMap, graded_slice, Element, element_add)
from .koszul import q_module, boundary_entries, transfer_entries


class KRIsComplex(ChainComplex):
    """ChainComplex plus the parameters it was built from."""

    def __init__(self, spec: RegularSequenceSpec, s: int, modules, diffs):
        super().__init__(spec.n_vars, spec.domain, modules, diffs)
        self.spec = spec
        self.s = s


def resolution_module(spec: RegularSequenceSpec, s: int, n: int) -> FreeModule:
    """Degree-n module: all e_S t_m with |S| = n over tag levels p < s, in
    Label order: the q_module cells by p, which leads the sort key."""
    return FreeModule(tuple(g for p in range(s) for g in q_module(spec, p, n)))


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
        inner = tuple(g for g in modules[q] if len(g.tag) < s - 1)
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


# every integral check (exactness, divisor certificate) reruns modulo these
PROBE_PRIMES = (2, 3, 5)


def verify_exactness(spec: RegularSequenceSpec, s: int,
                     max_internal: int | None = None) -> ExactnessReport:
    """Check the complex resolves R/I^s, slice by slice, on the Morse
    complex M of K, which has K's homology (README, "Why `verify` ranks
    the Morse complex"); a failed certificate on K is the one mismatch.

    Positive homological degrees must vanish in every internal degree up
    to the bound; the degree-0 cokernel dims must equal the independent
    Hilbert function.  Over ZZ the check runs over QQ and the prime fields
    F_p for p in PROBE_PRIMES and every prime dividing a coefficient of a
    generator.  K and M are built once and each slice of M assembled
    once; the F_p runs rank that slice mod p.
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
        primes = sorted({*PROBE_PRIMES, *_coefficient_primes(spec)})
        run_domains = [QQ] + [GF(p) for p in primes]
    hfs = [{d: hilbert_function(spec.with_domain(dom), s, d)
            for d in range(max_internal + 1)} for dom in run_domains]
    hilbert = hfs[0]
    morse = MorseMatching(build_k_ris(spec, s), s, tensored=False)
    if morse.failure is not None:
        return ExactnessReport(False, s, max_internal, {}, hilbert,
                               [f"Morse matching on K: {morse.failure}"],
                               list(map(str, run_domains)))
    mismatches: list[str] = []
    all_dims = homology_slice_dims(morse.complex(), max_internal, run_domains)
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


def cut(s: int, p: int, q: int) -> bool:
    """dga_multiply's cut rule for merged tags of lengths p + q; it cuts
    every term of a * b when it cuts the least tag lengths of a and b."""
    return p + q >= s


# -- Morse matching on K and on K (x) R/I -----------------------------------

def _max_rule_mate(g: Label, s: int) -> Label | None:
    """g = (S, m) is matched down to (S - max S, m + max S) if S is
    nonempty, max S >= max m and |m| < s - 1, up to (S + max m, m - max m)
    if max m > max S; None if g is critical."""
    ext, tag = g.exterior, g.tag
    top_e, top_t = (ext or (0,))[-1], (tag or (0,))[-1]
    if ext and top_e >= top_t and len(tag) < s - 1:
        return Label(ext[:-1], tag + (top_e,), g.ideg)
    if top_t > top_e:
        return Label(ext + (top_t,), tag[:-1], g.ideg)
    return None


def _on_a_cycle(succ: dict) -> Label | None:
    """A node on a cycle of the directed graph succ (node -> successors),
    by iterative depth-first search, or None."""
    state: dict = {}                       # 1 on the path, 2 done
    for root in succ:
        stack = [] if root in state else [(root, iter(succ[root]))]
        state.setdefault(root, 1)
        while stack:
            node, rest = stack[-1]
            nxt = next(rest, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state.get(nxt) == 1:
                return nxt
            elif nxt not in state:
                state[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
    return None


class MorseMatching:
    """The max-rule acyclic matching on a complex t on the labels of K, the
    resolution of R/I^s, or of K (x) R/I if tensored (algebraic Morse theory:
    Joellenbeck-Welker, Mem. AMS 197, 2009; Skoeldberg, Trans. AMS 358, 2006).

    critical[n] lists the unmatched degree-n labels in module order: the
    empty label and those with |m| = s - 1, S nonempty, max S >= max m.
    pairs[n] counts the pairs matched from degree n down to n - 1.
    failure is None if the certificate holds on t's own entries, else its
    first failing label and check: each label is critical or its mate is
    a label of t matched back to it, each matched entry is +-1, no
    zig-zag path is a cycle (so t ~ complex(), for every input), and,
    when tensored, each critical cell has zero differential.  Then H(t)
    is free on the critical cells over Z and every field, and d_n has
    rank pairs[n] and pairs[n] elementary divisors, all 1.  The Morse
    projection keeps t's own coefficients, polynomials in t.domain, on K
    and on K (x) R/I alike; tensored, it rejects a non-constant one."""

    __slots__ = ("t", "tensored", "critical", "pairs", "failure", "_mate",
                 "_memo")

    def __init__(self, t: ChainComplex, s: int, tensored: bool = True):
        self.t, self.tensored, self._mate, self._memo = t, tensored, {}, {}
        self.critical = [[] for _ in range(t.max_degree + 1)]
        self.pairs = [0] * (t.max_degree + 1)
        one = Polynomial.one(t.n_vars, t.domain)
        mate_of, fails = self._mate, []
        # zig-zag graph: a label matched down points to the mate of each
        # other label matched up that its differential meets
        succ: dict[Label, list[Label]] = {}
        for n in range(t.max_degree + 1):
            cols = t.differential(n).columns()
            for g in t.module(n):
                mate = _max_rule_mate(g, s)
                if mate is None:
                    self.critical[n].append(g)
                    if tensored and cols[g]:
                        fails.append(f"{g}: critical, nonzero differential")
                    continue
                down = len(mate.exterior) < n
                if mate not in t.module(n - 1 if down else n + 1) or \
                        _max_rule_mate(mate, s) != g:
                    fails.append(f"{g}: mate {mate} not matched back")
                    continue
                mate_of[g] = mate
                if down:
                    self.pairs[n] += 1
                    entry = dict(cols[g]).get(mate)
                    if entry not in (one, -one):
                        fails.append(f"{g}: matched entry {entry or 0} to "
                                     f"{mate} is not +-1")
                    succ[g] = [mate_of[h] for h, _ in cols[g] if h != mate
                               and len(mate_of.get(h, h).exterior) == n]
        cycle = None if fails else _on_a_cycle(succ)
        if cycle is not None:
            fails.append(f"{cycle}: on a zig-zag cycle")
        self.failure = fails[0] if fails else None

    def project(self, elt: Element) -> Element:
        """pi: elt as its nonzero coordinates on the critical cells, in t's
        ring; when tensored, ValueError on a non-constant coefficient."""
        out: Element = {}
        for g, p in elt.items():
            if self.tensored and not p.is_constant():
                raise ValueError(
                    f"non-constant coefficient {p} in tensored element")
            for h, v in self._pi(g).items():
                out[h] = out[h] + p * v if h in out else p * v
        return {h: v for h, v in out.items() if not v.is_zero()}

    def _pi(self, g: Label) -> Element:
        """pi of one label, memoized: e_g on a critical cell, 0 on a label
        matched down, and on a label matched up to sigma the class of
        g - d(sigma) / e, e = [d sigma : g], which lies on other labels."""
        got = self._memo.get(g)
        if got is None:
            mate = self._mate.get(g)
            if mate is None:
                got = {g: Polynomial.one(self.t.n_vars, self.t.domain)}
            elif len(mate.exterior) < len(g.exterior):
                got = {}
            elif self.failure is not None:
                raise ValueError(f"no Morse projection: {self.failure}")
            else:
                col = self.t.differential(len(mate.exterior)).columns()[mate]
                e = dict(col)[g].constant_value()       # +-1, so 1/e = e
                got = self.project({h: p.scale(-e) for h, p in col if h != g})
            self._memo[g] = got
        return got

    def complex(self) -> ChainComplex:
        """The Morse complex on the critical cells, d(c) = pi(d c), with t's
        coefficients; ValueError if the certificate failed."""
        t, mods = self.t, [FreeModule(tuple(c)) for c in self.critical]
        return ChainComplex(t.n_vars, t.domain, dict(enumerate(mods)), {
            n: SparseMap(mods[n], mods[n - 1], {
                (h, c): v for c in mods[n] for h, v in
                self.project(dict(t.differential(n).columns()[c])).items()},
                t.n_vars, t.domain) for n in range(1, len(mods))})


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
            out[lbl] = out[lbl] + term if lbl in out else term
            if out[lbl].is_zero():
                del out[lbl]
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
    big, small = build_k_ris(spec, s), build_k_ris(spec, s - 1)
    one = Polynomial.one(spec.n_vars, spec.domain)
    comps = {}
    for n in range(big.max_degree + 1):
        ent = {(g, g): one for g in big.module(n) if len(g.tag) < s - 1}
        comps[n] = SparseMap(big.module(n), small.module(n), ent,
                             spec.n_vars, spec.domain)
    return ChainMap(big, small, comps)
