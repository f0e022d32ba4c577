"""The labels e_S t_m (|S| = n in degree n, tag length < s) of the
resolution of R/I^s, the complexes written on them from a rule for their
entries (resolution.build_k_ris writes K; tensor_mod_I_complex writes
K (x) R/I, the transfer part alone), and the max-rule Morse matching
whose critical labels are the Tor generators.
"""

from __future__ import annotations

from .poly import Polynomial, RegularSequenceSpec
from .chain import Label, FreeModule, SparseMap, ChainComplex, Element
from .koszul import q_module, transfer_entries


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


def tensor_mod_I_complex(spec: RegularSequenceSpec, s: int) -> KRIsComplex:
    """K (x) R/I for K = build_k_ris(spec, s), written from its labels: R/I
    kills every boundary entry +-u_i, so it is the +-1 transfer part alone.

    It depends on (n_gens, s, degrees, domain) only.  K is the generic
    resolution of Z[y]/(y)^s base-changed along y_i -> u_i, so it is exact
    when u is regular (README, "Why only regularity depends on the
    sequence"): regularity is the only check that depends on the input.
    """
    return _on_labels(spec, s, lambda m, inner: transfer_entries(spec, inner))


def cut(s: int, p: int, q: int) -> bool:
    """resolution.dga_multiply's cut rule for merged tags of lengths p + q; it cuts
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
