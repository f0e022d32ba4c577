"""The exterior-algebra resolution, its tag-twisted companions, and the
transfer maps that move a wedge factor into the tag.

For a sequence u_1..u_n, the base complex has basis {e_S} over increasing
subsets S with boundary e_S -> sum (-1)^(k-1) u_{ik} e_{S\\ik}.  Tensoring
with the free module on length-s tags gives the complex resolving the
s-th graded piece I^s/I^(s+1): same boundary, tags inert.  The transfer
map lowers exterior degree by one while appending the removed index to
the tag, with the same alternating sign but coefficient 1.  Each map is
one tuple rule, read by its entries and by verify_identities alike.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .poly import Polynomial, RegularSequenceSpec
from .ideals import tags_of_length
from .chain import (Label, make_label, FreeModule, SparseMap, ChainComplex,
                    EMPTY_MODULE)


def exterior_subsets(n: int, p: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), p))


def q_module(spec: RegularSequenceSpec, s: int, p: int) -> FreeModule:
    """Free module with basis {e_S t_m : |S| = p, |m| = s}, tag-major: in
    Label order, since tags and exterior subsets come out lex ascending."""
    if p < 0 or p > spec.n_gens or s < 0:
        return EMPTY_MODULE
    return FreeModule(tuple(make_label(spec, ext, tag)
                            for tag in tags_of_length(spec.n_gens, s)
                            for ext in exterior_subsets(spec.n_gens, p)))


@cache
def boundary_rule(exterior: tuple[int, ...]) -> tuple:
    """The boundary of e_S as terms (S \\ i, sign, i), each sign * u_i
    e_{S\\i}; tags ride along.  Kept per S, of which there are 2^n."""
    return tuple((exterior[:k] + exterior[k + 1:], -1 if k & 1 else 1, i)
                 for k, i in enumerate(exterior))


def transfer_rule(exterior: tuple[int, ...], tag: tuple[int, ...]) -> list:
    """The transfer of e_S t_m as terms (S \\ i, sort(m + i), sign): the
    boundary's, with u_i moved into the tag and coefficient the sign."""
    return [(rest, tuple(sorted(tag + (i,))), sign)
            for rest, sign, i in boundary_rule(exterior)]


def boundary_entries(spec: RegularSequenceSpec, source: FreeModule) -> dict:
    """The boundary_rule's entries +-u_i out of source.  Removing index i
    lowers the internal degree by deg u_i."""
    signed = [{1: u, -1: -u} for u in spec.gens]
    return {(Label(rest, src.tag, src.ideg - spec.degrees[i - 1]), src):
            signed[i - 1][sign]
            for src in source for rest, sign, i in boundary_rule(src.exterior)}


def transfer_entries(spec: RegularSequenceSpec, source) -> dict:
    """The transfer_rule's entries +-1 out of the labels in source.  The
    index moves, so the internal degree stays."""
    one = Polynomial.one(spec.n_vars, spec.domain)
    signed = {1: one, -1: -one}
    return {(Label(rest, tag, src.ideg), src): signed[sign]
            for src in source
            for rest, tag, sign in transfer_rule(src.exterior, src.tag)}


def q_complex(spec: RegularSequenceSpec, s: int) -> ChainComplex:
    """The tag-twisted complex: boundary acts on e only.  s=0 is the plain
    exterior-algebra complex."""
    n = spec.n_gens
    modules = {p: q_module(spec, s, p) for p in range(n + 1)}
    diffs = {}
    for p in range(1, n + 1):
        ent = boundary_entries(spec, modules[p])
        diffs[p] = SparseMap(modules[p], modules[p - 1], ent,
                             spec.n_vars, spec.domain)
    return ChainComplex(spec.n_vars, spec.domain, modules, diffs)


def koszul_complex(spec: RegularSequenceSpec) -> ChainComplex:
    return q_complex(spec, 0)


def del_map(spec: RegularSequenceSpec, s: int) -> dict[int, SparseMap]:
    """The transfer family out of tag-level s: homological degree p maps
    to degree p-1 at tag-level s+1, for p = 1..n."""
    if s < 0:
        raise ValueError("tag level must be >= 0")
    out = {}
    for p in range(1, spec.n_gens + 1):
        src, tgt = q_module(spec, s, p), q_module(spec, s + 1, p - 1)
        out[p] = SparseMap(src, tgt, transfer_entries(spec, src),
                           spec.n_vars, spec.domain)
    return out


class IdentityReport:
    __slots__ = ("ok", "checked", "failures")

    def __init__(self, ok: bool, checked: int, failures: list):
        self.ok = ok
        self.checked = checked
        # (identity name, tag level, degree, witness Label)
        self.failures = failures

    def summary(self) -> str:
        if self.ok:
            return f"identities ok ({self.checked} compositions checked)"
        name, r, p, w = self.failures[0]
        return f"{name} fails at tag level {r}, degree {p}, witness {w}"


def verify_identities(spec: RegularSequenceSpec, s_max: int) -> IdentityReport:
    """Check that the transfer anticommutes with the boundary and squares
    to zero across tag levels below s_max, on the rules with y_i for u_i:
    per source, a sum of signs keyed by (target, i) for the y_i terms of
    boundary after transfer plus transfer after boundary, one keyed by
    target for transfer after transfer.  A sum that vanishes over Z[y]
    stays zero with u_i for y_i, so no map or polynomial is built."""
    failures = []
    n, coerce = spec.n_gens, spec.domain.coerce
    transfer = cache(transfer_rule)     # each term is reread; kept this call
    for r in range(s_max):
        for p in range(1, n + 1):
            anti = square = None
            # sources in Label order, so the first failure is the least
            for tag in tags_of_length(n, r):
                for ext in exterior_subsets(n, p):
                    dd, tt = {}, {}
                    for rest, mid, a in transfer(ext, tag):
                        for tgt, b, i in boundary_rule(rest):
                            dd[tgt, mid, i] = dd.get((tgt, mid, i), 0) + a * b
                        for tgt, top, b in transfer(rest, mid):
                            tt[tgt, top] = tt.get((tgt, top), 0) + a * b
                    for rest, a, i in boundary_rule(ext):
                        for tgt, mid, b in transfer(rest, tag):
                            dd[tgt, mid, i] = dd.get((tgt, mid, i), 0) + a * b
                    # nonzero in the domain: over F_p a sum may be p
                    if anti is None and any(map(coerce, dd.values())):
                        anti = make_label(spec, ext, tag)
                    if square is None and any(map(coerce, tt.values())):
                        square = make_label(spec, ext, tag)
            failures += [(name, r, p, w) for name, w in (
                ("anticommute", anti), ("square-zero", square)) if w]
    return IdentityReport(not failures, 2 * n * max(s_max, 0), failures)
