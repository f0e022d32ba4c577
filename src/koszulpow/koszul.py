"""The exterior-algebra resolution, its tag-twisted companions, and the
transfer maps that move a wedge factor into the tag.

For a sequence u_1..u_n, the base complex has basis {e_S} over increasing
subsets S with boundary e_S -> sum (-1)^(k-1) u_{ik} e_{S\\ik}.  Tensoring
with the free module on length-s tags gives the complex resolving the
s-th graded piece I^s/I^(s+1): same boundary, tags inert.  The transfer
map lowers exterior degree by one while appending the removed index to
the tag, with the same alternating sign but coefficient 1.
"""

from __future__ import annotations

from itertools import combinations

from .poly import Polynomial, RegularSequenceSpec
from .ideals import tags_of_length
from .chain import (Label, make_label, FreeModule, SparseMap, ChainComplex,
                    EMPTY_MODULE, _nonzero_source)


def exterior_subsets(n: int, p: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), p))


def q_module(spec: RegularSequenceSpec, s: int, p: int) -> FreeModule:
    """Free module with basis {e_S t_m : |S| = p, |m| = s}, tag-major order."""
    if p < 0 or p > spec.n_gens or s < 0:
        return EMPTY_MODULE
    labels = [make_label(spec, ext, tag)
              for tag in tags_of_length(spec.n_gens, s)
              for ext in exterior_subsets(spec.n_gens, p)]
    labels.sort(key=lambda g: g.sort_key)
    return FreeModule(tuple(labels))


def boundary_entries(spec: RegularSequenceSpec, source: FreeModule) -> dict:
    """Koszul boundary on the exterior part; tags ride along unchanged.
    Removing index i lowers the internal degree by deg u_i."""
    signed = [(u, -u) for u in spec.gens]
    ent = {}
    for src in source:
        for k, i in enumerate(src.exterior):
            rest = src.exterior[:k] + src.exterior[k + 1:]
            tgt = Label(rest, src.tag, src.ideg - spec.degrees[i - 1])
            ent[(tgt, src)] = signed[i - 1][k & 1]
    return ent


def transfer_entries(spec: RegularSequenceSpec, source: FreeModule) -> dict:
    """Move one wedge factor into the tag: e_S t_m -> sum of signed
    e_{S\\i} t_{sort(m+i)}; all matrix entries are +-1.  The index moves,
    so the internal degree stays."""
    one = Polynomial.one(spec.n_vars, spec.domain)
    signed = (one, -one)
    ent = {}
    for src in source:
        for k, i in enumerate(src.exterior):
            rest = src.exterior[:k] + src.exterior[k + 1:]
            tag = tuple(sorted(src.tag + (i,)))
            ent[(Label(rest, tag, src.ideg), src)] = signed[k & 1]
    return ent


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


def del_map(spec: RegularSequenceSpec, s: int,
            source: ChainComplex | None = None,
            target: ChainComplex | None = None) -> dict[int, SparseMap]:
    """The transfer family out of tag-level s: homological degree p maps
    to degree p-1 at tag-level s+1, for p = 1..n, on the modules of source
    = q_complex(spec, s) and target = q_complex(spec, s + 1) if given."""
    if s < 0:
        raise ValueError("tag level must be >= 0")
    out = {}
    for p in range(1, spec.n_gens + 1):
        src = source.module(p) if source else q_module(spec, s, p)
        tgt = target.module(p - 1) if target else q_module(spec, s + 1, p - 1)
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
    """Check, symbolically, that the transfer anticommutes with the
    boundary and squares to zero across tag levels below s_max.  Each
    (tag level, degree) module is built once per call."""
    failures = []
    checked = 0
    n = spec.n_gens
    bnds = {r: q_complex(spec, r) for r in range(s_max + 1)}
    dels = {r: del_map(spec, r, bnds[r], bnds.get(r + 1))
            for r in range(s_max + 1)}
    for r in range(s_max):
        for p in range(1, n + 1):
            # boundary after transfer + transfer after boundary = 0
            checked += 1
            witness = _nonzero_source(
                (bnds[r + 1].differential(p - 1), dels[r][p]),
                (dels[r].get(p - 1), bnds[r].differential(p)))
            if witness is not None:
                failures.append(("anticommute", r, p, witness))
            # transfer composed with transfer = 0  (source at tag level r)
            checked += 1
            witness = _nonzero_source((dels[r + 1].get(p - 1), dels[r][p]))
            if witness is not None:
                failures.append(("square-zero", r, p, witness))
    return IdentityReport(not failures, checked, failures)
