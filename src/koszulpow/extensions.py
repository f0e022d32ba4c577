"""Splicing resolutions along a short exact sequence, and extension-class
representatives by graded lifting.

Given resolutions P of the quotient module and Q of the submodule, plus a
connecting family del_n: P_n -> Q_{n-1} anticommuting with the two
differentials, the spliced complex (P + Q)_n with d(x, y) =
(d_P x, del x + d_Q y) resolves the middle module.  Splicing the
tag-level columns one at a time, starting from the exterior-algebra
complex, rebuilds the glued resolution exactly; that reconstruction is
the point of this module and is checked entry by entry.

The extension class of 0 -> L -> M -> N -> 0 is represented concretely:
lift the augmentation P_0 -> N of a resolution of N through M, push the
lift across the differential, and pull back along the injection to get a
map P_1 -> L.  That map is a cocycle; the extension is split exactly when
it factors through d_P, which is again a finite linear solve.
"""

from __future__ import annotations

from .poly import Polynomial, RegularSequenceSpec
from .linalg import rank_dense, solve, mat_mul, mat_vec
from .chain import (FreeModule, SparseMap, ChainComplex, zero_map,
                    verify_complex, _nonzero_source)
from .ideals import SubquotientModule
from .koszul import q_complex, transfer_entries, koszul_complex


# ---------------------------------------------------------------------------
# Graded short exact sequences, slicewise.

class SESReport:
    __slots__ = ("ok", "max_internal", "failures")

    def __init__(self, ok: bool, max_internal: int, failures: list):
        self.ok = ok
        self.max_internal = max_internal
        self.failures = failures        # (internal degree, message)

    def summary(self) -> str:
        if self.ok:
            return f"slicewise exact up to internal degree {self.max_internal}"
        d, msg = self.failures[0]
        return f"exactness fails at internal degree {d}: {msg}"


class GradedSES:
    """0 -> sub -> middle -> quotient -> 0, presented one internal degree
    at a time.

    sub and quotient are I^a/I^b subquotients; the middle is either
    another subquotient (with the canonical projection maps) or, in the
    split model, the direct sum sub + quotient.  All slice data lives over
    the subquotients' coefficient field.
    """

    def __init__(self, spec: RegularSequenceSpec, sub: SubquotientModule,
                 quotient: SubquotientModule,
                 mid: SubquotientModule | None = None,
                 description: str = ""):
        self.spec = spec
        self.sub = sub
        self.quotient = quotient
        self.mid = mid
        self.split = mid is None
        self.description = description

    @property
    def field(self):
        return self.sub.domain

    def dim_sub(self, d: int) -> int:
        return self.sub.dim(d)

    def dim_quotient(self, d: int) -> int:
        return self.quotient.dim(d)

    def dim_mid(self, d: int) -> int:
        if self.split:
            return self.sub.dim(d) + self.quotient.dim(d)
        return self.mid.dim(d)

    def injection_matrix(self, d: int) -> list[list]:
        l, zero = self.dim_sub(d), self.field.zero()
        if self.split:
            one = self.field.one()
            rows = [[one if i == j else zero for j in range(l)]
                    for i in range(l)]
            rows += [[zero] * l for _ in range(self.dim_quotient(d))]
            return rows
        cols = [self.mid.project(b, d) for b in self.sub.basis_polynomials(d)]
        return [[col[i] for col in cols] for i in range(self.dim_mid(d))]

    def surjection_matrix(self, d: int) -> list[list]:
        n, zero = self.dim_quotient(d), self.field.zero()
        if self.split:
            one = self.field.one()
            l = self.dim_sub(d)
            return [[zero] * l + [one if i == j else zero for j in range(n)]
                    for i in range(n)]
        cols = [self.quotient.project(b, d)
                for b in self.mid.basis_polynomials(d)]
        return [[col[i] for col in cols] for i in range(n)]

    def mid_action(self, f: Polynomial, d: int) -> list[list]:
        """Multiplication by homogeneous f on the middle module's slices."""
        if not self.split:
            return self.mid.action(f, d)
        ca, cb, zero = self.sub.dim(d), self.quotient.dim(d), self.field.zero()
        return ([list(r) + [zero] * cb for r in self.sub.action(f, d)]
                + [[zero] * ca + list(r) for r in self.quotient.action(f, d)])

    def verify(self, max_internal: int) -> SESReport:
        """Slicewise rank conditions: injective, surjective, composite
        zero, dimensions exact in the middle."""
        failures = []
        fd = self.field
        for d in range(max_internal + 1):
            l, m, n = self.dim_sub(d), self.dim_mid(d), self.dim_quotient(d)
            inj = self.injection_matrix(d)
            surj = self.surjection_matrix(d)
            if rank_dense(inj, l, fd) != l:
                failures.append((d, "injection has a kernel"))
            if rank_dense(surj, m, fd) != n:
                failures.append((d, "surjection misses part of the quotient"))
            comp = mat_mul(surj, inj, fd)
            if any(x != fd.zero() for row in comp for x in row):
                failures.append((d, "composite map is nonzero"))
            if l + n != m:
                failures.append(
                    (d, f"middle dimension {m} is not {l} + {n}"))
        return SESReport(not failures, max_internal, failures)


def power_ses(spec: RegularSequenceSpec, s: int) -> GradedSES:
    """The defining sequence of the splice step: the top graded piece
    injects into R/I^s and the quotient is R/I^(s-1)."""
    if s < 2:
        raise ValueError("power sequence needs s >= 2")
    return GradedSES(spec,
                     SubquotientModule(spec, s - 1, s),
                     SubquotientModule(spec, 0, s - 1),
                     mid=SubquotientModule(spec, 0, s),
                     description=f"I^{s - 1}/I^{s} -> R/I^{s} -> R/I^{s - 1}")


def split_power_ses(spec: RegularSequenceSpec, s: int) -> GradedSES:
    """Same outer terms, but the middle is the direct sum: the split
    control case whose extension class must come out trivial."""
    if s < 2:
        raise ValueError("power sequence needs s >= 2")
    return GradedSES(spec,
                     SubquotientModule(spec, s - 1, s),
                     SubquotientModule(spec, 0, s - 1),
                     mid=None,
                     description=f"split I^{s - 1}/I^{s} (+) R/I^{s - 1}")


# ---------------------------------------------------------------------------
# Connecting maps and splicing.

class ConnectingMap:
    """Degree -1 family del_n: P_n -> Q_{n-1} between two complexes."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 maps: dict):
        self.source = source            # P
        self.target = target            # Q
        self.maps = maps                # n -> SparseMap

    def component(self, n: int) -> SparseMap:
        f = self.maps.get(n)
        if f is not None:
            return f
        return zero_map(self.source.module(n), self.target.module(n - 1),
                        self.source.n_vars, self.source.domain)

    def scaled(self, n: int, c) -> ConnectingMap:
        """Copy with one component scaled: test fixture for corruption."""
        maps = dict(self.maps)
        maps[n] = self.component(n).scale(c)
        return ConnectingMap(self.source, self.target, maps)


class ConnectingReport:
    __slots__ = ("ok", "checked", "failures")

    def __init__(self, ok: bool, checked: int, failures: list):
        self.ok = ok
        self.checked = checked
        self.failures = failures        # (degree, witness Label)

    def summary(self) -> str:
        if self.ok:
            return f"compatibility holds ({self.checked} degrees checked)"
        n, w = self.failures[0]
        return f"compatibility fails at degree {n}, witness {w}"


def verify_connecting(P: ChainComplex, Q: ChainComplex,
                      delta: ConnectingMap) -> ConnectingReport:
    """The splice identity: d_Q after del_n plus del_{n-1} after d_P
    vanishes for every n >= 1.  Checked symbolically."""
    failures = []
    checked = 0
    top = max(P.max_degree, Q.max_degree + 1)
    for n in range(1, top + 1):
        checked += 1
        w = _nonzero_source((Q.differential(n - 1), delta.maps.get(n)),
                            (delta.maps.get(n - 1), P.differential(n)))
        if w is not None:
            failures.append((n, w))
    return ConnectingReport(not failures, checked, failures)


def splice(P: ChainComplex, Q: ChainComplex,
           delta: ConnectingMap) -> ChainComplex:
    """Resolution of the middle module: modules P_n + Q_n, differential
    d(x, y) = (d_P x, del x + d_Q y).

    The compatibility identity is verified first (violation raises, with
    the failing degree and witness); the output is verified to square to
    zero.  Generator labels of P and Q must be disjoint; the union is
    sorted in the standard label order.
    """
    if P.n_vars != Q.n_vars or P.domain != Q.domain:
        raise ValueError("complexes live over different rings")
    rep = verify_connecting(P, Q, delta)
    if not rep.ok:
        n, w = rep.failures[0]
        raise ValueError(f"connecting map breaks compatibility at degree {n} "
                         f"(witness {w})")
    top = max(P.max_degree, Q.max_degree)
    modules = {}
    for n in range(top + 1):
        labels = sorted(tuple(P.module(n)) + tuple(Q.module(n)),
                        key=lambda g: g.sort_key)
        modules[n] = FreeModule(tuple(labels))
    diffs = {}
    for n in range(1, top + 1):
        ent = {**P.differential(n).entries, **Q.differential(n).entries,
               **delta.component(n).entries}
        diffs[n] = SparseMap(modules[n], modules[n - 1], ent,
                             P.n_vars, P.domain)
    out = ChainComplex(P.n_vars, P.domain, modules, diffs)
    chk = verify_complex(out)
    if not chk.ok:
        raise ValueError(f"spliced differential does not square to zero: "
                         f"{chk.detail}")
    return out


def power_connecting(spec: RegularSequenceSpec, P: ChainComplex,
                     level: int) -> ConnectingMap:
    """The connecting family for the splice step onto tag level `level`:
    the transfer out of level-1 sources, routed into the new top column.
    No lifting search; the construction supplies the map."""
    Q = q_complex(spec, level)
    maps = {}
    for n in range(1, P.max_degree + 1):
        src_mod = P.module(n)
        top = FreeModule(tuple(g for g in src_mod
                               if len(g.tag) == level - 1))
        ent = transfer_entries(spec, top)
        maps[n] = SparseMap(src_mod, Q.module(n - 1), ent,
                            spec.n_vars, spec.domain)
    return ConnectingMap(P, Q, maps)


def iterated_splice(spec: RegularSequenceSpec, s: int) -> ChainComplex:
    """Rebuild the glued resolution by splicing one tag column at a time,
    starting from the exterior-algebra complex; each column is built once."""
    if s < 1:
        raise ValueError("power must be >= 1")
    c = koszul_complex(spec)
    for j in range(1, s):
        delta = power_connecting(spec, c, j)
        c = splice(c, delta.target, delta)
    return c


# ---------------------------------------------------------------------------
# Extension-class representatives.

class ThetaReport:
    __slots__ = ("description", "cocycle_ok", "image_coords", "images",
                 "trivial", "witness")

    def __init__(self, description: str, cocycle_ok: bool,
                 image_coords: dict, images: dict, trivial: bool,
                 witness: list | None):
        self.description = description
        self.cocycle_ok = cocycle_ok
        self.image_coords = image_coords  # P_1 generator Label -> sub coords
        self.images = images            # P_1 generator Label -> str
        self.trivial = trivial
        self.witness = witness          # coords of phi(1) when trivial

    def lines(self) -> list[str]:
        out = [f"theta: {'trivial' if self.trivial else 'nontrivial'}"]
        for g in sorted(self.images):
            out.append(f"eps1({g}) = [{self.images[g]}]")
        out.append(f"cocycle: {'ok' if self.cocycle_ok else 'FAIL'}")
        if self.trivial and self.witness is not None:
            out.append(f"coboundary witness coords: {self.witness}")
        return out


def _to_field(poly: Polynomial, dom) -> Polynomial:
    if poly.domain == dom:
        return poly
    return Polynomial(poly.n_vars, dom, dict(poly.terms))


def theta_representative(P: ChainComplex, ses: GradedSES) -> ThetaReport:
    """Extension-class representative of the sequence against a resolution
    P of its quotient module.

    P must start from a single degree-0 generator (its augmentation sends
    that generator to the unit class).  The lift of the augmentation
    through the middle module and its pullback to the submodule are
    generator-level linear solves, so the resulting map P_1 -> sub is
    R-linear by construction.  Verified: the map vanishes on boundaries
    from P_2; the class is trivial exactly when the map factors through
    d_P, searched for over the degree-0 slice of the submodule.
    """
    fd = ses.field
    if P.module(0).dim != 1 or P.module(0).labels[0].ideg != 0:
        raise ValueError("need a resolution with one degree-0 generator")
    unit = P.module(0).labels[0]
    # lift the augmentation: surjection(eps0) = class of 1
    aug = ses.quotient.project(Polynomial.one(ses.sub.spec.n_vars, fd), 0)
    eps0 = solve(ses.surjection_matrix(0), aug, fd)
    if eps0 is None:
        raise ValueError("lifting infeasible: unit class has no preimage")

    d1_cols = P.differential(1).columns()
    image_coords = {}
    for g in P.module(1):
        m_dim = ses.dim_mid(g.ideg)
        img = [fd.zero()] * m_dim
        for tgt, poly in d1_cols[g]:
            if tgt != unit:
                raise ValueError("resolution is not single-sourced at degree 0")
            step = mat_vec(ses.mid_action(_to_field(poly, fd), 0), eps0, fd)
            img = [fd.add(a, b) for a, b in zip(img, step)]
        y = solve(ses.injection_matrix(g.ideg), img, fd)
        if y is None:
            raise ValueError(f"lifting infeasible: image of {g} misses the "
                             f"submodule")
        image_coords[g] = y

    # cocycle: the representative kills every boundary out of P_2
    cocycle_ok = True
    d2_cols = P.differential(2).columns() if P.module(2).dim else {}
    for h in P.module(2):
        acc = [fd.zero()] * ses.dim_sub(h.ideg)
        for g, poly in d2_cols[h]:
            step = mat_vec(ses.sub.action(_to_field(poly, fd), g.ideg),
                           image_coords[g], fd)
            acc = [fd.add(a, b) for a, b in zip(acc, step)]
        if any(x != fd.zero() for x in acc):
            cocycle_ok = False

    # triviality: a degree-0 map phi with phi(d_P x) matching the
    # representative; unknowns are the coords of phi(1) in the submodule
    rows, rhs = [], []
    l0 = ses.dim_sub(0)
    for g in P.module(1):
        mat = [[fd.zero()] * l0 for _ in range(ses.dim_sub(g.ideg))]
        for _, poly in d1_cols[g]:
            step = ses.sub.action(_to_field(poly, fd), 0)
            mat = [[fd.add(a, b) for a, b in zip(r1, r2)]
                   for r1, r2 in zip(mat, step)]
        rows.extend(mat)
        rhs.extend(image_coords[g])
    witness = solve(rows, rhs, fd) if rows else []
    images = {g: str(ses.sub.element(c, g.ideg))
              for g, c in image_coords.items()}
    return ThetaReport(ses.description, cocycle_ok, image_coords, images,
                       witness is not None, witness)
