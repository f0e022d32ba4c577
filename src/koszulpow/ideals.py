"""Graded pieces of powers of the ideal: membership, Hilbert functions,
canonical residues, and subquotients I^a/I^b.

Everything is slicewise: a homogeneous degree-d piece of R, of I^s, or of
I^a/I^b is a finite-dimensional vector space with the degree-d monomials
as coordinates.  Two regimes.  When the generators are variable powers
x_i^{a_i} the monomials themselves split into inside/outside I^s and no
linear algebra is needed.  For a general homogeneous sequence, (I^s)_d is
the column span of the multiplication matrix {mu * u_m} over degree-s tags
m: its dimension comes from a sparse rank of those columns, and residues
come from echelon reduction against that span.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .poly import (Polynomial, Domain, RegularSequenceSpec,
                   monomials_of_degree, count_monomials, mono_mul)
from .linalg import Echelon, dense_row, solve, sparse_rank

Tag = tuple[int, ...]


def tags_of_length(n_gens: int, s: int) -> list[Tag]:
    """Weakly increasing s-tuples from {1..n_gens}: the degree-s monomials
    in the generators, in ascending lex order.  s=0 gives the empty tag."""
    if s < 0:
        return []
    return list(combinations_with_replacement(range(1, n_gens + 1), s))


def tag_degree(spec: RegularSequenceSpec, tag: Tag) -> int:
    return sum(spec.degrees[i - 1] for i in tag)


def tag_product(spec: RegularSequenceSpec, tag: Tag) -> Polynomial:
    """The polynomial u_m = u_{i1} * ... * u_{is} for the tag m."""
    out = Polynomial.one(spec.n_vars, spec.domain)
    for i in tag:
        out = out * spec.gens[i - 1]
    return out


def monomial_in_power(spec: RegularSequenceSpec, expo: tuple[int, ...],
                      s: int) -> bool:
    """Is the monomial x^expo in I^s?  Monomial regime only.

    With u_i = x_i^{a_i}, a monomial lies in I^s iff its exponents supply
    s full generator factors: sum_i floor(alpha_i / a_i) >= s.
    """
    if not spec.monomial_regime:
        raise ValueError("membership by exponents needs the monomial regime")
    return sum(e // a for e, a in zip(expo, spec.powers)) >= s


def power_span_columns(spec: RegularSequenceSpec, s: int, d: int):
    """Spanning vectors of (I^s)_d, sparse, with what they are.

    One (tag m of length s, monomial mu of degree d - deg u_m, column) per
    spanning vector, in (tag, monomial) enumeration order: the column is
    mu * u_m as a dict degree-d monomial index -> nonzero coefficient.
    """
    index = {m: i for i, m in enumerate(monomials_of_degree(spec.n_vars, d))}
    for tag in tags_of_length(spec.n_gens, s):
        um = tag_product(spec, tag)
        rem = d - tag_degree(spec, tag)
        for mu in monomials_of_degree(spec.n_vars, rem):
            yield tag, mu, {index[mono_mul(mon, mu)]: c
                            for mon, c in um.terms.items()}


def power_span_vectors(spec: RegularSequenceSpec, s: int, d: int):
    """Dense form of power_span_columns: degree-d monomial coordinates."""
    n, zero = count_monomials(spec.n_vars, d), spec.domain.zero()
    return [dense_row(col, n, zero)
            for _, _, col in power_span_columns(spec, s, d)]


def hilbert_function(spec: RegularSequenceSpec, s: int, d: int) -> int:
    """dim_k (R/I^s)_d, computed without any chain complex.

    Monomial regime: count degree-d monomials outside I^s.  General
    regime: dim R_d minus the rank of the degree-d multiplication matrix
    whose columns span (I^s)_d.
    """
    if d < 0:
        return 0
    if spec.monomial_regime:
        return sum(1 for m in monomials_of_degree(spec.n_vars, d)
                   if not monomial_in_power(spec, m, s))
    cols = [col for _, _, col in power_span_columns(spec, s, d)]
    return (count_monomials(spec.n_vars, d)
            - sparse_rank(cols, spec.domain.rank_field))


class PowerReducer:
    """Canonical residues modulo I^s.

    reduce() maps a polynomial to the unique normal-form representative of
    its class in R/I^s: in the monomial regime the terms inside I^s are
    dropped; otherwise each homogeneous component is echelon-reduced
    against a computed basis of (I^s)_d.  General-regime reduction needs a
    field (use with_domain to lift a ZZ spec to QQ first).
    """

    def __init__(self, spec: RegularSequenceSpec, s: int):
        if s < 0:
            raise ValueError("power must be >= 0")
        if not spec.monomial_regime and not spec.domain.is_field:
            raise ValueError("general-regime reduction needs a field domain")
        self.spec = spec
        self.s = s
        self._ech: dict[int, Echelon] = {}

    def echelon(self, d: int) -> Echelon:
        """Reduced echelon basis of (I^s)_d, built once per degree."""
        if d not in self._ech:
            ech = Echelon(self.spec.domain)
            for v in power_span_vectors(self.spec, self.s, d):
                ech.insert(v)
            self._ech[d] = ech
        return self._ech[d]

    def reduce(self, poly: Polynomial) -> Polynomial:
        spec = self.spec
        if spec.monomial_regime:
            kept = {m: c for m, c in poly.terms.items()
                    if not monomial_in_power(spec, m, self.s)}
            return Polynomial(poly.n_vars, poly.domain, kept)
        out = Polynomial.zero(poly.n_vars, poly.domain)
        for d in sorted({sum(m) for m in poly.terms}):
            monos = monomials_of_degree(spec.n_vars, d)
            v = [poly.terms.get(m, poly.domain.zero()) for m in monos]
            r = self.echelon(d).reduce(v)
            out = out + Polynomial(poly.n_vars, poly.domain,
                                   {m: c for m, c in zip(monos, r)})
        return out

    def is_member(self, poly: Polynomial) -> bool:
        return self.reduce(poly).is_zero()


class SubquotientModule:
    """The graded module I^a/I^b (0 <= a < b), slicewise.

    Each degree-d piece gets a fixed basis of residue classes, represented
    by monomial-coordinate vectors of polynomials in (I^a)_d independent
    modulo (I^b)_d.  project() writes the class of a polynomial in that
    basis; action() gives the matrix of multiplication by a homogeneous
    ring element, which is what makes maps into this module R-linear
    rather than a loose family of slice matrices.
    """

    def __init__(self, spec: RegularSequenceSpec, a: int, b: int):
        if not 0 <= a < b:
            raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
        self.spec = spec.with_domain(spec.domain.rank_field)
        self.a = a
        self.b = b
        self._power_b = PowerReducer(self.spec, b)
        self._cache: dict[int, tuple] = {}

    @property
    def domain(self) -> Domain:
        return self.spec.domain

    def _slice(self, d: int):
        """(basis vectors, the same reduced modulo (I^b)_d, echelon of
        (I^b)_d) for degree d."""
        if d in self._cache:
            return self._cache[d]
        ech_b = self._power_b.echelon(d)
        basis = []
        seen = ech_b.copy()
        for v in power_span_vectors(self.spec, self.a, d):
            if seen.insert(v):
                basis.append(v)
        self._cache[d] = (basis, [ech_b.reduce(v) for v in basis], ech_b)
        return self._cache[d]

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return len(self._slice(d)[0])

    def basis_polynomials(self, d: int) -> list[Polynomial]:
        basis = self._slice(d)[0]
        monos = monomials_of_degree(self.spec.n_vars, d)
        return [Polynomial(self.spec.n_vars, self.domain,
                           {m: c for m, c in zip(monos, v)}) for v in basis]

    def project(self, poly: Polynomial, d: int) -> list:
        """Coordinates of [poly] in the degree-d basis.

        poly must be homogeneous of degree d and lie in I^a modulo I^b;
        otherwise this raises.
        """
        if not poly.is_zero() and poly.homogeneous_degree() != d:
            raise ValueError(f"expected homogeneous of degree {d}, got {poly}")
        _, reduced, ech_b = self._slice(d)
        monos = monomials_of_degree(self.spec.n_vars, d)
        v = ech_b.reduce([poly.terms.get(m, 0) for m in monos])
        coords = solve([list(r) for r in zip(*reduced)], v, self.domain)
        if coords is None:
            raise ValueError(f"{poly} does not lie in the subquotient slice")
        return coords

    def element(self, coords: list, d: int) -> Polynomial:
        """A representative polynomial for given coordinates."""
        out = Polynomial.zero(self.spec.n_vars, self.domain)
        for c, b in zip(coords, self.basis_polynomials(d)):
            out = out + b.scale(c)
        return out

    def action(self, f: Polynomial, d: int) -> list[list]:
        """Matrix of multiplication by homogeneous f from degree d to
        degree d + deg f (columns = images of the degree-d basis)."""
        if f.is_zero():
            raise ValueError("action needs a nonzero multiplier")
        df = f.homogeneous_degree()
        if df is None:
            raise ValueError(f"action needs a homogeneous multiplier, got {f}")
        cols = [self.project(f * b, d + df) for b in self.basis_polynomials(d)]
        nr = self.dim(d + df)
        return [[col[i] for col in cols] for i in range(nr)]
