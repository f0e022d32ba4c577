"""Canonical residues modulo I^s and subquotients I^a/I^b, slicewise.

A degree-d piece of I^s is the span of the columns ideals.power_span_columns
writes; here they are dense vectors on the degree-d monomials, reduced to
echelon form.  In the monomial regime residues need no linear algebra.
"""

from __future__ import annotations

from .poly import (Polynomial, Domain, RegularSequenceSpec,
                   monomials_of_degree, count_monomials)
from .linalg import Echelon, dense_row, solve
from .ideals import monomial_in_power, power_span_columns


def power_span_vectors(spec: RegularSequenceSpec, s: int, d: int):
    """Dense form of power_span_columns: degree-d monomial coordinates."""
    n, zero = count_monomials(spec.n_vars, d), spec.domain.zero()
    return [dense_row(col, n, zero)
            for _, _, col in power_span_columns(spec, s, d)]


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
