"""Exact coefficient domains and sparse multivariate polynomials.

Coefficients are exact: over the rationals an ``int`` if integral and a
``Fraction`` only if not, Python ints over the integers, and canonical
residues ``0..p-1`` over a prime field.  Every Domain operation returns
that form, so +-1 and +-u_i entries stay in native ints.  A polynomial
is a dict mapping exponent tuples to nonzero coefficients; the zero
polynomial is the empty dict.  Terms serialize in descending grlex
order, so printing is canonical and ``parse.parse_poly(str(p)) == p``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add

Exponents = tuple[int, ...]


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from _MR_BOUND up."""
    if p >= _MR_BOUND:
        raise ValueError(f"cannot certify a modulus >= {_MR_BOUND} as prime")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        xs = [pow(a, d << i, p) for i in range(r)]   # a^d, a^2d, ...
        if xs[0] != 1 and p - 1 not in xs:
            return False
    return True


def _fraction(a, b=1):
    """a / b as a Fraction, importing fractions on first use."""
    from fractions import Fraction
    return Fraction(a, b)


def _rational(v):
    """Q's canonical form of an int or Fraction: an int when integral."""
    return v.numerator if v.__class__ is not int and v.denominator == 1 else v


class Domain:
    """An exact coefficient domain: 'Q', 'Z', or 'Fp' with a prime p.
    Equal and hashed by (kind, p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Q", "Z", "Fp"):
            raise ValueError(f"unknown domain kind {kind!r}")
        if kind == "Fp":
            if p is None or not _is_prime(p):
                raise ValueError(f"Fp needs a prime modulus, got {p!r}")
        elif p is not None:
            raise ValueError(f"{kind} takes no modulus")
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        if other.__class__ is not Domain:
            return NotImplemented
        return self is other or (self.kind == other.kind and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "Fp")

    @property
    def rank_field(self) -> Domain:
        """The field ranks are taken over: the domain itself if it is a
        field, the rationals over Z."""
        return self if self.is_field else QQ

    def coerce(self, value):
        """Bring an int/Fraction into this domain's canonical form."""
        if type(value) is not int:
            value = _rational(_fraction(value))
            if value.__class__ is not int and self.kind != "Q":
                if self.kind == "Z":
                    raise ValueError(f"{value} is not an integer")
                if value.denominator % self.p == 0:
                    raise ValueError(f"{value} has no residue mod {self.p}")
                return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return value % self.p if self.kind == "Fp" else value

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else _rational(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else _rational(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else _rational(a * b)

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def div(self, a, b):
        if self.kind == "Fp":
            return a * pow(b, -1, self.p) % self.p
        if a.__class__ is int and b.__class__ is int:
            q, r = divmod(a, b)
            if not r:
                return q
        if self.kind == "Q":
            return _rational(_fraction(a) / b)
        raise ValueError(f"{a} not divisible by {b} over Z")

    def coeff_str(self, a) -> str:
        return str(a)

    def __str__(self):
        return f"F{self.p}" if self.kind == "Fp" else {"Q": "QQ", "Z": "ZZ"}[self.kind]


QQ = Domain("Q")
ZZ = Domain("Z")


def GF(p: int) -> Domain:
    return Domain("Fp", p)


def parse_domain(text: str) -> Domain:
    """Parse a domain spec like 'Q', 'Z', 'Fp:5'."""
    if text == "Q":
        return QQ
    if text == "Z":
        return ZZ
    if text.startswith("Fp:"):
        return GF(int(text[3:]))
    raise ValueError(f"unknown field spec {text!r} (use Q, Z, or Fp:p)")


# ---------------------------------------------------------------------------
# Monomials: exponent tuples of fixed length.

def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def grlex_key(m: Exponents):
    """Sort key for descending graded-lex order (use with reverse=True)."""
    return (sum(m), m)


def monomials_of_degree(n_vars: int, d: int) -> list[Exponents]:
    """All exponent tuples of total degree d, in descending lex order.

    Descending lex puts x1-dominant monomials first, matching the canonical
    printed term order.
    """
    return list(_monomials(n_vars, d))


@lru_cache(maxsize=None)
def _monomials(n_vars: int, d: int) -> tuple[Exponents, ...]:
    if d < 0:
        return ()
    if n_vars == 0:
        return ((),) if d == 0 else ()
    return tuple((e1,) + rest for e1 in range(d, -1, -1)
                 for rest in _monomials(n_vars - 1, d - e1))


def count_monomials(n_vars: int, d: int) -> int:
    if d < 0:
        return 0
    return comb(n_vars + d - 1, d) if n_vars > 0 else (1 if d == 0 else 0)


class Polynomial:
    """A sparse multivariate polynomial over an exact domain.

    Immutable in practice: arithmetic returns new objects and never mutates
    the term dict after construction.
    """

    __slots__ = ("n_vars", "domain", "terms")

    def __init__(self, n_vars: int, domain: Domain, terms: dict[Exponents, object]):
        self.n_vars = n_vars
        self.domain = domain
        clean = {}
        zero = domain.zero()
        for m, c in terms.items():
            if len(m) != n_vars:
                raise ValueError(f"exponent tuple {m} has wrong length for {n_vars} vars")
            c = domain.coerce(c)
            if c != zero:
                clean[m] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, n_vars: int, domain: Domain,
                   terms: dict[Exponents, object]) -> Polynomial:
        """A polynomial on terms already in __init__'s canonical form."""
        p = object.__new__(cls)
        p.n_vars, p.domain, p.terms = n_vars, domain, terms
        return p

    @classmethod
    def zero(cls, n_vars: int, domain: Domain) -> Polynomial:
        return cls(n_vars, domain, {})

    @classmethod
    def constant(cls, n_vars: int, domain: Domain, value) -> Polynomial:
        return cls(n_vars, domain, {(0,) * n_vars: value})

    @classmethod
    def one(cls, n_vars: int, domain: Domain) -> Polynomial:
        return cls.constant(n_vars, domain, 1)

    @classmethod
    def variable(cls, n_vars: int, domain: Domain, index: int) -> Polynomial:
        """The variable x_index, 1-based."""
        if not 1 <= index <= n_vars:
            raise ValueError(f"variable x{index} out of range 1..{n_vars}")
        e = [0] * n_vars
        e[index - 1] = 1
        return cls(n_vars, domain, {tuple(e): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self):
        """The coefficient of the monomial 1 (domain zero if absent)."""
        return self.terms.get((0,) * self.n_vars, self.domain.zero())

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if inhomogeneous.

        The zero polynomial is homogeneous of every degree; returns None
        for it as well, so check is_zero() first when it matters.
        """
        degs = {sum(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def coefficient(self, m: Exponents):
        return self.terms.get(tuple(m), self.domain.zero())

    def _check_compatible(self, other: Polynomial):
        if self.domain != other.domain:
            raise ValueError(f"domain mismatch: {self.domain} vs {other.domain}")
        if self.n_vars != other.n_vars:
            raise ValueError(f"variable count mismatch: {self.n_vars} vs {other.n_vars}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_compatible(other)
        dom = self.domain
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = v = dom.add(out[m], c) if m in out else c
            if not v:
                del out[m]
        return Polynomial._canonical(self.n_vars, dom, out)

    def __neg__(self) -> Polynomial:
        dom = self.domain
        return Polynomial._canonical(
            self.n_vars, dom, {m: dom.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check_compatible(other)
        dom = self.domain
        out: dict[Exponents, object] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                c = dom.mul(ca, cb)
                out[m] = dom.add(out[m], c) if m in out else c
        return Polynomial._canonical(self.n_vars, dom,
                                     {m: c for m, c in out.items() if c})

    def scale(self, scalar) -> Polynomial:
        dom = self.domain
        c0 = dom.coerce(scalar)
        # a product of nonzero elements of a domain is nonzero
        return Polynomial._canonical(self.n_vars, dom, {
            m: dom.mul(c, c0) for m, c in self.terms.items()} if c0 else {})

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise ValueError("negative exponent")
        if k < 2:
            return self if k else Polynomial.one(self.n_vars, self.domain)
        half = self ** (k >> 1)             # square and multiply
        return half * half * self if k & 1 else half * half

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.n_vars == other.n_vars
                and self.domain == other.domain and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n_vars, self.domain, frozenset(self.terms.items())))

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, object]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                       for i, e in enumerate(m) if e != 0]
            neg = self.domain.kind != "Fp" and c < 0
            mag = -c if neg else c
            if not factors:
                body = self.domain.coeff_str(mag)
            elif mag == self.domain.one():
                body = "*".join(factors)
            else:
                body = "*".join([self.domain.coeff_str(mag)] + factors)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self}, vars={self.n_vars}, dom={self.domain})"


# ---------------------------------------------------------------------------
# Regular sequences.

class RegularSequenceSpec:
    """A homogeneous sequence u_1..u_n in k[x1..x_nvars] generating the ideal.

    The built-in monomial shapes (variables, prime-power variables) are
    regular.  Explicit sequences are accepted as asserted-by-user;
    homology.regularity_defect rejects one that is too long, one with as
    many generators as variables that is not regular over Q, and one with
    fewer on which the Koszul homology probe finds homology.  Equal and
    hashed by all six fields.
    """

    __slots__ = ("n_vars", "domain", "gens", "degrees", "kind", "powers")

    def __init__(self, n_vars: int, domain: Domain,
                 gens: tuple[Polynomial, ...], degrees: tuple[int, ...],
                 kind: str, powers: tuple[int, ...] | None = None):
        self.n_vars = n_vars
        self.domain = domain
        self.gens = gens
        self.degrees = degrees
        self.kind = kind            # 'variables' | 'powers' | 'explicit'
        self.powers = powers

    def _fields(self) -> tuple:
        return (self.n_vars, self.domain, self.gens, self.degrees, self.kind,
                self.powers)

    def __eq__(self, other):
        if other.__class__ is not RegularSequenceSpec:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @property
    def n_gens(self) -> int:
        return len(self.gens)

    @property
    def monomial_regime(self) -> bool:
        """True when every generator is x_i^{a_i} (normal forms are monomial)."""
        return self.kind in ("variables", "powers")

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @classmethod
    def variables(cls, n_vars: int, domain: Domain = QQ) -> RegularSequenceSpec:
        if n_vars < 1:
            raise ValueError("need at least one generator")
        gens = tuple(Polynomial.variable(n_vars, domain, i + 1) for i in range(n_vars))
        return cls(n_vars, domain, gens, (1,) * n_vars, "variables",
                   powers=(1,) * n_vars)

    @classmethod
    def variable_powers(cls, exponents: tuple[int, ...],
                        domain: Domain = QQ) -> RegularSequenceSpec:
        if len(exponents) < 1:
            raise ValueError("need at least one generator")
        if any(a < 1 for a in exponents):
            raise ValueError("powers must be >= 1")
        n = len(exponents)
        gens = tuple(Polynomial.variable(n, domain, i + 1) ** a
                     for i, a in enumerate(exponents))
        return cls(n, domain, gens, tuple(exponents), "powers",
                   powers=tuple(exponents))

    @classmethod
    def explicit(cls, polys: list[Polynomial]) -> RegularSequenceSpec:
        if len(polys) < 1:
            raise ValueError("need at least one generator")
        n_vars, domain = polys[0].n_vars, polys[0].domain
        degrees = []
        for u in polys:
            if u.n_vars != n_vars or u.domain != domain:
                raise ValueError("generators live in different rings")
            if u.is_zero():
                raise ValueError("zero polynomial in sequence")
            d = u.homogeneous_degree()
            if d is None:
                raise ValueError(f"inhomogeneous generator {u}")
            if d < 1:
                raise ValueError(f"generator {u} has degree 0")
            degrees.append(d)
        return cls(n_vars, domain, tuple(polys), tuple(degrees), "explicit")

    def with_domain(self, domain: Domain) -> RegularSequenceSpec:
        """The same sequence with coefficients coerced into another domain
        (itself if the domain is unchanged)."""
        if domain == self.domain:
            return self
        gens = tuple(Polynomial(u.n_vars, domain, dict(u.terms)) for u in self.gens)
        return RegularSequenceSpec(self.n_vars, domain, gens, self.degrees,
                                   self.kind, self.powers)
