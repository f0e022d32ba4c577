"""Graded pieces of powers of the ideal: tags, membership and Hilbert
functions (quotients builds residues and subquotients on them).

A degree-d piece of R or of I^s has the degree-d monomials as coordinates.
If the generators are variable powers x_i^{a_i}, the monomials split into
inside/outside I^s with no linear algebra; otherwise (I^s)_d is the column
span of {mu * u_m} over degree-s tags m, and its dimension a sparse rank.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .poly import (Polynomial, RegularSequenceSpec, monomials_of_degree,
                   count_monomials, mono_mul)
from .linalg import sparse_rank

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
