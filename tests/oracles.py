"""Independent Tor oracle, sharing no code with the package under test.

Route: resolve the base quotient by the exterior-algebra complex, tensor
with the power quotient, and take slice-by-slice homology with a local
Gaussian elimination.  The package computes the same ranks from a
resolution of the power quotient instead, so agreement between the two
routes is a genuine cross-check, not a replay of the same computation.

Scope is the variables regime (the ideal generated by all variables):
every graded slice then has a monomial basis and the base quotient is the
ground field, so Tor ranks are plain slice-homology dimensions.  There
they are also known in closed form (betti_closed_form), a route that
reads no complex at all.
"""

from fractions import Fraction
from itertools import combinations
from math import comb


def monomials(n_vars: int, d: int) -> list[tuple[int, ...]]:
    if d < 0:
        return []
    if n_vars == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in monomials(n_vars - 1, d - first):
            out.append((first,) + rest)
    return out


def rank(mat: list[list]) -> int:
    """Gaussian elimination over the rationals, local on purpose."""
    rows = [[Fraction(x) for x in r] for r in mat]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for i in range(rk, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        prow = rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rk += 1
    return rk


def _slice_basis(n_vars: int, s: int, p: int, d: int):
    """Pairs (wedge subset, monomial) spanning the degree-d slice of the
    p-th term of (exterior complex) tensor (power quotient)."""
    if not 0 <= p <= n_vars:
        return []
    return [(S, m)
            for S in combinations(range(1, n_vars + 1), p)
            for m in monomials(n_vars, d - p)
            if sum(m) <= s - 1]


def _diff_matrix(n_vars: int, s: int, p: int, d: int) -> list[list]:
    """Slice of the p-th differential: drop a wedge index, multiply the
    monomial by that variable, kill anything landing in the power."""
    cols = _slice_basis(n_vars, s, p, d)
    rows = _slice_basis(n_vars, s, p - 1, d)
    idx = {key: i for i, key in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, (S, m) in enumerate(cols):
        for k, i in enumerate(S):
            bumped = tuple(e + 1 if v == i - 1 else e
                           for v, e in enumerate(m))
            if sum(bumped) <= s - 1:
                key = (tuple(x for x in S if x != i), bumped)
                mat[idx[key]][j] += (-1) ** k
    return mat


def tor_ranks(n_vars: int, s: int) -> tuple[int, ...]:
    """Tor of the base quotient against the power quotient, by homological
    degree.  Internal degrees above n_vars + s - 1 carry nothing."""
    top_d = n_vars + s - 1
    out = []
    for p in range(n_vars + 1):
        total = 0
        for d in range(top_d + 1):
            dim = len(_slice_basis(n_vars, s, p, d))
            if dim == 0:
                continue
            r_out = rank(_diff_matrix(n_vars, s, p, d))
            r_in = rank(_diff_matrix(n_vars, s, p + 1, d))
            total += dim - r_out - r_in
        out.append(total)
    return tuple(out)


def q_dims_formula(spec, s: int) -> tuple[int, ...]:
    """Ranks C(n,p)*C(n+s-1,s) of the tag-level-s complex on n generators,
    per homological degree p."""
    n = spec.n_gens
    return tuple(comb(n, p) * comb(n + s - 1, s) for p in range(n + 1))


def e1_rank_formula(n_gens: int, p: int, q: int) -> int:
    """Rank of page-1 cell (p, q): C(n,q)*C(n+p-1,p)."""
    return comb(n_gens, q) * comb(n_gens + p - 1, p)


def betti_closed_form(n_vars: int, s: int) -> tuple[int, ...]:
    """The same ranks in closed form, with no elimination at all:
    beta_q = C(n+s-1, s+q-1) * C(s+q-2, q-1) for q >= 1 and beta_0 = 1,
    the Betti numbers of the s-th power of the maximal ideal
    (Eagon-Northcott; Buchsbaum-Eisenbud)."""
    return (1,) + tuple(
        comb(n_vars + s - 1, s + q - 1) * comb(s + q - 2, q - 1)
        for q in range(1, n_vars + 1))


def critical_cell_counts(n_gens: int, s: int) -> tuple[int, ...]:
    """The critical cells of the max-rule matching on K (x) R/I, counted by
    the largest index j of the exterior set S with |S| = q: S - {j} is a
    (q-1)-subset of {1..j-1} and the tag a multiset of s-1 indices <= j,
    so beta_q = sum_j C(j-1, q-1) * C(j+s-2, s-1), and beta_0 = 1 for the
    empty label.  Hockey-stick summation turns it into betti_closed_form."""
    return (1,) + tuple(
        sum(comb(j - 1, q - 1) * comb(j + s - 2, s - 1)
            for j in range(1, n_gens + 1))
        for q in range(1, n_gens + 1))
