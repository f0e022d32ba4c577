import random
import time
from fractions import Fraction

import pytest

from koszulpow.poly import (Domain, QQ, ZZ, GF, parse_domain, Polynomial,
                            _is_prime,
                            parse_poly, ParseError, RegularSequenceSpec,
                            monomials_of_degree, count_monomials)


def random_polynomial(rng, n_vars, domain, max_degree=3, n_terms=4):
    """Small random polynomial for property tests (deterministic given rng);
    the other test modules import it from here."""
    terms = {}
    for _ in range(rng.randrange(n_terms + 1)):
        d = rng.randrange(max_degree + 1)
        monos = monomials_of_degree(n_vars, d)
        m = monos[rng.randrange(len(monos))]
        terms[m] = terms.get(m, 0) + rng.randrange(-9, 10)
    return Polynomial(n_vars, domain, terms)


def P(text, n=2, dom=QQ):
    return parse_poly(text, n, dom)


class TestDomain:
    def test_kinds(self):
        assert QQ.is_field and not ZZ.is_field and GF(5).is_field

    def test_value_semantics(self):
        a, b = Domain("Fp", 5), GF(5)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, GF(7), Domain("Q"), QQ}) == 3
        assert a != GF(7) and QQ != ZZ and QQ != "Q"

    def test_rank_field(self):
        assert QQ.rank_field == QQ and ZZ.rank_field == QQ
        assert GF(5).rank_field == GF(5)

    def test_bad_domains(self):
        with pytest.raises(ValueError):
            Domain("R")
        with pytest.raises(ValueError):
            Domain("Fp", 4)
        with pytest.raises(ValueError):
            Domain("Fp")
        with pytest.raises(ValueError):
            Domain("Q", 5)

    def test_coerce(self):
        assert QQ.coerce(3) == Fraction(3)
        assert ZZ.coerce(Fraction(4, 2)) == 2
        with pytest.raises(ValueError):
            ZZ.coerce(Fraction(1, 2))
        assert GF(5).coerce(-1) == 4
        assert type(ZZ.coerce(-7)) is int and ZZ.coerce(-7) == -7
        assert ZZ.coerce(True) == 1 and type(ZZ.coerce(True)) is int
        assert GF(5).coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5

    def test_q_scalars_are_ints_unless_proper_fractions(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [(QQ.coerce(3), 3), (QQ.coerce(Fraction(4, 2)), 2),
                 (QQ.coerce(True), 1), (QQ.coerce(half), half),
                 (QQ.add(half, half), 1), (QQ.add(1, 2), 3),
                 (QQ.add(third, 1), Fraction(4, 3)),
                 (QQ.sub(Fraction(3, 2), half), 1), (QQ.sub(half, 1), -half),
                 (QQ.mul(Fraction(2, 3), Fraction(3, 2)), 1),
                 (QQ.mul(2, Fraction(1, 4)), half), (QQ.mul(-3, 5), -15),
                 (QQ.div(4, 2), 2), (QQ.div(1, 2), half),
                 (QQ.div(half, Fraction(1, 4)), 2),
                 (QQ.div(third, 2), Fraction(1, 6)),
                 (QQ.zero(), 0), (QQ.one(), 1), (QQ.neg(half), -half)]
        for got, want in cases:
            assert got == want
            assert type(got) is (int if Fraction(want).denominator == 1
                                 else Fraction), (got, want)

    def test_q_operations_never_leave_int_or_fraction(self):
        rng = random.Random(11)
        values = [0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-3, 4),
                  Fraction(5, 3), Fraction(-7, 6)]
        ops = (QQ.add, QQ.sub, QQ.mul, QQ.div, lambda a, b: QQ.coerce(a))
        for _ in range(500):
            a, b = rng.choice(values), rng.choice(values[1:])
            for op in ops:
                got = op(a, b)
                exact = Fraction(got)
                assert type(got) is (int if exact.denominator == 1
                                     else Fraction)

    def test_fp_ops(self):
        F = GF(7)
        assert F.add(5, 4) == 2
        assert F.mul(3, 5) == 1
        assert F.div(1, 3) == 5
        assert F.neg(2) == 5

    def test_q_scalars_stay_native_ints(self):
        # an exact quotient of ints is an int, an inexact one a Fraction
        assert type(QQ.div(12, -4)) is int and QQ.div(12, -4) == -3
        assert type(QQ.div(3, 6)) is Fraction and QQ.div(3, 6) == Fraction(1, 2)
        assert type(QQ.coerce(Fraction(4, 2))) is int
        assert QQ.coerce(Fraction(4, 2)) == 2

    def test_bad_denominators_are_value_errors(self):
        with pytest.raises(ValueError, match="no residue mod 3"):
            GF(3).coerce(Fraction(1, 3))
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly("1/0*x1", 2)

    def test_z_div_exact_only(self):
        assert ZZ.div(6, 3) == 2
        with pytest.raises(ValueError):
            ZZ.div(5, 3)

    def test_parse_domain(self):
        assert parse_domain("Q") == QQ
        assert parse_domain("Z") == ZZ
        assert parse_domain("Fp:11") == GF(11)
        with pytest.raises(ValueError):
            parse_domain("GF9")
        with pytest.raises(ValueError):
            parse_domain("Fp:6")


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


class TestIsPrime:
    def test_matches_trial_division_below_ten_thousand(self):
        assert [n for n in range(10 ** 4) if _is_prime(n)] == \
            [n for n in range(10 ** 4) if trial_division_is_prime(n)]

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2047])
    def test_carmichael_and_base_two_pseudoprimes(self, n):
        # 561, 1105, 1729 are Carmichael numbers; 2047 = 23 * 89 is a
        # strong pseudoprime to base 2
        assert not _is_prime(n)

    def test_large_primes_and_composites(self):
        assert _is_prime(1000000000000000003)
        assert _is_prime(2 ** 61 - 1)
        assert not _is_prime(1000000007 * 998244353)
        assert not _is_prime(3215031751)     # strong pseudoprime to 2, 3, 5, 7

    def test_modulus_beyond_the_certified_bound_rejected(self):
        with pytest.raises(ValueError):
            _is_prime(3317044064679887385961981)
        with pytest.raises(ValueError):
            GF(2 ** 89 - 1)


class TestMonomials:
    def test_enumeration_order(self):
        # descending lex within a degree
        assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert monomials_of_degree(2, 0) == [(0, 0)]
        assert monomials_of_degree(2, -1) == []

    def test_counts(self):
        for n in range(1, 5):
            for d in range(6):
                assert len(monomials_of_degree(n, d)) == count_monomials(n, d)


class TestArithmetic:
    def test_product_difference_of_squares(self):
        assert P("x1+x2") * P("x1-x2") == P("x1^2-x2^2")

    def test_fp_product(self):
        # (x1+2)(x1+1) = x1^2 + 3x1 + 2 = x1^2 + 2 over F_3
        F3 = GF(3)
        assert P("(x1+2)*(x1+1)", 1, F3) == P("x1^2+2", 1, F3)

    def test_power_expansion(self):
        assert P("(x1+x2)^2") == P("x1^2 + 2*x1*x2 + x2^2")

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(7)], ids=str)
    def test_power_is_the_repeated_product(self, dom):
        base = P("x1+2*x2-x3", 3, dom)
        product = Polynomial.one(3, dom)
        for k in range(8):
            assert base ** k == product
            product = product * base

    def test_huge_exponent_parses_fast(self):
        start = time.perf_counter()
        p = P("x1^1000000000000")
        assert time.perf_counter() - start < 0.05
        assert p.terms == {(10 ** 12, 0): 1}

    def test_zero_handling(self):
        z = P("x1") - P("x1")
        assert z.is_zero() and z.terms == {}
        assert str(z) == "0"

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            P("x1", 2, QQ) + P("x1", 3, QQ)
        with pytest.raises(ValueError):
            P("x1", 2, QQ) + P("x1", 2, ZZ)

    def test_degree_queries(self):
        assert P("x1^2*x2 + x2^3").homogeneous_degree() == 3
        assert P("x1 + x2^2").homogeneous_degree() is None
        assert P("x1^2*x2 + x2").total_degree() == 3
        assert Polynomial.zero(2, QQ).total_degree() == -1

    def test_ring_axioms_random(self):
        for dom in (QQ, ZZ, GF(5)):
            rng = random.Random(42)
            for _ in range(500):
                a = random_polynomial(rng, 2, dom)
                b = random_polynomial(rng, 2, dom)
                c = random_polynomial(rng, 2, dom)
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) * c == a * c + b * c
                assert (a * b) * c == a * (b * c)
                assert a - a == Polynomial.zero(2, dom)


class TestPrinting:
    def test_canonical_order(self):
        # degree descending, then lex descending within a degree
        assert str(P("x2^2 + x1*x2 + x1^2 + x2 + x1 + 1")) == \
            "x1^2 + x1*x2 + x2^2 + x1 + x2 + 1"

    def test_signs_and_units(self):
        assert str(P("x1^2*x2 - 3*x3", 3)) == "x1^2*x2 - 3*x3"
        assert str(P("-x1 + x2")) == "-x1 + x2"
        assert str(P("-1 - x1")) == "-x1 - 1"

    def test_rational_coeffs(self):
        p = P("1/2*x1 + 3/4")
        assert str(p) == "1/2*x1 + 3/4"
        assert parse_poly(str(p), 2) == p
        assert type(p.coefficient((1, 0))) is Fraction

    def test_integral_literal_is_an_int(self):
        p = P("4/2*x1 - 6/3 + 1/3*x2")
        assert p.terms == {(1, 0): 2, (0, 0): -2, (0, 1): Fraction(1, 3)}
        assert {m: type(c) for m, c in p.terms.items()} == \
            {(1, 0): int, (0, 0): int, (0, 1): Fraction}
        assert str(p) == "2*x1 + 1/3*x2 - 2"
        assert parse_poly(str(p), 2) == p
        q = P("1/2*x1") * P("2*x2") + P("3/2") - P("1/2")
        assert q.terms == {(1, 1): 1, (0, 0): 1}
        assert all(type(c) is int for c in q.terms.values())

    def test_fp_prints_residues(self):
        assert str(P("-x1", 1, GF(5))) == "4*x1"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for dom in (QQ, ZZ, GF(7)):
            for _ in range(200):
                p = random_polynomial(rng, 3, dom)
                assert parse_poly(str(p), 3, dom) == p


class TestParser:
    def test_precedence(self):
        assert P("2*x1^2") == P("2*(x1^2)")
        assert P("x1+x2*x1") == P("x1") + P("x2") * P("x1")
        assert P("-x1^2", 1) == -(P("x1", 1) ** 2)

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse_poly("x1 + + x2", 2)
        assert e.value.pos == 5
        with pytest.raises(ParseError) as e:
            parse_poly("x1 @ x2", 2)
        assert e.value.pos == 3
        with pytest.raises(ParseError):
            parse_poly("(x1 + x2", 2)
        with pytest.raises(ParseError):
            parse_poly("x1 x2", 2)  # missing operator

    def test_var_out_of_range(self):
        with pytest.raises(ParseError):
            parse_poly("x4", 3)
        with pytest.raises(ParseError):
            parse_poly("x0", 3)

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("x1^-2", 2)

    def test_bare_x_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x + 1", 2)


class TestRegularSequenceSpec:
    def test_variables(self):
        s = RegularSequenceSpec.variables(3)
        assert s.n_gens == 3 and s.monomial_regime
        assert [str(u) for u in s.gens] == ["x1", "x2", "x3"]
        assert s.degrees == (1, 1, 1)

    def test_powers(self):
        s = RegularSequenceSpec.variable_powers((2, 3))
        assert s.degrees == (2, 3) and s.monomial_regime
        assert str(s.gens[1]) == "x2^3"

    def test_explicit(self):
        polys = [P("x1^2 + x2^2"), P("x1*x2")]
        s = RegularSequenceSpec.explicit(polys)
        assert s.degrees == (2, 2)
        assert not s.monomial_regime

    def test_explicit_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            RegularSequenceSpec.explicit([P("x1 + x2^2")])

    def test_explicit_rejects_zero_and_constant(self):
        with pytest.raises(ValueError):
            RegularSequenceSpec.explicit([Polynomial.zero(2, QQ)])
        with pytest.raises(ValueError):
            RegularSequenceSpec.explicit([P("3")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RegularSequenceSpec.variables(0)
        with pytest.raises(ValueError):
            RegularSequenceSpec.variable_powers(())
        with pytest.raises(ValueError):
            RegularSequenceSpec.variable_powers((0, 1))
        with pytest.raises(ValueError):
            RegularSequenceSpec.explicit([])

    def test_with_domain(self):
        s = RegularSequenceSpec.variables(2).with_domain(GF(3))
        assert s.domain == GF(3)
        assert s.gens[0].domain == GF(3)

    def test_with_same_domain_is_itself(self):
        s = RegularSequenceSpec.variables(2, ZZ)
        assert s.with_domain(ZZ) is s
