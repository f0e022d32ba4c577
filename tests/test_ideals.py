import random
from fractions import Fraction
from math import comb

import pytest

from koszulpow.poly import (QQ, ZZ, GF, RegularSequenceSpec, parse_poly,
                            count_monomials)
from test_linalg import reference_rref
from koszulpow.linalg import Echelon
from koszulpow.ideals import (tags_of_length, tag_degree, tag_product,
                              monomial_in_power, hilbert_function,
                              power_span_vectors, PowerReducer,
                              SubquotientModule)


def vars_spec(n):
    return RegularSequenceSpec.variables(n)


def P(text, n=2, dom=QQ):
    return parse_poly(text, n, dom)


class TestEchelon:
    def test_rank_matches_dense(self):
        rng = random.Random(5)
        for _ in range(200):
            vecs = [[rng.randint(-3, 3) for _ in range(5)]
                    for _ in range(rng.randint(0, 6))]
            ech = Echelon(QQ)
            for v in vecs:
                ech.insert(v)
            assert ech.rank == len(reference_rref(vecs, 5, QQ)[1])

    def test_reduce_is_canonical(self):
        ech = Echelon(QQ)
        ech.insert([1, 2, 0])
        ech.insert([0, 0, 3])
        # residue has zeros at pivot positions 0 and 2
        assert ech.reduce([5, 7, 9]) == [0, -3, 0]
        assert ech.contains([2, 4, 6])
        assert not ech.contains([0, 1, 0])

    def test_insert_reports_growth(self):
        ech = Echelon(GF(5))
        assert ech.insert([1, 2])
        assert not ech.insert([2, 4])
        assert ech.insert([0, 1])


class TestTags:
    def test_pinned_enumeration(self):
        assert tags_of_length(2, 2) == [(1, 1), (1, 2), (2, 2)]
        assert tags_of_length(2, 0) == [()]
        assert len(tags_of_length(3, 2)) == 6

    def test_counts(self):
        for n in range(1, 5):
            for s in range(5):
                assert len(tags_of_length(n, s)) == comb(n + s - 1, s)

    def test_tag_product_and_degree(self):
        s = RegularSequenceSpec.variable_powers((2, 3))
        assert str(tag_product(s, (1, 2))) == "x1^2*x2^3"
        assert tag_degree(s, (1, 2)) == 5
        assert tag_degree(s, ()) == 0


class TestMembership:
    def test_variables(self):
        s = vars_spec(2)
        assert monomial_in_power(s, (1, 1), 2)
        assert not monomial_in_power(s, (1, 0), 2)
        assert monomial_in_power(s, (0, 0), 0)

    def test_powers(self):
        s = RegularSequenceSpec.variable_powers((2, 2))
        # x1^3*x2 has floor(3/2) + floor(1/2) = 1 generator factor
        assert monomial_in_power(s, (3, 1), 1)
        assert not monomial_in_power(s, (3, 1), 2)
        assert monomial_in_power(s, (2, 2), 2)

    def test_needs_monomial_regime(self):
        s = RegularSequenceSpec.explicit([P("x1+x2")])
        with pytest.raises(ValueError):
            monomial_in_power(s, (1, 0), 1)


class TestHilbert:
    def test_variables_s2(self):
        s = vars_spec(2)
        assert [hilbert_function(s, 2, d) for d in range(5)] == [1, 2, 0, 0, 0]

    def test_variables_s1(self):
        s = vars_spec(3)
        assert [hilbert_function(s, 1, d) for d in range(3)] == [1, 0, 0]

    def test_s0_is_zero_module(self):
        s = vars_spec(2)
        assert all(hilbert_function(s, 0, d) == 0 for d in range(4))

    def test_monomial_vs_rank_routes_agree(self):
        # same sequence through both regimes: x1^2, x2^2
        mono = RegularSequenceSpec.variable_powers((2, 2))
        generic = RegularSequenceSpec.explicit([P("x1^2"), P("x2^2")])
        for s in (1, 2, 3):
            for d in range(9):
                assert hilbert_function(mono, s, d) == \
                    hilbert_function(generic, s, d)

    def test_degree_shape_only(self):
        # for a regular sequence the Hilbert function of R/I depends only
        # on generator degrees: (x1+x2, x1*x2) vs (x1, x2^2)
        a = RegularSequenceSpec.explicit([P("x1+x2"), P("x1*x2")])
        b = RegularSequenceSpec.variable_powers((1, 2))
        for d in range(8):
            assert hilbert_function(a, 1, d) == hilbert_function(b, 1, d)
        assert [hilbert_function(a, 1, d) for d in range(4)] == [1, 1, 0, 0]

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(2), GF(5)], ids=str)
    def test_general_regime_matches_echelon_count(self, dom):
        # the sparse rank of the span columns against the dense echelon
        # count; includes a torsion sequence whose rank drops mod 2
        field = dom if dom.is_field else QQ
        for texts in (["x1+2*x2-x3", "x2-x3", "x3"],
                      ["x1^2+x2*x3", "x2^2-2*x1*x3"],
                      ["2*x1", "x2+x3"]):
            spec = RegularSequenceSpec.explicit(
                [parse_poly(t, 3, ZZ) for t in texts]).with_domain(dom)
            for s in (1, 2, 3):
                for d in range(6):
                    ech = Echelon(field)
                    for v in power_span_vectors(spec, s, d):
                        ech.insert(v)
                    assert hilbert_function(spec, s, d) == \
                        count_monomials(3, d) - ech.rank


class TestPowerReducer:
    def test_monomial_regime(self):
        red = PowerReducer(vars_spec(2), 2)
        assert red.reduce(P("x1^2 + x1 + 1")) == P("x1 + 1")
        assert red.is_member(P("x1*x2"))
        assert not red.is_member(P("x1"))

    def test_general_regime(self):
        spec = RegularSequenceSpec.explicit([P("x1^2"), P("x2^2")])
        red = PowerReducer(spec, 1)
        assert red.is_member(P("x1^2 + x2^2"))
        assert red.reduce(P("x1^2 + x1*x2")) == P("x1*x2")

    def test_routes_agree_on_random_input(self):
        rng = random.Random(9)
        mono = PowerReducer(RegularSequenceSpec.variable_powers((2, 2)), 2)
        gen = PowerReducer(
            RegularSequenceSpec.explicit([P("x1^2"), P("x2^2")]), 2)
        from test_poly import random_polynomial
        for _ in range(100):
            p = random_polynomial(rng, 2, QQ, max_degree=5)
            assert mono.is_member(p) == gen.is_member(p)
            # canonical forms agree too: the span echelon pivots on the
            # same monomial coordinates the monomial rule drops
            assert mono.reduce(p) == gen.reduce(p)


class TestSubquotient:
    def test_I_mod_I2_dims(self):
        m = SubquotientModule(vars_spec(2), 1, 2)
        assert [m.dim(d) for d in range(4)] == [0, 2, 0, 0]

    def test_R_mod_I2_matches_hilbert(self):
        s = vars_spec(2)
        m = SubquotientModule(s, 0, 2)
        for d in range(5):
            assert m.dim(d) == hilbert_function(s, 2, d)

    def test_I2_mod_I3_dims(self):
        m = SubquotientModule(vars_spec(2), 2, 3)
        assert [m.dim(d) for d in range(5)] == [0, 0, 3, 0, 0]

    def test_project_and_element(self):
        m = SubquotientModule(vars_spec(2), 1, 2)
        assert m.project(P("x1"), 1) == [Fraction(1), Fraction(0)]
        assert m.project(P("x2"), 1) == [Fraction(0), Fraction(1)]
        assert m.element([2, 3], 1) == P("2*x1 + 3*x2")

    def test_project_rejects_outsiders(self):
        m = SubquotientModule(vars_spec(2), 1, 2)
        with pytest.raises(ValueError):
            m.project(P("1"), 0)

    def test_project_reduces_only_its_argument(self, monkeypatch):
        # a built slice keeps its basis reduced modulo (I^b)_d, so one
        # projection reduces one vector, whatever the slice's dimension
        spec = RegularSequenceSpec.explicit(
            [P(t, 3) for t in ("x1^2+x2*x3", "x2^2-2*x1*x3")])
        m = SubquotientModule(spec, 0, 1)
        basis = m.basis_polynomials(2)
        assert len(basis) == 4
        ech_b = PowerReducer(m.spec, 1).echelon(2)
        assert ech_b.rank == 2
        calls = []
        real = Echelon.reduce

        def reduce(ech, v):
            if ech.rows == ech_b.rows:          # a reduction modulo I_2
                calls.append(v)
            return real(ech, v)
        monkeypatch.setattr(Echelon, "reduce", reduce)
        for i, b in enumerate(basis):
            assert m.project(b, 2) == [int(j == i) for j in range(4)]
        assert len(calls) == len(basis)

    def test_action_matrix(self):
        m = SubquotientModule(vars_spec(2), 0, 2)
        # x1 * 1 = x1, written in the degree-1 basis {x1, x2}
        assert m.action(P("x1"), 0) == [[Fraction(1)], [Fraction(0)]]
        # multiplication into a zero slice gives a 0-row matrix
        assert m.action(P("x1"), 1) == []

    def test_action_is_linear_over_ring(self):
        # action(f*g) = action(f after g), checked on a general sequence
        spec = RegularSequenceSpec.explicit([P("x1+x2"), P("x1*x2")])
        m = SubquotientModule(spec, 1, 2)
        f, g = P("x1"), P("x2")
        a_fg = m.action(f * g, 1)
        a_g = m.action(g, 1)
        a_f = m.action(f, 2)
        from koszulpow.linalg import mat_mul
        assert a_fg == mat_mul(a_f, a_g, QQ)
