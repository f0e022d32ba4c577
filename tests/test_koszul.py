import pytest

from oracles import q_dims_formula
from koszulpow.poly import QQ, RegularSequenceSpec, parse_poly, Polynomial
from koszulpow.chain import (make_label, verify_complex, compose, SparseMap,
                             _nonzero_source)
from koszulpow.koszul import (exterior_subsets, q_module, q_complex,
                              koszul_complex, del_map, verify_identities,
                              transfer_entries, transfer_rule)


def P(text, n=2):
    return parse_poly(text, n, QQ)


SPEC2 = RegularSequenceSpec.variables(2)
E1 = make_label(SPEC2, (1,), ())
E2 = make_label(SPEC2, (2,), ())
E12 = make_label(SPEC2, (1, 2), ())


class TestKoszulComplex:
    def test_single_variable(self):
        spec = RegularSequenceSpec.variables(1)
        c = koszul_complex(spec)
        assert c.dims() == (1, 1)
        e1 = make_label(spec, (1,), ())
        unit = make_label(spec, (), ())
        assert c.differential(1).entries == {(unit, e1): parse_poly("x1", 1)}

    def test_wedge_boundary_signs(self):
        c = koszul_complex(SPEC2)
        img = c.differential(2).apply({E12: P("1")})
        # u1 e2 - u2 e1
        assert img == {E2: P("x1"), E1: P("-x2")}

    def test_dims_three_generators(self):
        c = koszul_complex(RegularSequenceSpec.variables(3))
        assert c.dims() == (1, 3, 3, 1)

    def test_is_complex(self):
        for n in (1, 2, 3, 4):
            assert verify_complex(koszul_complex(
                RegularSequenceSpec.variables(n))).ok

    def test_explicit_sequence(self):
        spec = RegularSequenceSpec.explicit([P("x1+x2"), P("x1*x2")])
        c = koszul_complex(spec)
        assert verify_complex(c).ok
        unit = make_label(spec, (), ())
        e1 = make_label(spec, (1,), ())
        assert c.differential(1).entries[(unit, e1)] == P("x1+x2")


class TestQComplex:
    def test_s0_is_koszul(self):
        assert q_complex(SPEC2, 0).equal_maps(koszul_complex(SPEC2))

    def test_dims_n2_s1(self):
        assert q_complex(SPEC2, 1).dims() == (2, 4, 2)

    def test_dims_formula_grid(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in range(4):
                assert q_complex(spec, s).dims() == q_dims_formula(spec, s)

    def test_is_complex_grid(self):
        for n in (1, 2, 3, 4):
            spec = RegularSequenceSpec.variables(n)
            for s in range(5):
                assert verify_complex(q_complex(spec, s)).ok

    def test_tags_inert(self):
        c = q_complex(SPEC2, 2)
        src = make_label(SPEC2, (1,), (1, 2))
        img = c.differential(1).apply({src: P("1")})
        assert img == {make_label(SPEC2, (), (1, 2)): P("x1")}

    def test_heterogeneous_degrees(self):
        spec = RegularSequenceSpec.variable_powers((2, 3))
        c = q_complex(spec, 1)
        assert verify_complex(c).ok
        # internal degree of e{1}t(2) is 2 + 3
        assert make_label(spec, (1,), (2,)).ideg == 5


class TestDelMap:
    def test_degree_one_is_identity_shaped(self):
        d = del_map(SPEC2, 0)
        t1 = make_label(SPEC2, (), (1,))
        t2 = make_label(SPEC2, (), (2,))
        assert d[1].entries == {(t1, E1): P("1"), (t2, E2): P("1")}

    def test_wedge_transfer_signs(self):
        d = del_map(SPEC2, 0)
        img = d[2].apply({E12: P("1")})
        assert img == {make_label(SPEC2, (2,), (1,)): P("1"),
                       make_label(SPEC2, (1,), (2,)): P("-1")}

    def test_square_zero_on_wedge(self):
        d0, d1 = del_map(SPEC2, 0), del_map(SPEC2, 1)
        sq = compose(d1[1], d0[2])
        assert sq.is_zero()

    def test_entries_are_unit_constants(self):
        for s in range(3):
            for p, f in del_map(RegularSequenceSpec.variables(3), s).items():
                for poly in f.entries.values():
                    assert poly.is_constant()
                    assert poly.constant_value() in (QQ.one(), QQ.coerce(-1))

    def test_tag_stays_sorted(self):
        d = del_map(SPEC2, 1)
        src = make_label(SPEC2, (1,), (2,))
        img = d[1].apply({src: P("1")})
        assert img == {make_label(SPEC2, (), (1, 2)): P("1")}


def unsigned_transfer_rule(exterior, tag):
    """The transfer rule with its alternating sign dropped."""
    return [(rest, t, 1) for rest, t, _ in transfer_rule(exterior, tag)]


class TestIdentities:
    def test_pass_small(self):
        rep = verify_identities(SPEC2, 3)
        assert rep.ok
        assert rep.checked > 0
        assert "ok" in rep.summary()

    def test_pass_large(self):
        assert verify_identities(RegularSequenceSpec.variables(4), 3).ok

    def test_pass_explicit(self):
        spec = RegularSequenceSpec.explicit([P("x1+x2"), P("x1*x2")])
        assert verify_identities(spec, 2).ok

    @pytest.mark.parametrize("s_max", [1, 2, 3])
    def test_builds_only_the_levels_it_reads(self, count_calls, s_max):
        calls = count_calls("koszul.q_complex", "koszul.q_module",
                            "koszul.del_map", "chain.SparseMap.__init__",
                            "poly.Polynomial.__init__")
        rep = verify_identities(SPEC2, s_max)
        assert rep.ok and rep.checked == 4 * s_max
        # the checks read the tuple rules: no level, map or polynomial
        assert set(calls.values()) == {0}

    def test_sign_corrupted_transfer_fails(self):
        # drop the alternating sign: every transfer entry becomes +1
        one = Polynomial.one(2, QQ)
        src = q_module(SPEC2, 0, 2)
        tgt = q_module(SPEC2, 1, 1)
        bad2 = SparseMap(src, tgt,
                         {k: one for k in transfer_entries(SPEC2, src)}, 2, QQ)
        good1 = del_map(SPEC2, 0)[1]
        q0, q1 = q_complex(SPEC2, 0), q_complex(SPEC2, 1)
        assert _nonzero_source((q1.differential(1), bad2),
                               (good1, q0.differential(2))) == E12

    def test_unsigned_transfer_reported(self, monkeypatch):
        import koszulpow.koszul as koszul
        monkeypatch.setattr(koszul, "transfer_rule", unsigned_transfer_rule)
        # the maps read the same rule as the check
        assert {p.constant_value() for f in del_map(SPEC2, 0).values()
                for p in f.entries.values()} == {1}
        rep = verify_identities(SPEC2, 2)
        e12t1 = make_label(SPEC2, (1, 2), (1,))
        assert not rep.ok and rep.checked == 8
        assert rep.failures == [("anticommute", 0, 2, E12),
                                ("square-zero", 0, 2, E12),
                                ("anticommute", 1, 2, e12t1),
                                ("square-zero", 1, 2, e12t1)]
        assert rep.summary() == \
            "anticommute fails at tag level 0, degree 2, witness e{1,2}"


class TestOneBuildPerCall:
    """iterated_splice builds each (tag level, degree) module once per
    call and keeps nothing between calls; verify_identities builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        import koszulpow.koszul as koszul
        calls = []

        def counting(spec, s, p):
            calls.append((s, p))
            return q_module(spec, s, p)

        monkeypatch.setattr(koszul, "q_module", counting)
        return calls

    def test_verify_identities(self, built, monkeypatch):
        import koszulpow.koszul as koszul
        spec = RegularSequenceSpec.variables(3)
        assert verify_identities(spec, 4).ok
        # the identities are read off the tuple rules, not the modules
        assert built == []
        monkeypatch.setattr(koszul, "transfer_rule", unsigned_transfer_rule)
        assert not verify_identities(spec, 4).ok

    def test_iterated_splice(self, built):
        from koszulpow.extensions import iterated_splice
        iterated_splice(RegularSequenceSpec.variables(4), 3)
        assert len(built) == len(set(built)) == 3 * 5


class TestModuleOrdering:
    def test_exterior_subsets(self):
        assert exterior_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
        assert exterior_subsets(2, 0) == [()]

    def test_q_module_tag_major(self):
        m = q_module(SPEC2, 1, 1)
        assert [str(g) for g in m] == \
            ["e{1}t(1)", "e{2}t(1)", "e{1}t(2)", "e{2}t(2)"]
