from math import comb

import pytest

from oracles import betti_closed_form
from koszulpow.poly import QQ, ZZ, GF, RegularSequenceSpec, parse_poly, Polynomial
from koszulpow.linalg import (Echelon, kernel_basis, rank_dense, solve,
                              smith_normal_form, dense_row)
from koszulpow.chain import (SparseMap, ChainMap, element_str,
                             constant_matrix, constant_rows, tensor_mod_I)
from koszulpow.koszul import koszul_complex
from koszulpow.resolution import (build_k_ris, reduction_chain_map,
                                  dga_multiply)
from koszulpow.homology import (homology_ranks,
                                tensor_mod_I_complex, tor, coker_transfer_ranks,
                                tor_products, freeness_check, divisor_report,
                                induced_tor_map, koszul_regularity_probe)


def tensored_matrices(t):
    """Integer differential matrices of a tensored complex, per degree."""
    return {n: constant_matrix(t.differential(n))
            for n in range(1, t.max_degree + 1)}


def P(text, n=2):
    return parse_poly(text, n, QQ)


SPEC1 = RegularSequenceSpec.variables(1)
SPEC2 = RegularSequenceSpec.variables(2)
SPEC3 = RegularSequenceSpec.variables(3)


class TestHomologyRanks:
    def test_tensored_koszul_three_vars(self):
        ranks = homology_ranks(tensor_mod_I_complex(SPEC3, 1))
        assert ranks == [(1, ()), (3, ()), (3, ()), (1, ())]

    def test_square_power_two_vars(self):
        ranks = homology_ranks(tensor_mod_I_complex(SPEC2, 2))
        assert ranks == [(1, ()), (3, ()), (2, ())]

    def test_cube_power_two_vars(self):
        ranks = homology_ranks(tensor_mod_I_complex(SPEC2, 3))
        assert ranks == [(1, ()), (4, ()), (3, ())]

    def test_rank_nullity_budget(self):
        # free rank + both incident ranks account for every generator
        from koszulpow.linalg import rank_dense
        t = tensor_mod_I_complex(SPEC3, 2)
        mats = tensored_matrices(t)
        ranks = homology_ranks(t)
        for n in range(t.max_degree + 1):
            r_out = rank_dense(mats[n], t.module(n).dim, QQ) if n >= 1 else 0
            r_in = (rank_dense(mats[n + 1], t.module(n + 1).dim, QQ)
                    if n + 1 in mats else 0)
            assert t.module(n).dim == ranks[n][0] + r_out + r_in

    def test_untensored_entries_rejected(self):
        with pytest.raises(ValueError):
            homology_ranks(build_k_ris(SPEC2, 2))

    def test_torsion_merges_across_blocks(self):
        # d_1 = diag(2, 3) is two blocks; Z/2 + Z/3 is Z/6
        from koszulpow.chain import ChainComplex, FreeModule, Label
        e1, e2 = Label((1,), (), 1), Label((2,), (), 1)
        t1, t2 = Label((), (1,), 1), Label((), (2,), 1)
        m0, m1 = FreeModule((t1, t2)), FreeModule((e1, e2))
        d1 = SparseMap(m1, m0, {(t1, e1): P("2"), (t2, e2): P("3")}, 2, QQ)
        t = ChainComplex(2, QQ, {0: m0, 1: m1}, {1: d1})
        assert homology_ranks(t) == [(0, (6,)), (0, ())]
        assert smith_normal_form(constant_rows(d1)).torsion == (6,)


class TestTor:
    def test_exterior_case_two_vars(self):
        rep = tor(SPEC2, 1)
        assert rep.ranks == (1, 2, 1)
        assert rep.generator_strings() == [
            ["(1)*1"], ["(1)*e{1}", "(1)*e{2}"], ["(1)*e{1,2}"]]

    def test_square_power_two_vars(self):
        rep = tor(SPEC2, 2)
        assert rep.ranks == (1, 3, 2)
        # every positive-degree generator sits at tag length one
        for n in (1, 2):
            assert all(len(g.tag) == 1 for g in rep.generators[n])

    def test_generators_are_the_critical_labels(self):
        rep = tor(SPEC3, 2)
        for n in range(len(rep.generators)):
            assert rep.generators[n] is rep.matching.critical[n]

    def test_square_power_one_var(self):
        assert tor(SPEC1, 2).ranks == (1, 1)

    def test_unit_class_at_degree_zero(self):
        for s in (1, 2, 3):
            rep = tor(SPEC2, s)
            assert rep.ranks[0] == 1
            assert rep.generator_strings()[0] == ["(1)*1"]

    def test_routes_agree_grid(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3):
                rep = tor(spec, s)
                assert len(rep.routes) == 3
                assert rep.routes_agree, (n, s, rep.routes)

    def test_exterior_ranks_are_binomials(self):
        for n in (1, 2, 3, 4):
            spec = RegularSequenceSpec.variables(n)
            rep = tor(spec, 1)
            assert rep.ranks == tuple(comb(n, k) for k in range(n + 1))

    def test_first_tor_rank_formula(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3):
                rep = tor(spec, s)
                assert rep.ranks[1] == comb(n + s - 1, s)

    def test_no_torsion_anywhere(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3):
                rep = tor(spec, s)
                assert all(t == () for t in rep.torsion)

    def test_heterogeneous_degrees(self):
        spec = RegularSequenceSpec.variable_powers((2, 3))
        rep = tor(spec, 2)
        assert rep.ranks == (1, 3, 2)
        assert rep.routes_agree

    def test_integer_coefficients(self):
        spec = RegularSequenceSpec.variables(2, ZZ)
        assert tor(spec, 2).ranks == (1, 3, 2)

    def test_prime_fields(self):
        for p in (2, 5):
            spec = RegularSequenceSpec.variables(2, GF(p))
            rep = tor(spec, 2)
            assert rep.ranks == (1, 3, 2)
            assert rep.routes_agree

    def test_bad_power(self):
        with pytest.raises(ValueError):
            tor(SPEC2, 0)


class TestCokerRoute:
    def test_exterior_case(self):
        assert coker_transfer_ranks(SPEC2, 1) == (1, 2, 1)
        assert coker_transfer_ranks(SPEC3, 1) == (1, 3, 3, 1)

    def test_matches_direct(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (2, 3, 4):
                direct = tor(spec, s).ranks
                assert coker_transfer_ranks(spec, s) == direct


class TestProducts:
    def test_all_zero_square_two_vars(self):
        table = tor(SPEC2, 2).products
        assert len(table.gens) == 5
        assert table.all_zero
        assert all(res == {} for res in table.entries.values())

    def test_all_zero_square_three_vars(self):
        assert tor(SPEC3, 2).products.all_zero

    def test_all_zero_cube_two_vars(self):
        assert tor(SPEC2, 3).products.all_zero

    def test_exterior_control_not_zero(self):
        table = tor(SPEC2, 1).products
        assert not table.all_zero
        # e1 * e2 = e1^e2 survives, with antisymmetry
        prod = table.entries[(0, 1)]
        anti = table.entries[(1, 0)]
        assert [str(lbl) for lbl in prod] == ["e{1,2}"]
        assert [str(lbl) for lbl in anti] == ["e{1,2}"]
        assert next(iter(prod.values())) == -next(iter(anti.values()))

    def test_residues_keep_the_complex_ring(self):
        # over Z the s = 1 residues are integer polynomials, not rationals
        table = tor(RegularSequenceSpec.variables(3, ZZ), 1).products
        assert table.entries
        for res in table.entries.values():
            for p in res.values():
                assert p.domain == ZZ and type(p.constant_value()) is int

    def test_lines_format(self):
        lines = tor(SPEC2, 1).products.lines()
        assert "g0 * g1 = (1)*e{1,2}" in lines
        assert "g0 * g0 = 0" in lines

    @pytest.mark.parametrize("spec", [
        SPEC1, SPEC2, SPEC3,
        RegularSequenceSpec.explicit([P("x1+2*x2-x3", 3), P("x2-x3", 3),
                                      P("x3", 3)])],
        ids=["vars1", "vars2", "vars3", "linear3"])
    def test_tag_length_certificate_multiplies_nothing(self, spec,
                                                        count_calls):
        # for s >= 2 every positive-degree generator has tag floor
        # s - 1 >= 1, so every pair is cut unmultiplied; for s = 1 every
        # tag is empty and all g^2 pairs are multiplied and reduced
        calls = count_calls("resolution.dga_multiply")
        for s in (1, 2, 3, 4):
            before = calls["resolution.dga_multiply"]
            table = tor(spec, s).products
            made = calls["resolution.dga_multiply"] - before
            if s == 1:
                assert made == len(table.gens) ** 2
                assert table.certificate == "reduced"
                assert table.all_zero == (spec.n_gens == 1)    # e1 * e1 = 0
            else:
                assert made == 0
                assert table.certificate == "tag-length"
                assert table.all_zero and table.nonzero_lines() == []


class TestFreeness:
    def test_unit_divisors_grid(self):
        for n in (1, 2, 3, 4):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3):
                rep = freeness_check(spec, s)
                assert rep.ok, (n, s, rep.offending)
                assert all(d == 1 for ds in rep.divisors.values() for d in ds)

    def test_rank_stable_across_fields(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3):
                rep = freeness_check(spec, s)
                assert rep.rank_by_field["QQ"] == rep.rank_by_field["F2"]
                assert rep.rank_by_field["QQ"] == rep.rank_by_field["F3"]

    def test_control_divisor_flagged(self):
        rep = divisor_report({0: [[2]]})
        assert not rep.ok
        assert any("divisor 2" in line for line in rep.offending)
        assert any("mod 2" in line for line in rep.offending)
        assert rep.rank_by_field["F2"][0] == 0
        assert rep.rank_by_field["QQ"][0] == 1

    def test_summary_strings(self):
        assert "units" in freeness_check(SPEC2, 2).summary()
        assert "divisor 2" in divisor_report({0: [[2]]}).summary()

    def test_prime_field_rejected(self):
        with pytest.raises(ValueError):
            freeness_check(RegularSequenceSpec.variables(2, GF(3)), 2)


def _freeness_cases():
    cases = [(RegularSequenceSpec.variables(n, dom), s)
             for dom in (QQ, ZZ) for n in (1, 2, 3, 4) for s in (1, 2, 3)]
    cases += [(RegularSequenceSpec.variable_powers((1, 2, 2), ZZ), s)
              for s in (1, 2, 3)]
    cases += [(RegularSequenceSpec.explicit(
        [parse_poly(p, 3, dom) for p in ("x1+2*x2-x3", "x2-x3", "x3")]), 2)
        for dom in (QQ, ZZ)]
    return cases


class TestFreenessFromBlocks:
    """freeness_check reads the pair counts of the Morse matching; the
    dense whole-matrix divisor_report of the same tensored complex is the
    reference."""

    @pytest.mark.parametrize("spec,s", _freeness_cases(),
                             ids=lambda x: str(x) if isinstance(x, int)
                             else None)
    def test_matches_dense_divisor_report(self, spec, s):
        got = freeness_check(spec, s)
        ref = divisor_report(tensored_matrices(tensor_mod_I_complex(spec, s)))
        assert got.ok == ref.ok
        assert got.divisors == ref.divisors
        assert got.rank_by_field == ref.rank_by_field
        assert got.offending == ref.offending
        assert got.summary() == ref.summary()


def identity_chain_map(c):
    one = Polynomial.one(c.n_vars, c.domain)
    comps = {}
    for n in range(c.max_degree + 1):
        m = c.module(n)
        comps[n] = SparseMap(m, m, {(g, g): one for g in m}, c.n_vars, c.domain)
    return ChainMap(c, c, comps)


class TestInducedMap:
    """Each degree's map is ((rows, cols), its sorted nonzero
    (row, col, value) triples)."""

    def test_reduction_square_to_exterior(self):
        mats = induced_tor_map(reduction_chain_map(SPEC2, 2))
        assert mats[0] == ((1, 1), [(0, 0, 1)])
        assert mats[1] == ((2, 3), [])
        assert mats[2] == ((1, 2), [])

    def test_reduction_cube_to_square(self):
        mats = induced_tor_map(reduction_chain_map(SPEC2, 3))
        assert mats[0] == ((1, 1), [(0, 0, 1)])
        for n in (1, 2):
            assert mats[n][1] == []

    def test_reduction_three_vars(self):
        mats = induced_tor_map(reduction_chain_map(SPEC3, 2))
        assert mats[0] == ((1, 1), [(0, 0, 1)])
        for n in (1, 2, 3):
            assert mats[n][1] == []

    def test_identity_map(self):
        c = build_k_ris(SPEC2, 2)
        mats = induced_tor_map(identity_chain_map(c))
        assert mats[0] == ((1, 1), [(0, 0, 1)])
        assert mats[1] == ((3, 3), [(0, 0, 1), (1, 1, 1), (2, 2, 1)])
        assert mats[2] == ((2, 2), [(0, 0, 1), (1, 1, 1)])

    def test_non_chain_map_rejected(self):
        c = build_k_ris(SPEC2, 2)
        f = identity_chain_map(c)
        broken = dict(f.components)
        broken[1] = broken[1].scale(2)
        with pytest.raises(ValueError):
            induced_tor_map(ChainMap(c, c, broken))

    def test_plain_complex_rejected(self):
        c = koszul_complex(SPEC2)
        with pytest.raises(ValueError):
            induced_tor_map(identity_chain_map(c))


class TestSharedPass:
    """tor() builds one tensored complex per power and shares it."""

    def test_call_counts(self, count_calls):
        import koszulpow.homology as homology
        calls = count_calls("homology.tor", "resolution.build_k_ris",
                            "chain.tensor_mod_I")
        rep = homology.tor(SPEC2, 2)
        assert rep.induced_reduction is not None and rep.products.all_zero
        # the tensored complex of R/I^2 is written from its labels, and
        # the reduction map is read off its matching: no polynomial
        # resolution is built and nothing is tensored
        assert calls == {"homology.tor": 1, "resolution.build_k_ris": 0,
                         "chain.tensor_mod_I": 0}

    def test_tor_command_and_freeness_build_no_resolution(self, count_calls,
                                                          capsys):
        from koszulpow import cli
        calls = count_calls("resolution.build_k_ris", "chain.tensor_mod_I")
        assert cli.run(["tor", "--n", "3", "--s", "3", "--field", "Z"]) == 0
        assert '"ok": true' in capsys.readouterr().out
        assert freeness_check(RegularSequenceSpec.variables(3, ZZ), 3).ok
        assert calls == {"resolution.build_k_ris": 0, "chain.tensor_mod_I": 0}

    def test_free_ranks_need_no_rank_pass(self, monkeypatch):
        import koszulpow.homology as homology

        def forbidden(*args):
            raise AssertionError("tor() ranked a matrix")

        monkeypatch.setattr(homology, "sparse_rank", forbidden)
        for dom in (QQ, ZZ, GF(5)):
            rep = homology.tor(RegularSequenceSpec.variables(3, dom), 2)
            assert rep.ranks == (1, 6, 8, 3)

    def test_one_resolution_per_power(self, count_calls):
        calls = count_calls("resolution.build_k_ris", "chain.tensor_mod_I",
                            "resolution.tensor_mod_I_complex",
                            "koszul.del_map", "koszul.q_module",
                            "koszul.transfer_entries")
        tor(RegularSequenceSpec.variables(4, GF(31991)), 3)
        # pages 1 and 2, the transfer cokernels and the reduction map are
        # read off the tensored resolution of R/I^3, built once; nothing
        # builds R/I^2 or rebuilds a piece of R/I^3
        assert calls == {"resolution.build_k_ris": 0, "chain.tensor_mod_I": 0,
                         "resolution.tensor_mod_I_complex": 1,
                         "koszul.del_map": 0, "koszul.q_module": 15,
                         "koszul.transfer_entries": 4}

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_one_complex_one_matching_no_chain_map(self, s, count_calls):
        calls = count_calls("resolution.tensor_mod_I_complex",
                            "resolution.MorseMatching.__init__",
                            "chain.ChainMap.__init__")
        tor(SPEC3, s)
        assert calls == {"resolution.tensor_mod_I_complex": 1,
                         "resolution.MorseMatching.__init__": 1,
                         "chain.ChainMap.__init__": 0}

    def test_each_d1_map_ranked_once(self, count_calls):
        from koszulpow.spectral import e1_page
        spec = RegularSequenceSpec.variables(4, GF(31991))
        n_maps = len(e1_page(spec, 3).d1)
        calls = count_calls("linalg.sparse_rank")
        tor(spec, 3)
        # the transfer-cokernel and page2 routes read one page 2
        assert n_maps == 8
        assert calls == {"linalg.sparse_rank": n_maps}

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("n,s", [(n, s) for n in (1, 2, 3, 4)
                                     for s in (2, 3, 4)])
    def test_reduction_matches_public_wrapper(self, n, s, dom):
        spec = RegularSequenceSpec.variables(n, dom)
        assert tor(spec, s).induced_reduction == \
            induced_tor_map(reduction_chain_map(spec, s))

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("s", [2, 3])
    def test_reduction_matches_public_wrapper_linear_forms(self, s, dom):
        spec = RegularSequenceSpec.explicit(
            [parse_poly(p, 3, dom) for p in ("x1+2*x2-x3", "x2-x3", "x3")])
        assert tor(spec, s).induced_reduction == \
            induced_tor_map(reduction_chain_map(spec, s))

    @pytest.mark.parametrize("n,s,dom", [(6, 5, QQ), (5, 4, ZZ),
                                         (5, 4, GF(7))], ids=str)
    def test_reduction_is_sparse_on_lower_tor(self, n, s, dom):
        spec = RegularSequenceSpec.variables(n, dom)
        rep, lower = tor(spec, s), tor(spec, s - 1)
        red = rep.induced_reduction
        # rows: the Tor generators at s - 1, counted by their own pass
        assert {d: shape for d, (shape, _) in red.items()} == \
            {d: (lower.ranks[d], r) for d, r in enumerate(rep.ranks)}
        assert red[0][1] == [(0, 0, 1)]
        assert all(entries == [] for d, (_, entries) in red.items() if d)


class TestCutTopLevel:
    """The reference reduction map, which cuts the top tag level, is a
    chain map; induced_tor_map reads tor()'s sparse reduction map off it."""

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_chain_map(self, n, s, dom):
        spec = RegularSequenceSpec.variables(n, dom)
        assert reduction_chain_map(spec, s).verify().ok


class TestClosedForm:
    """Every route equals the closed-form Betti numbers, which read no
    complex."""

    @pytest.mark.parametrize("n,s", [(n, s) for n in (1, 2, 3, 4)
                                     for s in (1, 2, 3, 4)] + [(5, 2)])
    def test_variables(self, n, s):
        rep = tor(RegularSequenceSpec.variables(n), s)
        want = betti_closed_form(n, s)
        assert rep.ranks == want
        assert rep.routes == {"direct": want, "transfer-cokernel": want,
                              "page2": want}


class TestRegularityProbe:
    def test_repeated_variable_flagged(self):
        bad = RegularSequenceSpec.explicit([P("x1"), P("x1")])
        rep = koszul_regularity_probe(bad)
        assert not rep.ok
        assert rep.failures[0] == (1, 1)
        assert "e{1}" in rep.witness and "e{2}" in rep.witness
        assert "NOT regular" in rep.summary()

    def test_variables_pass(self):
        rep = koszul_regularity_probe(SPEC3)
        assert rep.ok
        assert "consistent" in rep.summary()

    def test_symmetric_pair_passes(self):
        spec = RegularSequenceSpec.explicit([P("x1 + x2"), P("x1*x2")])
        assert koszul_regularity_probe(spec, max_internal=10).ok

    def test_integer_domain_lifts(self):
        assert koszul_regularity_probe(RegularSequenceSpec.variables(2, ZZ)).ok

    def test_dependent_pair_flagged(self):
        bad = RegularSequenceSpec.explicit([P("x1"), P("x1*x2")])
        # x2 * u1 - u2 = 0 gives a degree-2 cycle
        rep = koszul_regularity_probe(bad)
        assert not rep.ok
        assert rep.failures[0][0] == 1


# ---------------------------------------------------------------------------
# Reference: the whole-matrix elimination that tor() replaced, first by
# block-wise elimination and then by the Morse matching.  Kept here only,
# to pin that the matching changes no output.

def _primitive(v):
    from fractions import Fraction
    from math import gcd, lcm
    mult = lcm(*(Fraction(x).denominator for x in v))
    w = [int(x * mult) for x in v]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def _dense_tor(spec, s, with_products=True):
    """ranks, torsion, generators, generator strings, per-degree boundary
    spans and the tensored complex, by dense elimination of whole matrices;
    plus the product lines when with_products."""
    kris = build_k_ris(spec, s)
    t = tensor_mod_I(kris, spec)
    mats = tensored_matrices(t)
    fd = spec.domain if spec.domain.kind == "Fp" else QQ
    one = Polynomial.one(t.n_vars, t.domain)
    ranks, torsion, spans, gens = [], [], [], []
    for n in range(t.max_degree + 1):
        dim, up = t.module(n).dim, t.module(n + 1).dim
        m_out, m_in = mats.get(n, []), mats.get(n + 1, [])
        r_out = rank_dense(m_out, dim, fd) if m_out else 0
        r_in = rank_dense(m_in, up, fd) if m_in else 0
        ranks.append(dim - r_out - r_in)
        rows_in = [dict(enumerate(r)) for r in m_in]   # zeros are ignored
        torsion.append(smith_normal_form(rows_in).torsion
                       if m_in and fd.kind != "Fp" else ())
        span = Echelon(fd)
        for j in range(up):
            span.insert([row[j] for row in m_in])
        spans.append(span)
        ech = span.copy()
        vecs = [v for v in kernel_basis(m_out, dim, fd) if ech.insert(v)]
        if fd.kind != "Fp":
            vecs = [_primitive(v) for v in vecs]
        gens.append([{g: one.scale(c) for g, c in zip(t.module(n).labels, v)
                      if c} for v in vecs])
    out = {"ranks": tuple(ranks), "torsion": tuple(torsion), "gens": gens,
           "strings": [[element_str(g) for g in gs] for gs in gens],
           "spans": spans, "t": t}
    if with_products:
        flat = [(n, g) for n in range(1, len(gens)) for g in gens[n]]
        fone = Polynomial.one(t.n_vars, fd)
        lines = []
        for a, (na, ga) in enumerate(flat):
            for b, (nb, gb) in enumerate(flat):
                prod, nd, res = dga_multiply(kris, ga, gb), na + nb, {}
                if nd <= t.max_degree and prod:
                    resid = spans[nd].reduce(_dense_vector(t, nd, prod, fd))
                    res = {g: fone.scale(c)
                           for g, c in zip(t.module(nd).labels, resid)
                           if c != fd.zero()}
                lines.append(f"g{a} * g{b} = "
                             f"{element_str(res) if res else '0'}")
        out["lines"] = lines
    return out


def _dense_vector(t, n, elt, fd):
    v = [fd.zero()] * t.module(n).dim
    for g, p in elt.items():
        assert p.is_constant()
        v[t.module(n).index_of(g)] = fd.coerce(p.constant_value())
    return v


def _dense_induced(f, src, tgt, fd):
    comps = {}
    for n in range(max(len(src["ranks"]), len(tgt["ranks"]))):
        sg = src["gens"][n] if n < len(src["gens"]) else []
        tg = tgt["gens"][n] if n < len(tgt["gens"]) else []
        basis = [_dense_vector(tgt["t"], n, g, fd) for g in tg]
        if n < len(tgt["spans"]):
            basis += [dense_row(r, tgt["t"].module(n).dim)
                      for r in tgt["spans"][n].rows.values()]
        matrix = [list(c) for c in zip(*basis)]
        cols = []
        for g in sg:
            image = f.component(n).apply(g)
            sol = solve(matrix, _dense_vector(tgt["t"], n, image, fd), fd)
            cols.append([int(x) if x.denominator == 1 else x
                         for x in sol[:len(tg)]])
        # the dense solution, in induced_tor_map's sparse form
        comps[n] = ((len(tg), len(sg)), [
            (i, j, x) for i in range(len(tg))
            for j, x in enumerate(c[i] for c in cols) if x])
    return comps


def _assert_block_path_matches(spec, s):
    rep = tor(spec, s)
    ref = _dense_tor(spec, s)
    assert rep.ranks == ref["ranks"]
    assert rep.torsion == ref["torsion"]
    assert rep.generator_strings() == ref["strings"]
    assert rep.products.lines() == ref["lines"]
    if s >= 2:
        lower = _dense_tor(spec, s - 1, with_products=False)
        fd = spec.domain if spec.domain.kind == "Fp" else QQ
        assert rep.induced_reduction == _dense_induced(
            reduction_chain_map(spec, s), ref, lower, fd)


class TestBlockEquivalence:
    """The Morse matching reproduces whole-matrix elimination: generators,
    torsion, product lines and the reduction map."""

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_variables_grid(self, n, s, dom):
        _assert_block_path_matches(RegularSequenceSpec.variables(n, dom), s)

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("s", [2, 3])
    def test_linear_forms(self, s, dom):
        spec = RegularSequenceSpec.explicit(
            [parse_poly(p, 3, dom) for p in ("x1+2*x2-x3", "x2-x3", "x3")])
        _assert_block_path_matches(spec, s)
