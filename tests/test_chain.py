import random
from fractions import Fraction

import pytest

from koszulpow.poly import (QQ, ZZ, GF, Polynomial, RegularSequenceSpec,
                            mono_mul, monomials_of_degree)
from koszulpow.parse import parse_poly
from koszulpow.chain import (Label, make_label, FreeModule, SparseMap,
                             zero_map, compose, ChainComplex, verify_complex,
                             tensor_mod_I, graded_slice, map_slice,
                             slice_basis, ChainMap, element_add,
                             element_str, _nonzero_source, constant_rows)
from koszulpow.koszul import koszul_complex, q_module
from koszulpow.linalg import rank_dense
from koszulpow.resolution import build_k_ris


def P(text, n=2):
    return parse_poly(text, n, QQ)


SPEC2 = RegularSequenceSpec.variables(2)

E1 = make_label(SPEC2, (1,), ())
E2 = make_label(SPEC2, (2,), ())
E12 = make_label(SPEC2, (1, 2), ())
UNIT = make_label(SPEC2, (), ())


def koszul2() -> ChainComplex:
    """Hand-built Koszul complex on (x1, x2) for plumbing tests."""
    m0 = FreeModule((UNIT,))
    m1 = FreeModule((E1, E2))
    m2 = FreeModule((E12,))
    d1 = SparseMap(m1, m0, {(UNIT, E1): P("x1"), (UNIT, E2): P("x2")}, 2, QQ)
    d2 = SparseMap(m2, m1, {(E2, E12): P("x1"), (E1, E12): P("-x2")}, 2, QQ)
    return ChainComplex(2, QQ, {0: m0, 1: m1, 2: m2}, {1: d1, 2: d2})


def slice_dim(c, n, d):
    return len(slice_basis(c.module(n), c.n_vars, d))


class TestLabel:
    def test_print_forms(self):
        assert str(UNIT) == "1"
        assert str(make_label(SPEC2, (1,), ())) == "e{1}"
        assert str(Label((1, 3), (), 2)) == "e{1,3}"
        assert str(Label((), (1, 2, 2), 3)) == "t(1,2,2)"
        assert str(Label((1,), (2,), 2)) == "e{1}t(2)"

    def test_validation(self):
        for ext in ((2, 1), (1, 1), (0, 1)):
            with pytest.raises(ValueError, match="exterior indices"):
                Label(ext, (), 2)
        for tag in ((2, 1), (0,)):
            with pytest.raises(ValueError, match="tag indices"):
                Label((), tag, 2)
        Label((), (1, 1), 2)  # tags may repeat

    def test_value_semantics(self):
        a, b = Label((1,), (2,), 2), Label((1,), (2,), 2)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Label((1,), (2,), 3) and a != Label((2,), (1,), 2)
        assert a != ((1,), (2,), 2)
        assert not a < b and Label((1, 2), (), 2) < a
        assert repr(a) == "Label(e{1}t(2))" and repr(UNIT) == "Label(1)"

    def test_ordering_tags_after_shorter_tags(self):
        a = Label((1, 2), (), 2)
        b = Label((), (1,), 1)
        c = Label((), (2,), 1)
        assert sorted([c, b, a]) == [a, b, c]

    def test_internal_degree_from_spec(self):
        s = RegularSequenceSpec.variable_powers((2, 3))
        assert make_label(s, (1, 2), (2,)).ideg == 2 + 3 + 3


class TestFreeModule:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            FreeModule((E1, E2, make_label(SPEC2, (1,), ())))

    def test_value_semantics(self):
        m = FreeModule((E1, E2))
        assert m == FreeModule((E1, E2)) and hash(m) == hash(FreeModule((E1, E2)))
        assert m != FreeModule((E2, E1)) and m != (E1, E2)


class TestOneLabelIndex:
    """FreeModule.index is the one map from a label to its position: the
    readers of a map look entries up there instead of rebuilding an index
    over all labels, so their cost follows the entries, not the modules."""

    def test_readers_hash_per_entry_not_per_label(self, monkeypatch):
        spec = RegularSequenceSpec.variables(4)
        src, tgt = q_module(spec, 1, 2), q_module(spec, 2, 1)
        assert (src.dim, tgt.dim) == (24, 40)
        g, h = src.labels[5], tgt.labels[7]
        entries = {(Label(h.exterior, h.tag, h.ideg),
                    Label(g.exterior, g.tag, g.ideg)): Polynomial.one(4, QQ)}
        calls = [0]
        real_hash = Label.__hash__

        def counting_hash(label):
            calls[0] += 1
            return real_hash(label)

        monkeypatch.setattr(Label, "__hash__", counting_hash)
        f = SparseMap(src, tgt, entries, 4, QQ)
        assert calls[0] <= 4
        (own_tgt, own_src), = f.entries
        assert own_src is g and own_tgt is h
        calls[0] = 0
        rows = constant_rows(f)
        assert calls[0] <= 2
        assert rows == [{5: 1} if i == 7 else {} for i in range(40)]

    def test_index_of_and_contains_agree_with_labels(self):
        c = build_k_ris(RegularSequenceSpec.variables(3), 3)
        mods = [c.module(n) for n in range(c.max_degree + 1)]
        for n, mod in enumerate(mods):
            for i, g in enumerate(mod.labels):
                copy = Label(g.exterior, g.tag, g.ideg)
                assert mod.index_of(g) == mod.index_of(copy) == i
                assert g in mod and copy in mod
            foreign = mods[n - 1].labels[0] if n else mods[1].labels[0]
            assert foreign not in mod
            with pytest.raises(KeyError) as err:
                mod.index_of(foreign)
            assert err.value.args == (f"label {foreign} not in module",)


class TestSparseMap:
    def test_rejects_inhomogeneous_entry(self):
        m1 = FreeModule((E1,))
        m0 = FreeModule((UNIT,))
        with pytest.raises(ValueError):
            SparseMap(m1, m0, {(UNIT, E1): P("x1 + 1")}, 2, QQ)
        with pytest.raises(ValueError):
            SparseMap(m1, m0, {(UNIT, E1): P("x1^2")}, 2, QQ)

    def test_rejects_foreign_labels(self):
        m1 = FreeModule((E1,))
        m0 = FreeModule((UNIT,))
        with pytest.raises(ValueError, match=r"source e\{2\} not a source"):
            SparseMap(m1, m0, {(UNIT, E2): P("x2")}, 2, QQ)
        with pytest.raises(ValueError, match=r"target e\{1\} not a target"):
            SparseMap(m1, m0, {(E1, E1): P("1")}, 2, QQ)

    def test_entries_keyed_on_module_labels(self):
        # equal labels built apart are replaced by the modules' own ones
        from koszulpow.morse import MorseMatching
        spec = RegularSequenceSpec.variables(3)
        for c in (build_k_ris(spec, 3),
                  MorseMatching(build_k_ris(spec, 3), 3, False).complex()):
            assert c.diffs
            for f in c.diffs.values():
                own_src = {g: g for g in f.source}
                own_tgt = {g: g for g in f.target}
                for tgt, src in f.entries:
                    assert src is own_src[src] and tgt is own_tgt[tgt]

    def test_drops_zero_entries(self):
        m1 = FreeModule((E1,))
        m0 = FreeModule((UNIT,))
        f = SparseMap(m1, m0, {(UNIT, E1): P("0")}, 2, QQ)
        assert f.is_zero()

    def test_apply(self):
        c = koszul2()
        img = c.differential(1).apply({E1: P("x2"), E2: P("-x1")})
        assert img == {}  # x2*x1 - x1*x2 = 0
        img2 = c.differential(2).apply({E12: P("1")})
        assert img2 == {E2: P("x1"), E1: P("-x2")}

    def test_entry_lines(self):
        c = koszul2()
        assert c.differential(1).entry_lines() == \
            ["1 <- e{1} : x1", "1 <- e{2} : x2"]


class TestCompose:
    def test_identity(self):
        c = koszul2()
        m1 = c.module(1)
        ident = SparseMap(m1, m1, {(g, g): P("1") for g in m1}, 2, QQ)
        assert compose(ident, c.differential(2)) == c.differential(2)

    def test_one_by_one(self):
        a = Label((), (), 0)
        b = Label((1,), (), 1)
        c = Label((1, 2), (), 2)
        f = SparseMap(FreeModule((b,)), FreeModule((a,)), {(a, b): P("x1")}, 2, QQ)
        g = SparseMap(FreeModule((c,)), FreeModule((b,)), {(b, c): P("x2")}, 2, QQ)
        assert compose(f, g).entries == {(a, c): P("x1*x2")}

    def test_shape_mismatch(self):
        c = koszul2()
        with pytest.raises(ValueError):
            compose(c.differential(2), c.differential(1))

    def test_checks_build_no_composed_map(self, count_calls, capsys):
        from koszulpow.cli import run
        calls = count_calls("chain.compose")
        for argv in (["build", "--n", "3", "--s", "3"],
                     ["verify", "--n", "2", "--s", "2"],
                     ["splice", "--n", "3", "--s", "3"]):
            assert run(argv) == 0
        capsys.readouterr()
        # every symbolic check sums its composites through _nonzero_source
        assert calls == {"chain.compose": 0}


def reference_sum(terms) -> dict:
    """(target, source) -> sum of sign * f[target, mid] * g[mid, source] as
    Polynomial products and sums: the kernel's reference."""
    out = {}
    for f, g, *sign in terms:
        if f is None or g is None:
            continue
        for (mid, src), p in g.entries.items():
            for (tgt, mid2), q in f.entries.items():
                if mid2 == mid:
                    r = (q * p).scale(sign[0] if sign else 1)
                    out[(tgt, src)] = out[(tgt, src)] + r \
                        if (tgt, src) in out else r
    return {k: p for k, p in out.items() if not p.is_zero()}


def random_module(rng, first, size):
    return FreeModule(tuple(Label((first + i,), (), rng.randrange(4))
                            for i in range(size)))


def random_homogeneous(rng, n_vars, dom, d):
    """Often zero; over Q sometimes with proper fractions."""
    monos = monomials_of_degree(n_vars, d)
    terms = {}
    for _ in range(rng.randrange(3)):
        c = rng.randrange(-3, 4)
        if dom == QQ and rng.random() < 0.3:
            c = Fraction(c, rng.randrange(1, 4))
        m = rng.choice(monos)
        terms[m] = terms.get(m, 0) + c
    return Polynomial(n_vars, dom, terms)


def random_map(rng, source, target, dom):
    return SparseMap(source, target, {
        (t, s): random_homogeneous(rng, 2, dom, s.ideg - t.ideg)
        for s in source for t in target if s.ideg >= t.ideg
        and rng.random() < 0.6}, 2, dom)


class TestCompositeKernel:
    """_nonzero_source and compose sum raw integer terms; they must agree
    with Polynomial products and sums."""

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(3)], ids=str)
    def test_matches_polynomial_reference(self, dom):
        rng = random.Random(5)
        for _ in range(60):
            a, b = random_module(rng, 1, 3), random_module(rng, 4, 4)
            c = random_module(rng, 8, 3)
            f1, f2 = random_map(rng, b, a, dom), random_map(rng, b, a, dom)
            g1, g2 = random_map(rng, c, b, dom), random_map(rng, c, b, dom)
            assert compose(f1, g1).entries == reference_sum([(f1, g1)])
            for terms in ([(f1, g1)], [(f1, g1), (f2, g2, -1)],
                          [(f1, g1), (f1, g1, -1)], [(f1, None), (f2, g2)]):
                ref = reference_sum(terms)
                assert _nonzero_source(*terms) == \
                    min((src for _, src in ref), default=None)

    def test_cancels_only_mod_p(self):
        # a <- b <- c with composites 2 * 3 + 4 * 1 = 10, zero mod 5 only
        a, b, c = (Label((i,), (), 0) for i in (1, 2, 3))
        ma, mb, mc = FreeModule((a,)), FreeModule((b,)), FreeModule((c,))
        for dom, witness in ((GF(5), None), (QQ, c), (ZZ, c)):
            def f(v):
                return SparseMap(mb, ma, {(a, b): Polynomial.constant(
                    2, dom, v)}, 2, dom)

            def g(v):
                return SparseMap(mc, mb, {(b, c): Polynomial.constant(
                    2, dom, v)}, 2, dom)

            assert _nonzero_source((f(2), g(3)), (f(4), g(1))) == witness
            assert compose(f(2), g(3)).entries == {
                (a, c): Polynomial.constant(2, dom, 6)}

    def test_rejects_maps_over_different_rings(self):
        m = FreeModule((UNIT,))
        f = SparseMap(m, m, {(UNIT, UNIT): P("1")}, 2, QQ)
        g = SparseMap(m, m, {(UNIT, UNIT): parse_poly("1", 2, GF(5))}, 2,
                      GF(5))
        with pytest.raises(ValueError, match="different rings"):
            _nonzero_source((f, g))
        with pytest.raises(ValueError, match="different rings"):
            _nonzero_source((f, f), (g, g))


class TestVerifyComplex:
    def test_koszul_ok(self):
        assert verify_complex(koszul2()).ok

    def test_corrupted_sign_caught(self):
        c = koszul2()
        m1, m2 = c.module(1), c.module(2)
        bad_d2 = SparseMap(m2, m1, {(E2, E12): P("x1"), (E1, E12): P("x2")},
                           2, QQ)
        bad = ChainComplex(2, QQ, dict(c.modules), {1: c.differential(1),
                                                    2: bad_d2})
        rep = verify_complex(bad)
        assert not rep.ok
        assert rep.failing_degree == 2
        assert rep.witness == E12


class TestTensorModI:
    def test_koszul_tensors_to_zero(self):
        t = tensor_mod_I(koszul2(), SPEC2)
        assert all(t.differential(n).is_zero() for n in (1, 2))
        assert t.dims() == (1, 2, 1)

    def test_mixed_entry_reduces_to_constant(self):
        g0 = Label((), (), 0)
        g1 = Label((), (1,), 1)  # tag carries internal degree 1
        h1 = Label((1,), (), 1)
        m1 = FreeModule((h1,))
        m0 = FreeModule((g0, g1))
        # entry x1 dies, entry 3 (between equal internal degrees) survives
        f = SparseMap(m1, m0, {(g0, h1): P("x1"), (g1, h1): P("3")}, 2, QQ)
        c = ChainComplex(2, QQ, {0: m0, 1: m1}, {1: f})
        t = tensor_mod_I(c, SPEC2)
        assert t.differential(1).entries == {(g1, h1): P("3")}

    def test_irreducible_entry_rejected(self):
        g0 = Label((), (), 0)
        h2 = Label((), (1, 1), 2)
        f = SparseMap(FreeModule((h2,)), FreeModule((g0,)),
                      {(g0, h2): P("x1*x2")}, 2, QQ)
        c = ChainComplex(2, QQ, {0: FreeModule((g0,)), 1: FreeModule((h2,))},
                         {1: f})
        with pytest.raises(ValueError):
            tensor_mod_I(c, SPEC2)

    def test_combination_entry_rejected(self):
        # x1 + 2*x2 lies in I, but a tag-keeping entry must be +-u_i
        g0 = Label((), (), 0)
        h1 = Label((1,), (), 1)
        f = SparseMap(FreeModule((h1,)), FreeModule((g0,)),
                      {(g0, h1): P("x1 + 2*x2")}, 2, QQ)
        c = ChainComplex(2, QQ, {0: FreeModule((g0,)), 1: FreeModule((h1,))},
                         {1: f})
        with pytest.raises(ValueError, match="neither"):
            tensor_mod_I(c, SPEC2)


class TestGradedSlice:
    def test_koszul_slice_identity(self):
        sl = graded_slice(koszul2(), 1, 1)
        assert [lbl for lbl, _ in sl.col_basis] == [E1, E2]
        assert [m for _, m in sl.row_basis] == [(1, 0), (0, 1)]
        assert sl.rows == [[1, 0], [0, 1]]
        assert sl.rank() == 2

    def test_empty_slice(self):
        sl = graded_slice(koszul2(), 2, 1)  # e12 has internal degree 2
        assert sl.n_cols == 0
        assert sl.rank() == 0

    def test_slice_dims_match_combinatorics(self):
        c = koszul2()
        # dim (K_1)_d = 2 * dim R_{d-1}
        for d in range(1, 5):
            assert slice_dim(c, 1, d) == 2 * d

    def test_rank_nullity_budget(self):
        c = koszul2()
        for n in range(3):
            for d in range(5):
                r1 = graded_slice(c, n, d).rank()
                r2 = graded_slice(c, n + 1, d).rank()
                assert r1 + r2 <= slice_dim(c, n, d)

    def test_tensor_then_slice_commutes(self):
        c = koszul2()
        t = tensor_mod_I(c, SPEC2)
        for n in (1, 2):
            for d in range(4):
                a = map_slice(t.differential(n), d)
                b = graded_slice(t, n, d)
                assert a.rows == b.rows


def dense_slice_reference(f: SparseMap, d: int) -> list[list]:
    """The dense slice loop map_slice ran before it went sparse: columns
    as dicts, then expanded into dense rows."""
    dom = f.domain
    row_basis = slice_basis(f.target, f.n_vars, d)
    col_basis = slice_basis(f.source, f.n_vars, d)
    row_index = {rc: i for i, rc in enumerate(row_basis)}
    zero = dom.zero()
    cols = []
    f_cols = f.columns()
    for g, mu in col_basis:
        col = {}
        for tgt, p in f_cols[g]:
            for mon, cval in p.terms.items():
                i = row_index[(tgt, mono_mul(mon, mu))]
                col[i] = dom.add(col.get(i, zero), cval)
        cols.append(col)
    rows = [[zero] * len(col_basis) for _ in range(len(row_basis))]
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v != zero:
                rows[i][j] = v
    return rows


def _linear_forms(dom):
    return RegularSequenceSpec.explicit(
        [parse_poly(t, 3, dom) for t in ("x1+2*x2-x3", "x2-x3", "x3")])


SLICE_SPECS = {
    "vars": lambda dom: RegularSequenceSpec.variables(3, dom),
    "powers:1,2,2": lambda dom: RegularSequenceSpec.variable_powers(
        (1, 2, 2), dom),
    "linear forms": _linear_forms,
}


class TestSparseSliceEquivalence:
    """map_slice builds sparse rows; its dense view and its rank must match
    the dense reference loop on Koszul and K_{R,I^s} complexes."""

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("kind", sorted(SLICE_SPECS))
    def test_rows_and_rank_match_dense(self, kind, dom):
        spec = SLICE_SPECS[kind](dom)
        field = dom if dom.is_field else QQ
        for c in (koszul_complex(spec), build_k_ris(spec, 2)):
            for n in range(1, c.max_degree + 1):
                for d in range(5):
                    sl = map_slice(c.differential(n), d)
                    dense = dense_slice_reference(c.differential(n), d)
                    assert sl.rows == dense
                    assert all(v for r in sl.sparse_rows() for v in r.values())
                    assert sl.rank() == rank_dense(dense, sl.n_cols, field)


class TestChainMap:
    def test_identity_chain_map(self):
        c = koszul2()
        comps = {n: SparseMap(c.module(n), c.module(n),
                              {(g, g): P("1") for g in c.module(n)}, 2, QQ)
                 for n in range(3)}
        assert ChainMap(c, c, comps).verify().ok

    def test_non_chain_map_caught(self):
        c = koszul2()
        comps = {n: SparseMap(c.module(n), c.module(n),
                              {(g, g): P("1") for g in c.module(n)}, 2, QQ)
                 for n in range(3)}
        comps[1] = comps[1].scale(2)
        rep = ChainMap(c, c, comps).verify()
        assert not rep.ok and rep.failing_degree == 1


class TestElements:
    def test_add_and_cancel(self):
        a = {E1: P("x1")}
        b = {E1: P("-x1"), E2: P("1", 2)}
        assert element_add(a, b) == {E2: P("1", 2)}

    def test_str_sorted(self):
        s = element_str({E2: P("x1"), E1: P("1", 2)})
        assert s == "(1)*e{1} + (x1)*e{2}"
        assert element_str({}) == "0"


class TestReportLines:
    def test_shape(self):
        lines = koszul2().report_lines()
        assert lines[0] == "degree 0: dim 1: 1(deg 0)"
        assert "d_1:" in lines
        assert "  1 <- e{1} : x1" in lines
