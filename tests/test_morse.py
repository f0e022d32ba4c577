"""The max-rule Morse matching on K (x) R/I (resolution.MorseMatching): its
critical cells against a closed form, its projection against the
boundaries, and its runtime certificate against broken complexes.  Tor,
freeness and collapse read all their numbers off it, so they must do no
elimination, and a broken certificate must fail them with exit code 1."""

import pytest

from oracles import betti_closed_form, critical_cell_counts
import koszulpow.linalg as linalg
import koszulpow.resolution as resolution
from koszulpow import cli
from koszulpow.chain import ChainComplex, FreeModule, Label, SparseMap
from koszulpow.homology import freeness_check, induced_tor_map, tor
from koszulpow.poly import GF, QQ, ZZ, Polynomial, RegularSequenceSpec
from koszulpow.resolution import (MorseMatching, reduction_chain_map,
                                  tensor_mod_I_complex)
from koszulpow.spectral import collapse_check


def matching(n, s, dom=QQ):
    t = tensor_mod_I_complex(RegularSequenceSpec.variables(n, dom), s)
    return MorseMatching(t, s)


@pytest.mark.parametrize("n", range(1, 13))
def test_critical_count_formula_is_the_eagon_northcott_betti(n):
    for s in range(1, 7):
        assert critical_cell_counts(n, s) == betti_closed_form(n, s)


@pytest.mark.parametrize("n,s", [(7, 3), (6, 4), (5, 5)])
def test_critical_cells_counted_at_the_frontier(n, s):
    m = matching(n, s)
    assert m.failure is None
    assert tuple(map(len, m.critical)) == critical_cell_counts(n, s)
    # the pairs and the critical cells cover every label once
    assert all(m.t.module(q).dim == len(m.critical[q]) + m.pairs[q]
               + (m.pairs[q + 1] if q < n else 0) for q in range(n + 1))


def test_critical_cells_are_top_tag_labels():
    m = matching(3, 3)
    assert [str(g) for g in m.critical[0]] == ["1"]
    for cells in m.critical[1:]:
        for g in cells:
            assert len(g.tag) == 2 and g.exterior[-1] >= g.tag[-1]


@pytest.mark.parametrize("dom", [QQ, ZZ, GF(7)], ids=str)
@pytest.mark.parametrize("n,s", [(3, 3), (4, 3), (4, 4)])
def test_projection_kills_every_boundary(n, s, dom):
    m = matching(n, s, dom)
    one = Polynomial.one(n, dom)
    for q in range(m.t.max_degree + 1):
        d = m.t.differential(q + 1)
        for g in m.t.module(q + 1):
            assert m.project(d.apply({g: one})) == {}
        for g in m.critical[q]:
            assert m.project({g: one}) == {g: one}


def test_projection_rejects_a_non_constant_coefficient():
    m = matching(2, 2)
    x1 = Polynomial.variable(2, QQ, 1)
    with pytest.raises(ValueError, match="non-constant coefficient"):
        m.project({m.critical[1][0]: x1})


# ---------------------------------------------------------------------------
# Broken complexes.

ONE = Polynomial.one(2, QQ)
E1, E2 = Label((1,), (), 1), Label((2,), (), 1)
T1, T2, UNIT = Label((), (1,), 1), Label((), (2,), 1), Label((), (), 0)


def two_term(entries):
    """Degrees 1 and 0 of K (x) R/I for two generators at s = 2, with the
    given d_1 entries: e{1} and e{2} are matched down to t(1) and t(2)."""
    m0, m1 = FreeModule((UNIT, T1, T2)), FreeModule((E1, E2))
    d1 = SparseMap(m1, m0, entries, 2, QQ)
    return ChainComplex(2, QQ, {0: m0, 1: m1}, {1: d1})


def test_certificate_holds_on_the_real_pair():
    m = MorseMatching(two_term({(T1, E1): ONE, (T2, E2): -ONE}), 2)
    assert m.failure is None and m.pairs == [0, 2]


def test_certificate_rejects_a_non_unit_pair():
    m = MorseMatching(two_term({(T1, E1): ONE.scale(2), (T2, E2): ONE}), 2)
    assert m.failure == "e{1}: matched entry 2 to t(1) is not +-1"
    with pytest.raises(ValueError, match="no Morse projection"):
        m.project({T1: ONE})


def test_certificate_rejects_a_zig_zag_cycle():
    # e{1} -> t(2) ~ e{2} -> t(1) ~ e{1}: both pairs are units, no order
    m = MorseMatching(two_term({(T1, E1): ONE, (T2, E1): ONE,
                                (T2, E2): ONE, (T1, E2): ONE}), 2)
    assert m.failure.endswith(": on a zig-zag cycle")


def test_certificate_rejects_a_critical_boundary():
    # at s = 1 every exterior label is critical and must be a cycle
    m0, m1 = FreeModule((UNIT,)), FreeModule((E1, E2))
    d1 = SparseMap(m1, m0, {(UNIT, E2): Polynomial.variable(2, QQ, 2)},
                   2, QQ)
    m = MorseMatching(ChainComplex(2, QQ, {0: m0, 1: m1}, {1: d1}), 1)
    assert m.failure == "e{2}: critical, nonzero differential"


def test_certificate_rejects_a_missing_mate():
    m0, m1 = FreeModule((UNIT, T1)), FreeModule((E1, E2))
    d1 = SparseMap(m1, m0, {(T1, E1): ONE}, 2, QQ)
    m = MorseMatching(ChainComplex(2, QQ, {0: m0, 1: m1}, {1: d1}), 2)
    assert m.failure == "e{2}: mate t(2) not matched back"


@pytest.fixture
def doubled_pair(monkeypatch):
    """The transfer entries the resolutions are built from, with the
    matched entry e{1} -> t(1) doubled: an integral defect that every
    rank over Q misses."""
    real = resolution.transfer_entries

    def doubled(spec, source):
        ent = real(spec, source)
        key = (Label((), (1,), 1), Label((1,), (), 1))
        if key in ent:
            ent[key] = ent[key].scale(2)
        return ent

    monkeypatch.setattr(resolution, "transfer_entries", doubled)


def test_broken_pair_fails_every_reader(doubled_pair):
    spec = RegularSequenceSpec.variables(2, ZZ)
    rep = tor(spec, 2)
    assert rep.routes_agree and rep.ranks == (1, 3, 2)
    assert rep.failure == "e{1}: matched entry 2 to t(1) is not +-1"
    free = freeness_check(spec, 2)
    assert not free.ok and free.offending == [rep.failure]
    collapse = collapse_check(spec, 2)
    assert not collapse.ok and collapse.page_ranks == collapse.tor_ranks


def test_broken_pair_fails_the_induced_map(doubled_pair):
    spec = RegularSequenceSpec.variables(2, ZZ)
    with pytest.raises(ValueError, match=r"uncertified basis: e\{1\}: "):
        induced_tor_map(reduction_chain_map(spec, 2))


@pytest.mark.parametrize("command", ["tor", "verify"])
def test_broken_pair_exits_one_without_traceback(doubled_pair, command,
                                                 capsys):
    import json
    assert cli.run([command, "--n", "2", "--s", "2", "--field", "Z"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    line = "e{1}: matched entry 2 to t(1) is not +-1"
    if command == "tor":
        assert doc["report"]["matching"] == line
    else:
        assert line in doc["report"]["freeness"]["offending"]


def k_with_d1(monkeypatch, edit):
    """Make resolution.build_k_ris return K for two variables at s = 2
    with its d_1 entries passed through edit."""
    spec = RegularSequenceSpec.variables(2)
    k = resolution.build_k_ris(spec, 2)
    d1 = k.differential(1)
    broken = resolution.KRIsComplex(spec, 2, k.modules, {
        **k.diffs, 1: SparseMap(d1.source, d1.target, edit(dict(d1.entries)),
                                2, QQ)})
    monkeypatch.setattr(resolution, "build_k_ris", lambda *_: broken)
    return spec


@pytest.mark.parametrize("edit,line", [
    (lambda ent: {**ent, (T1, E1): ent[(T1, E1)].scale(2)},
     "e{1}: matched entry 2 to t(1) is not +-1"),
    # e{1} -> t(2) ~ e{2} -> t(1) ~ e{1}, beside the boundary entries
    (lambda ent: {**ent, (T2, E1): ONE, (T1, E2): ONE},
     "e{1}: on a zig-zag cycle")], ids=["doubled transfer", "zig-zag cycle"])
def test_failed_certificate_on_k_fails_exactness(monkeypatch, edit, line):
    rep = resolution.verify_exactness(k_with_d1(monkeypatch, edit), 2)
    assert not rep.ok and rep.homology == {}
    assert rep.mismatches == [f"Morse matching on K: {line}"]


def test_k_certificate_skips_only_the_critical_cycle_check():
    k = resolution.build_k_ris(RegularSequenceSpec.variables(3), 2)
    assert MorseMatching(k, 2).failure.endswith(
        ": critical, nonzero differential")
    assert MorseMatching(k, 2, tensored=False).failure is None


# ---------------------------------------------------------------------------
# No elimination on the tensored complex.

def test_tor_freeness_collapse_eliminate_nothing(count_calls):
    calls = count_calls("linalg.Echelon.insert", "linalg.kernel_basis",
                        "linalg.smith_normal_form")
    for dom in (QQ, ZZ, GF(5)):
        spec = RegularSequenceSpec.variables(3, dom)
        for s in (1, 2, 3):
            assert tor(spec, s).routes_agree
            assert collapse_check(spec, s).ok
            if dom.kind != "Fp":
                assert freeness_check(spec, s).ok
    assert calls == dict.fromkeys(calls, 0)
    assert not hasattr(linalg, "class_coordinates")
