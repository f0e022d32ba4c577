import pytest

from oracles import e1_rank_formula
from koszulpow.poly import QQ, ZZ, GF, RegularSequenceSpec
from koszulpow.parse import parse_poly
from koszulpow.chain import constant_rows, make_label
from koszulpow.koszul import del_map, q_module
from koszulpow.morse import tensor_mod_I_complex
from koszulpow.resolution import build_k_ris
from koszulpow.spectral import (e1_page, e2_page, off_support_cells,
                                collapse_check, support_blocks,
                                label_support, _page_one)


SPEC2 = RegularSequenceSpec.variables(2)
SPEC3 = RegularSequenceSpec.variables(3)


def d1_form(f):
    """A transfer map in page 1's d1 form: target and source labels, rows."""
    return f.target.labels, f.source.labels, constant_rows(f)


def _linear_forms(dom):
    return RegularSequenceSpec.explicit(
        [parse_poly(p, 3, dom) for p in ("x1+2*x2-x3", "x2-x3", "x3")])


class TestSplitEquivalence:
    """Page 1's split of the tensored resolution is koszul's double
    complex: its cells are the q_module cells and d1 is the del_map
    family, label for label and entry for entry."""

    @staticmethod
    def check(spec, s):
        n = spec.n_gens
        page = e1_page(spec, s)
        assert page.d1 == {(p, q): d1_form(del_map(spec, p)[q])
                           for p in range(s - 1) for q in range(1, n + 1)}
        assert page.cells == {(p, q): q_module(spec, p, q).dim
                              for p in range(s) for q in range(n + 1)}

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_variables_grid(self, n, s, dom):
        self.check(RegularSequenceSpec.variables(n, dom), s)

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("s", [2, 3])
    def test_powers_and_linear_forms(self, s, dom):
        self.check(RegularSequenceSpec.variable_powers((1, 2, 2), dom), s)
        self.check(_linear_forms(dom), s)


class TestPageOne:
    def test_vertical_entry_surviving_mod_I_rejected(self):
        # the untensored resolution keeps its vertical (Koszul) entries
        with pytest.raises(ValueError, match="survives mod I"):
            _page_one(build_k_ris(SPEC2, 2))

    def test_binomial_formula_grid(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3):
                page = e1_page(spec, s)
                for p in range(s):
                    for q in range(n + 1):
                        assert page.rank(p, q) == e1_rank_formula(n, p, q)

    def test_columns_two_vars_square(self):
        page = e1_page(SPEC2, 2)
        assert [page.rank(0, q) for q in range(3)] == [1, 2, 1]
        assert [page.rank(1, q) for q in range(3)] == [2, 4, 2]

    def test_first_transfer_is_identity(self):
        page = e1_page(SPEC2, 2)
        assert page.d1[(0, 1)][2] == [{0: 1}, {1: 1}]

    def test_last_column_three_vars(self):
        page = e1_page(SPEC3, 3)
        for q in range(4):
            assert page.rank(2, q) == e1_rank_formula(3, 2, q) == \
                6 * [1, 3, 3, 1][q]

    def test_transfer_entries_are_unit_constants(self):
        page = e1_page(SPEC3, 3)
        for _, _, rows in page.d1.values():
            for row in rows:
                assert all(v.__class__ is int and v in (1, -1)
                           for v in row.values())

    def test_no_transfer_out_of_last_column(self):
        page = e1_page(SPEC2, 3)
        assert all(p < 2 for (p, q) in page.d1)

    def test_grid_lines(self):
        lines = e1_page(SPEC2, 2).grid_lines()
        assert lines[0] == "page 1, s=2, 2 generators"
        assert any("q=0" in line for line in lines)


class TestPageTwo:
    def test_two_vars_square(self):
        page = e2_page(SPEC2, 2)
        nonzero = {k: v for k, v in page.cells.items() if v}
        assert nonzero == {(0, 0): 1, (1, 1): 3, (1, 2): 2}

    def test_support_structure_grid(self):
        for n in (1, 2, 3, 4):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3, 4):
                assert off_support_cells(e2_page(spec, s)) == [], (n, s)

    def test_intermediate_columns_vanish(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            page = e2_page(spec, 3)
            for q in range(n + 1):
                assert page.rank(1, q) == 0

    def test_single_column_equals_page_one(self):
        p1 = e1_page(SPEC2, 1)
        p2 = e2_page(SPEC2, 1)
        assert p1.cells == p2.cells

    def test_unit_cell_survives(self):
        for s in (1, 2, 3):
            assert e2_page(SPEC2, s).rank(0, 0) == 1


class TestCollapse:
    def test_two_vars_square(self):
        rep = collapse_check(SPEC2, 2)
        assert rep.ok
        assert rep.page_ranks == (1, 3, 2)
        assert rep.tor_ranks == (1, 3, 2)
        assert "collapse: ok" in rep.lines()

    def test_three_vars(self):
        assert collapse_check(SPEC3, 2).ok
        assert collapse_check(SPEC3, 3).ok

    def test_single_column(self):
        rep = collapse_check(SPEC2, 1)
        assert rep.ok
        assert rep.page_ranks == (1, 2, 1)

    def test_heterogeneous_degrees(self):
        spec = RegularSequenceSpec.variable_powers((2, 3))
        assert collapse_check(spec, 2).ok

    def test_prime_field(self):
        assert collapse_check(RegularSequenceSpec.variables(2, GF(2)), 2).ok

    def test_spectral_command_builds_each_page_once(self, monkeypatch):
        import koszulpow.cli as cli
        import koszulpow.homology as homology
        import koszulpow.spectral as spectral
        calls = {}

        def count(name, orig, *modules):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return orig(*args, **kwargs)
            for mod in modules:
                monkeypatch.setattr(mod, name, wrapper)

        # cli and homology read the pages through the spectral module
        count("e1_page", spectral.e1_page, spectral)
        count("e2_page", spectral.e2_page, spectral)
        count("tor", homology.tor, homology, cli)
        cfg = cli.build_config(
            cli.make_parser().parse_args(["spectral", "--n", "3", "--s", "3"]))
        payload, ok = cli.cmd_spectral(cfg, cfg.spec())
        assert ok and payload["collapse"]["tor_ranks"] == [1, 10, 15, 6]
        assert calls == {"e1_page": 1, "e2_page": 1}

    def test_spectral_command_builds_one_resolution(self, count_calls, capsys):
        from koszulpow import cli
        calls = count_calls("resolution.build_k_ris", "chain.tensor_mod_I")
        assert cli.run(["spectral", "--n", "4", "--s", "3",
                        "--field", "Fp:31991"]) == 0
        assert '"ok": true' in capsys.readouterr().out
        # pages 1 and 2 and the collapse check's direct ranks all read the
        # one tensored resolution, written from its labels
        assert calls == {"resolution.build_k_ris": 0, "chain.tensor_mod_I": 0}

    def test_one_integer_read_per_tensored_differential(self, count_calls,
                                                        capsys):
        from koszulpow import cli
        calls = count_calls("chain.constant_rows")
        assert cli.run(["spectral", "--n", "4", "--s", "3",
                        "--field", "Z"]) == 0
        assert '"ok": true' in capsys.readouterr().out
        # page 1 cuts d1 from t's four differentials; page 2 and the
        # support blocks read those rows
        assert calls == {"chain.constant_rows": 4}

    def test_page_one_builds_no_map_or_module(self, count_calls):
        t = tensor_mod_I_complex(RegularSequenceSpec.variables(3, ZZ), 3)
        calls = count_calls("chain.SparseMap.__init__",
                            "chain.FreeModule.__init__")
        assert _page_one(t).d1
        assert calls == {"chain.SparseMap.__init__": 0,
                         "chain.FreeModule.__init__": 0}


class TestSupportBlocks:
    def test_supports_two_vars(self):
        rep = support_blocks(*d1_form(del_map(SPEC2, 1)[1]))
        assert [b.support for b in rep.blocks] == [(1,), (1, 2), (2,)]

    def test_blockwise_equals_global_grid(self):
        for p in (0, 1, 2):
            for q in (1, 2, 3):
                rep = support_blocks(*d1_form(del_map(SPEC3, p)[q]))
                assert rep.ok, (p, q)
                assert rep.global_divisors == rep.merged_divisors

    def test_partition_covers_everything(self):
        f = del_map(SPEC3, 1)[2]
        rep = support_blocks(*d1_form(f))
        assert sum(b.shape[0] for b in rep.blocks) == f.target.dim
        assert sum(b.shape[1] for b in rep.blocks) == f.source.dim
        total = sum(len(row) for b in rep.blocks for row in b.matrix)
        assert total == len(f.entries)

    def test_integer_path_densifies_no_matrix(self, count_calls, capsys):
        from koszulpow import cli
        calls = count_calls("linalg.dense_row")
        assert cli.run(["spectral", "--n", "3", "--s", "3",
                        "--field", "Z"]) == 0
        assert '"ok": true' in capsys.readouterr().out
        # the block and global Smith forms read the transfer maps' rows
        assert calls == {"linalg.dense_row": 0}

    def test_each_label_support_read_once(self, count_calls):
        f = del_map(RegularSequenceSpec.variables(4), 1)[2]
        calls = count_calls("spectral.label_support")
        assert support_blocks(*d1_form(f)).ok
        assert calls["spectral.label_support"] <= f.source.dim + f.target.dim

    def test_label_support(self):
        g = make_label(SPEC3, (1, 3), (2, 3))
        assert label_support(g) == (1, 2, 3)

    def test_crossing_entry_rejected(self):
        src = make_label(SPEC2, (1,), (1,))
        tgt = make_label(SPEC2, (), (2, 2))
        with pytest.raises(ValueError, match="crosses support blocks"):
            support_blocks((tgt,), (src,), [{0: 1}])

    def test_unit_divisors_on_transfer_maps(self):
        # every transfer block has unit elementary divisors
        for p in (0, 1):
            for q in (1, 2):
                rep = support_blocks(*d1_form(del_map(SPEC2, p)[q]))
                assert all(d == 1 for d in rep.global_divisors)
