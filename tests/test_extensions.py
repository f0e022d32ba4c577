import pytest

from koszulpow.poly import (QQ, ZZ, GF, RegularSequenceSpec, Polynomial,
                            parse_poly)
from koszulpow.ideals import SubquotientModule
from koszulpow.linalg import mat_vec
from koszulpow.chain import SparseMap, make_label, verify_complex, slice_basis
from koszulpow.koszul import koszul_complex, q_complex
from koszulpow.resolution import build_k_ris
from koszulpow.extensions import (GradedSES, power_ses, split_power_ses,
                                  ConnectingMap, verify_connecting, splice,
                                  power_connecting, iterated_splice,
                                  theta_representative)


SPEC2 = RegularSequenceSpec.variables(2)
SPEC3 = RegularSequenceSpec.variables(3)


def theta_slice_matrix(P, ses, report, d):
    """Dense degree-d slice of the representative P_1 -> sub: columns in
    slice-basis order of P_1, rows the submodule's degree-d basis."""
    fd = ses.field
    cols = []
    for g, mu in slice_basis(P.module(1), P.n_vars, d):
        muf = Polynomial(P.n_vars, fd, {mu: fd.one()})
        cols.append(mat_vec(ses.sub.action(muf, g.ideg),
                            report.image_coords[g], fd))
    return [[col[i] for col in cols] for i in range(ses.dim_sub(d))]


class TestGradedSES:
    def test_power_sequence_exact(self):
        rep = power_ses(SPEC2, 2).verify(8)
        assert rep.ok
        assert rep.summary() == "slicewise exact up to internal degree 8"

    def test_power_sequence_exact_higher(self):
        assert power_ses(SPEC3, 3).verify(6).ok
        assert power_ses(SPEC2, 4).verify(6).ok

    def test_split_sequence_exact(self):
        assert split_power_ses(SPEC2, 2).verify(8).ok
        assert split_power_ses(SPEC3, 3).verify(5).ok

    def test_middle_dimension_is_sum(self):
        ses = power_ses(SPEC2, 3)
        for d in range(7):
            assert ses.dim_mid(d) == ses.dim_sub(d) + ses.dim_quotient(d)

    def test_matrix_shapes(self):
        ses = power_ses(SPEC2, 2)
        for d in range(5):
            inj = ses.injection_matrix(d)
            surj = ses.surjection_matrix(d)
            assert len(inj) == ses.dim_mid(d)
            assert all(len(r) == ses.dim_sub(d) for r in inj)
            assert len(surj) == ses.dim_quotient(d)
            assert all(len(r) == ses.dim_mid(d) for r in surj)

    def test_oversized_middle_flagged(self):
        # wrong middle term: R/I^3 cannot sit between I/I^2 and R/I
        bad = GradedSES(SPEC2, SubquotientModule(SPEC2, 1, 2),
                        SubquotientModule(SPEC2, 0, 1),
                        mid=SubquotientModule(SPEC2, 0, 3))
        rep = bad.verify(4)
        assert not rep.ok
        assert any(d == 2 for d, _ in rep.failures)
        assert "fails at internal degree" in rep.summary()

    def test_prime_field_spec(self):
        ses = power_ses(RegularSequenceSpec.variables(2, domain=GF(5)), 2)
        assert ses.field.kind == "Fp"
        assert ses.verify(6).ok
        # the composite's entries sum past p, so they are reduced mod p
        # before they are compared with zero
        spec = RegularSequenceSpec.explicit([
            parse_poly("x1 + 2*x2", 2, GF(5)),
            parse_poly("3*x1^2 + x2^2", 2, GF(5))])
        assert power_ses(spec, 2).verify(4).ok
        assert power_ses(spec, 3).verify(5).ok

    def test_split_action_is_block_diagonal(self):
        ses = split_power_ses(SPEC2, 2)
        x1 = SPEC2.gens[0]
        m = ses.mid_action(x1, 1)
        la = ses.dim_sub(2)
        ca = ses.dim_sub(1)
        assert len(m) == ses.dim_mid(2)
        zero = ses.field.zero()
        # off-diagonal blocks vanish
        assert all(m[i][j] == zero for i in range(la) for j in range(ca, len(m[0])))
        assert all(m[i][j] == zero for i in range(la, len(m)) for j in range(ca))

    def test_small_power_rejected(self):
        with pytest.raises(ValueError):
            power_ses(SPEC2, 1)
        with pytest.raises(ValueError):
            split_power_ses(SPEC2, 1)

    def test_descriptions(self):
        assert power_ses(SPEC2, 3).description == "I^2/I^3 -> R/I^3 -> R/I^2"
        assert "split" in split_power_ses(SPEC2, 3).description


class TestConnectingMap:
    def test_transfer_family_compatible(self):
        P = koszul_complex(SPEC2)
        rep = verify_connecting(P, q_complex(SPEC2, 1),
                                power_connecting(SPEC2, P, 1))
        assert rep.ok
        assert rep.checked == 3
        assert rep.summary() == "compatibility holds (3 degrees checked)"

    def test_entries_are_signs(self):
        delta = power_connecting(SPEC3, koszul_complex(SPEC3), 1)
        one = QQ.one()
        for n in (1, 2, 3):
            for poly in delta.component(n).entries.values():
                c = poly.constant_value()
                assert c == one or c == QQ.neg(one)

    def test_out_of_range_component_is_zero(self):
        delta = power_connecting(SPEC2, koszul_complex(SPEC2), 1)
        assert delta.component(7).is_zero()
        assert delta.component(0).is_zero()

    def test_single_scaled_component_fails(self):
        # scaling everything would stay compatible; one degree must not
        P = koszul_complex(SPEC2)
        bad = power_connecting(SPEC2, P, 1).scaled(1, 2)
        rep = verify_connecting(P, q_complex(SPEC2, 1), bad)
        assert not rep.ok
        assert rep.failures[0][0] == 2
        assert "fails at degree 2" in rep.summary()

    def test_dropped_sign_witnessed_at_top_wedge(self):
        P = koszul_complex(SPEC2)
        delta = power_connecting(SPEC2, P, 1)
        comp = delta.component(2)
        ent = dict(comp.entries)
        for (tgt, src), poly in comp.entries.items():
            if src.exterior == (1, 2):
                ent[(tgt, src)] = poly.scale(-1)
                break
        bad = ConnectingMap(P, q_complex(SPEC2, 1),
                            {1: delta.component(1),
                             2: SparseMap(comp.source, comp.target, ent, 2, QQ)})
        rep = verify_connecting(P, q_complex(SPEC2, 1), bad)
        assert not rep.ok
        assert rep.failures[0][1] == make_label(SPEC2, (1, 2), ())


class TestSplice:
    def test_single_step_matches_direct_build(self):
        P = koszul_complex(SPEC2)
        out = splice(P, q_complex(SPEC2, 1), power_connecting(SPEC2, P, 1))
        ref = build_k_ris(SPEC2, 2)
        assert out.same_shape_as(ref)
        assert out.equal_maps(ref)

    def test_zero_connecting_gives_direct_sum(self):
        P = koszul_complex(SPEC2)
        Q = q_complex(SPEC2, 1)
        out = splice(P, Q, ConnectingMap(P, Q, {}))
        for n in (1, 2):
            want = dict(P.differential(n).entries)
            want.update(Q.differential(n).entries)
            assert out.differential(n).entries == want

    def test_output_squares_to_zero(self):
        P = koszul_complex(SPEC3)
        out = splice(P, q_complex(SPEC3, 1), power_connecting(SPEC3, P, 1))
        assert verify_complex(out).ok

    def test_labels_sorted(self):
        P = koszul_complex(SPEC2)
        out = splice(P, q_complex(SPEC2, 1), power_connecting(SPEC2, P, 1))
        for n in range(out.max_degree + 1):
            labels = out.module(n).labels
            assert list(labels) == sorted(labels, key=lambda g: g.sort_key)

    def test_corrupted_connecting_rejected(self):
        P = koszul_complex(SPEC2)
        bad = power_connecting(SPEC2, P, 1).scaled(2, 3)
        with pytest.raises(ValueError, match="witness"):
            splice(P, q_complex(SPEC2, 1), bad)

    def test_mixed_rings_rejected(self):
        P = koszul_complex(SPEC2)
        Q = q_complex(RegularSequenceSpec.variables(2, domain=ZZ), 1)
        with pytest.raises(ValueError, match="different rings"):
            splice(P, Q, ConnectingMap(P, Q, {}))

    def test_overlapping_labels_rejected(self):
        P = koszul_complex(SPEC2)
        with pytest.raises(ValueError):
            splice(P, P, ConnectingMap(P, P, {}))


class TestIteratedSplice:
    def test_matches_direct_build(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3, 4):
                out = iterated_splice(spec, s)
                ref = build_k_ris(spec, s)
                assert out.same_shape_as(ref)
                assert out.equal_maps(ref)

    def test_first_power_is_exterior_complex(self):
        assert iterated_splice(SPEC2, 1).equal_maps(koszul_complex(SPEC2))

    def test_integer_domain(self):
        spec = RegularSequenceSpec.variables(2, domain=ZZ)
        assert iterated_splice(spec, 3).equal_maps(build_k_ris(spec, 3))

    def test_prime_field_domain(self):
        spec = RegularSequenceSpec.variables(3, domain=GF(2))
        assert iterated_splice(spec, 2).equal_maps(build_k_ris(spec, 2))

    def test_variable_powers(self):
        spec = RegularSequenceSpec.variable_powers((2, 3))
        assert iterated_splice(spec, 3).equal_maps(build_k_ris(spec, 3))

    def test_dims_grow_by_column(self):
        assert iterated_splice(SPEC2, 2).dims() == (3, 6, 3)
        assert iterated_splice(SPEC2, 3).dims() == (6, 12, 6)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            iterated_splice(SPEC2, 0)


class TestTheta:
    def test_nontrivial_for_square_power(self):
        th = theta_representative(koszul_complex(SPEC2), power_ses(SPEC2, 2))
        assert not th.trivial
        assert th.cocycle_ok
        assert sorted(th.images.values()) == ["x1", "x2"]

    def test_generator_images(self):
        th = theta_representative(koszul_complex(SPEC2), power_ses(SPEC2, 2))
        e1 = make_label(SPEC2, (1,), ())
        e2 = make_label(SPEC2, (2,), ())
        assert th.images[e1] == "x1"
        assert th.images[e2] == "x2"

    def test_three_variables(self):
        th = theta_representative(koszul_complex(SPEC3), power_ses(SPEC3, 2))
        assert not th.trivial
        assert th.cocycle_ok
        assert sorted(th.images.values()) == ["x1", "x2", "x3"]

    def test_variable_powers(self):
        spec = RegularSequenceSpec.variable_powers((2, 3))
        th = theta_representative(koszul_complex(spec), power_ses(spec, 2))
        assert not th.trivial
        assert sorted(th.images.values()) == ["x1^2", "x2^3"]

    def test_split_sequence_trivial(self):
        th = theta_representative(koszul_complex(SPEC2),
                                  split_power_ses(SPEC2, 2))
        assert th.trivial
        assert th.cocycle_ok
        assert th.witness is not None
        assert all(v == "0" for v in th.images.values())

    def test_lines_format(self):
        th = theta_representative(koszul_complex(SPEC2), power_ses(SPEC2, 2))
        lines = th.lines()
        assert lines[0] == "theta: nontrivial"
        assert "eps1(e{1}) = [x1]" in lines
        assert "eps1(e{2}) = [x2]" in lines
        assert "cocycle: ok" in lines

    def test_trivial_lines_carry_witness(self):
        th = theta_representative(koszul_complex(SPEC2),
                                  split_power_ses(SPEC2, 2))
        lines = th.lines()
        assert lines[0] == "theta: trivial"
        assert any("witness" in ln for ln in lines)

    def test_slice_matrix_is_identity_in_degree_one(self):
        ses = power_ses(SPEC2, 2)
        th = theta_representative(koszul_complex(SPEC2), ses)
        m = theta_slice_matrix(koszul_complex(SPEC2), ses, th, 1)
        one, zero = QQ.one(), QQ.zero()
        assert m == [[one, zero], [zero, one]]

    def test_slice_matrix_empty_when_target_vanishes(self):
        # (I/I^2) has nothing in degree 2, so the slice map is 0 x 4
        ses = power_ses(SPEC2, 2)
        th = theta_representative(koszul_complex(SPEC2), ses)
        assert theta_slice_matrix(koszul_complex(SPEC2), ses, th, 2) == []

    def test_prime_field(self):
        spec = RegularSequenceSpec.variables(2, domain=GF(5))
        th = theta_representative(koszul_complex(spec), power_ses(spec, 2))
        assert not th.trivial
        assert th.cocycle_ok

    def test_needs_single_generator(self):
        with pytest.raises(ValueError, match="degree-0 generator"):
            theta_representative(build_k_ris(SPEC2, 2), power_ses(SPEC2, 2))
