import random

import pytest

from oracles import betti_closed_form
from test_poly import random_polynomial
from koszulpow.poly import (QQ, ZZ, GF, RegularSequenceSpec, parse_poly,
                            Polynomial)
from koszulpow.ideals import PowerReducer, hilbert_function
from koszulpow.chain import (make_label, verify_complex, element_add,
                             tensor_mod_I)
from koszulpow.koszul import koszul_complex, q_module
from koszulpow.resolution import (build_k_ris, augment, verify_exactness,
                                  dga_multiply, dga_differential,
                                  reduction_chain_map, default_internal_bound,
                                  homology_slice_dims, tensor_mod_I_complex,
                                  ExactnessReport, MorseMatching,
                                  _coefficient_primes)


def P(text, n=2):
    return parse_poly(text, n, QQ)


SPEC2 = RegularSequenceSpec.variables(2)
SPEC3 = RegularSequenceSpec.variables(3)

UNIT = make_label(SPEC2, (), ())
E1 = make_label(SPEC2, (1,), ())
E2 = make_label(SPEC2, (2,), ())
T1 = make_label(SPEC2, (), (1,))
T2 = make_label(SPEC2, (), (2,))


class TestBuild:
    def test_s1_is_koszul(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            assert build_k_ris(spec, 1).equal_maps(koszul_complex(spec))

    def test_generator_counts_n2_s2(self):
        assert build_k_ris(SPEC2, 2).dims() == (3, 6, 3)

    def test_generator_counts_n2_s3(self):
        # sum over tag levels p<3 of C(2,q)*C(p+1,p)
        assert build_k_ris(SPEC2, 3).dims() == (6, 12, 6)

    def test_d_squared_zero_grid(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (1, 2, 3, 4):
                assert verify_complex(build_k_ris(spec, s)).ok
        assert verify_complex(build_k_ris(
            RegularSequenceSpec.variables(4), 3)).ok

    def test_differential_mixes_levels(self):
        c = build_k_ris(SPEC2, 2)
        img = c.differential(1).apply({E1: P("1")})
        # boundary part u1*1 at level 0 plus transfer part t(1) at level 1
        assert img == {UNIT: P("x1"), T1: P("1")}

    def test_top_level_has_no_transfer(self):
        c = build_k_ris(SPEC2, 2)
        src = make_label(SPEC2, (1,), (2,))
        img = c.differential(1).apply({src: P("1")})
        assert img == {T2: P("x1")}

    def test_bad_power(self):
        with pytest.raises(ValueError):
            build_k_ris(SPEC2, 0)

    def test_heterogeneous_degrees(self):
        spec = RegularSequenceSpec.variable_powers((2, 3))
        assert verify_complex(build_k_ris(spec, 3)).ok


def _explicit(texts, n, dom):
    return RegularSequenceSpec.explicit([parse_poly(t, n, dom) for t in texts])


TENSOR_SPECS = {
    **{f"vars:{n}": (lambda dom, n=n: RegularSequenceSpec.variables(n, dom))
       for n in (1, 2, 3, 4)},
    "powers:1,2,2": lambda dom: RegularSequenceSpec.variable_powers((1, 2, 2),
                                                                    dom),
    "linear forms": lambda dom: _explicit(["x1+2*x2-x3", "x2-x3", "x3"], 3,
                                          dom),
    # not regular: the tensored complex does not look at the u_i
    "x1*x2 twice": lambda dom: _explicit(["x1*x2", "x1*x2"], 2, dom),
    "three quadrics": lambda dom: _explicit(["x1^2", "x1*x2", "x2^2"], 2, dom),
}


class TestTensoredFromLabels:
    """tensor_mod_I_complex, written from the labels, is the reference
    tensor_mod_I of the polynomial resolution, label for label."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("kind", list(TENSOR_SPECS))
    def test_matches_reference(self, kind, dom, s):
        spec = TENSOR_SPECS[kind](dom)
        t = tensor_mod_I_complex(spec, s)
        assert (t.spec, t.s) == (spec, s)
        assert t.equal_maps(tensor_mod_I(build_k_ris(spec, s), spec))

    def test_s0_rejected(self):
        with pytest.raises(ValueError):
            tensor_mod_I_complex(SPEC2, 0)


class TestLabelOrder:
    """Modules are built in Label order, sort_key (tag length, tag,
    exterior): every label position a report prints rests on it."""

    @pytest.mark.parametrize("dom", [QQ, ZZ, GF(5)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_modules_in_sort_key_order(self, n, dom):
        spec = RegularSequenceSpec.variables(n, dom)
        modules = [q_module(spec, s, p)
                   for s in range(4) for p in range(n + 1)]
        for s in (1, 2, 3):
            modules += build_k_ris(spec, s).modules.values()
            modules += tensor_mod_I_complex(spec, s).modules.values()
        for m in modules:
            keys = [g.sort_key for g in m]
            assert keys == sorted(keys)


class TestAugment:
    def test_unit(self):
        assert augment(SPEC2, 2, {UNIT: P("1")}) == P("1")

    def test_tag_levels_alternate(self):
        got = augment(SPEC2, 2, {UNIT: P("1"), T1: P("2"), T2: P("3")})
        assert got == P("1 - 2*x1 - 3*x2")

    def test_value_in_power_dies(self):
        assert augment(SPEC2, 2, {T1: P("x1")}).is_zero()

    def test_kills_every_boundary(self):
        for s in (2, 3):
            c = build_k_ris(SPEC2, s)
            red = PowerReducer(SPEC2, s)
            for g in c.module(1):
                img = c.differential(1).apply({g: P("1")})
                assert augment(SPEC2, s, img, red).is_zero(), str(g)

    def test_surjective_on_small_degrees(self):
        # classes of 1, x1, x2 are hit (s=2: those span R/I^2)
        assert augment(SPEC2, 2, {UNIT: P("x1")}) == P("x1")

    def test_rejects_positive_degree(self):
        with pytest.raises(ValueError):
            augment(SPEC2, 2, {E1: P("1")})

    def test_s1_plain_reduction(self):
        got = augment(SPEC2, 1, {UNIT: P("1 + x1 + x1*x2")})
        assert got == P("1")


class TestExactness:
    def test_n2_s2(self):
        rep = verify_exactness(SPEC2, 2)
        assert rep.ok and not rep.mismatches
        assert [rep.homology[(0, d)] for d in range(4)] == [1, 2, 0, 0]
        assert all(rep.homology[(n, d)] == 0
                   for (n, d) in rep.homology if n >= 1)

    def test_hilbert_row_matches(self):
        rep = verify_exactness(SPEC2, 2)
        assert rep.hilbert[0] == 1 and rep.hilbert[1] == 2 and rep.hilbert[2] == 0

    def test_square_powers(self):
        spec = RegularSequenceSpec.variable_powers((2, 2))
        rep = verify_exactness(spec, 2, max_internal=10)
        assert rep.ok
        assert rep.max_internal == 10

    def test_general_homogeneous(self):
        spec = RegularSequenceSpec.explicit([P("x1+x2"), P("x1*x2")])
        assert verify_exactness(spec, 2, max_internal=8).ok

    def test_non_regular_detected(self):
        spec = RegularSequenceSpec.explicit([P("x1"), P("x1")])
        rep = verify_exactness(spec, 1, max_internal=4)
        assert not rep.ok
        assert any("n=1" in m for m in rep.mismatches)

    def test_integer_domain_probes(self):
        spec = RegularSequenceSpec.variables(2).with_domain(ZZ)
        rep = verify_exactness(spec, 2, max_internal=5)
        assert rep.ok
        assert rep.fields_checked == ["QQ", "F2", "F3", "F5"]

    def test_integer_torsion_is_universal_coefficients(self):
        # regular over Z, but R/I^s has 2- or 3-torsion: H_0 over F_p has
        # the Hilbert function mod p, and H_1 is the p-torsion
        for texts, p in ((["2*x1", "x2"], 2), (["3*x1+x2", "x2"], 3)):
            spec = RegularSequenceSpec.explicit(
                [parse_poly(t, 2, ZZ) for t in texts])
            rep = verify_exactness(spec, 2, max_internal=5)
            assert rep.ok, rep.mismatches
            fp = spec.with_domain(GF(p))
            dims, = homology_slice_dims(build_k_ris(fp, 2), 5)
            assert dims[(1, 2)] == 2 and dims[(0, 2)] == 2
            assert rep.hilbert[2] == 0

    def test_integer_torsion_in_higher_homology_detected(self):
        # (2*x1, 2*x2) is regular over Q but not over Z: 2*x2 kills x1
        # modulo 2*x1.  The F_2 run sees the torsion of H_1 over Z.
        spec = RegularSequenceSpec.explicit(
            [parse_poly(t, 2, ZZ) for t in ("2*x1", "2*x2")])
        rep = verify_exactness(spec, 2, max_internal=5)
        assert not rep.ok
        assert "[F2] homology at n=1, d=3 has dim 6, expected 4" in \
            rep.mismatches
        assert all(m.startswith("[F2] homology") for m in rep.mismatches)

    def test_default_bound(self):
        assert default_internal_bound(SPEC2, 2) == 6
        assert default_internal_bound(
            RegularSequenceSpec.variable_powers((2, 2)), 2) == 10

    def test_grid_lines_shape(self):
        rep = verify_exactness(SPEC2, 2, max_internal=3)
        lines = rep.grid_lines()
        assert lines[1].startswith("  n=0: 1 2 0 0")


def per_field_exactness(spec, s):
    """verify_exactness over Z with the resolution rebuilt over each field,
    and the slice dims of each field's build: the reference that ranking
    one integral build modulo each prime must reproduce."""
    max_internal = default_internal_bound(spec, s)
    primes = sorted({2, 3, 5} | _coefficient_primes(spec))
    domains = [QQ] + [GF(p) for p in primes]
    mismatches, per_field = [], []
    for dom in domains:
        rspec = spec.with_domain(dom)
        dims, = homology_slice_dims(build_k_ris(rspec, s), max_internal)
        per_field.append(dims)
        hf = {d: hilbert_function(rspec, s, d)
              for d in range(max_internal + 1)}
        if dom == QQ:
            homology, hilbert = dims, hf
        for (n, d), h in sorted(dims.items()):
            if n == 0:
                if h != hf[d]:
                    mismatches.append(
                        f"[{dom}] cokernel dim at d={d} is {h}, "
                        f"Hilbert function says {hf[d]}")
                continue
            want = hf[d] - hilbert[d] if n == 1 else 0
            if h != want:
                mismatches.append(
                    f"[{dom}] homology at n={n}, d={d} has dim {h}, "
                    f"expected {want}")
    report = ExactnessReport(not mismatches, s, max_internal, homology,
                             hilbert, mismatches, list(map(str, domains)))
    return report, domains, per_field


def _z(texts, n):
    return RegularSequenceSpec.explicit([parse_poly(t, n, ZZ) for t in texts])


INTEGRAL_CASES = (
    [(RegularSequenceSpec.variables(n, ZZ), s)
     for n in (1, 2, 3) for s in (1, 2, 3)]
    + [(RegularSequenceSpec.variable_powers((1, 2, 2), ZZ), s)
       for s in (1, 2)]
    + [(_z(["x1+2*x2-x3", "x2-x3", "x3"], 3), 2),
       (_z(["2*x1", "x2"], 2), 2),
       (_z(["x1+3*x2", "x1-4*x2"], 2), 2),
       (_z(["7*x1", "7*x2"], 2), 2)])


class TestOneIntegralResolution:
    @pytest.mark.parametrize(
        "spec,s", INTEGRAL_CASES,
        ids=[",".join(map(str, sp.gens)) + f"-s{s}"
             for sp, s in INTEGRAL_CASES])
    def test_reduction_mod_p_matches_rebuild_per_field(self, spec, s):
        report, domains, per_field = per_field_exactness(spec, s)
        bound = default_internal_bound(spec, s)
        assert homology_slice_dims(build_k_ris(spec, s), bound,
                                   domains) == per_field
        assert verify_exactness(spec, s) == report

    def test_verify_builds_once_and_assembles_each_slice_once(
            self, count_calls, capsys):
        from koszulpow import cli
        calls = count_calls("resolution.build_k_ris", "chain.map_slice")
        assert cli.run(["verify", "--n", "2", "--s", "2", "--field", "Z"]) == 0
        capsys.readouterr()
        # one integral build ranked over QQ, F2, F3 and F5, not four builds
        assert calls == {"resolution.build_k_ris": 1, "chain.map_slice": 21}


def random_element(rng, c, hom_deg, density=0.5):
    out = {}
    for g in c.module(hom_deg):
        if rng.random() < density:
            p = random_polynomial(rng, c.n_vars, c.domain,
                                  max_degree=2, n_terms=2)
            if not p.is_zero():
                out[g] = p
    return out


class TestDGA:
    def test_wedge_antisymmetry(self):
        c = build_k_ris(SPEC2, 2)
        ab = dga_multiply(c, {E1: P("1")}, {E2: P("1")})
        ba = dga_multiply(c, {E2: P("1")}, {E1: P("1")})
        e12 = make_label(SPEC2, (1, 2), ())
        assert ab == {e12: P("1")}
        assert ba == {e12: P("-1")}

    def test_overlap_vanishes(self):
        c = build_k_ris(SPEC2, 2)
        assert dga_multiply(c, {E1: P("1")}, {E1: P("1")}) == {}

    def test_tag_truncation(self):
        c = build_k_ris(SPEC2, 2)
        a = {make_label(SPEC2, (1,), (1,)): P("1")}
        b = {make_label(SPEC2, (2,), (2,)): P("1")}
        assert dga_multiply(c, a, b) == {}

    def test_tag_merge_below_cutoff(self):
        c = build_k_ris(SPEC2, 3)
        a = {make_label(SPEC2, (1,), (2,)): P("1")}
        b = {make_label(SPEC2, (), (1,)): P("x1")}
        got = dga_multiply(c, a, b)
        assert got == {make_label(SPEC2, (1,), (1, 2)): P("x1")}

    def test_unit_element(self):
        c = build_k_ris(SPEC2, 2)
        rng = random.Random(1)
        one = {UNIT: P("1")}
        for deg in (0, 1, 2):
            a = random_element(rng, c, deg)
            assert dga_multiply(c, one, a) == a
            assert dga_multiply(c, a, one) == a

    def test_graded_commutativity(self):
        rng = random.Random(2)
        c = build_k_ris(SPEC2, 3)
        for _ in range(100):
            na, nb = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_element(rng, c, na), random_element(rng, c, nb)
            ab = dga_multiply(c, a, b)
            ba = dga_multiply(c, b, a)
            if (na * nb) % 2:
                ba = {g: -p for g, p in ba.items()}
            assert ab == ba

    def test_associativity(self):
        rng = random.Random(3)
        c = build_k_ris(SPEC3, 2)
        for _ in range(100):
            a = random_element(rng, c, rng.randint(0, 1), density=0.3)
            b = random_element(rng, c, rng.randint(0, 1), density=0.3)
            d = random_element(rng, c, rng.randint(0, 1), density=0.3)
            lhs = dga_multiply(c, dga_multiply(c, a, b), d)
            rhs = dga_multiply(c, a, dga_multiply(c, b, d))
            assert lhs == rhs

    def test_leibniz(self):
        rng = random.Random(4)
        for spec, s in ((SPEC2, 2), (SPEC2, 3), (SPEC3, 2)):
            c = build_k_ris(spec, s)
            for _ in range(70):
                na = rng.randint(0, spec.n_gens)
                nb = rng.randint(0, spec.n_gens)
                a = random_element(rng, c, na, density=0.4)
                b = random_element(rng, c, nb, density=0.4)
                lhs = dga_differential(c, dga_multiply(c, a, b))
                da_b = dga_multiply(c, dga_differential(c, a), b)
                a_db = dga_multiply(c, a, dga_differential(c, b))
                if na % 2:
                    a_db = {g: -p for g, p in a_db.items()}
                rhs = element_add(da_b, a_db)
                assert lhs == rhs


class TestReduction:
    def test_s2_projects_to_koszul(self):
        f = reduction_chain_map(SPEC2, 2)
        assert f.target.equal_maps(koszul_complex(SPEC2))
        assert f.component(0).entries == {(UNIT, UNIT): P("1")}

    def test_chain_property_grid(self):
        for n in (1, 2, 3):
            spec = RegularSequenceSpec.variables(n)
            for s in (2, 3, 4):
                assert reduction_chain_map(spec, s).verify().ok

    def test_top_level_killed(self):
        f = reduction_chain_map(SPEC2, 2)
        assert all(len(src.tag) == 0 for (_, src) in f.component(1).entries)

    def test_augmentation_compatible(self):
        rng = random.Random(5)
        for s in (2, 3):
            big = build_k_ris(SPEC2, s)
            f = reduction_chain_map(SPEC2, s)
            red_small = PowerReducer(SPEC2, s - 1)
            for _ in range(30):
                x = random_element(rng, big, 0)
                lhs = augment(SPEC2, s - 1, f.component(0).apply(x), red_small)
                rhs = red_small.reduce(augment(SPEC2, s, x))
                assert lhs == rhs

    def test_s1_rejected(self):
        with pytest.raises(ValueError):
            reduction_chain_map(SPEC2, 1)


class TestHomologySliceDims:
    def test_koszul_tensored_dims_appear_in_positive_degrees(self):
        # sanity check of the helper itself on the plain complex
        c = koszul_complex(SPEC2)
        dims, = homology_slice_dims(c, 4)
        assert dims[(0, 0)] == 1
        assert dims[(1, 1)] == 0  # resolution: no homology upstairs


# ---------------------------------------------------------------------------
# verify ranks the Morse complex M of K; ranking K's slices is the oracle.

def _fields(spec):
    if spec.domain.is_field:
        return [spec.domain]
    return [QQ] + [GF(p) for p in sorted({2, 3, 5} | _coefficient_primes(spec))]


MORSE_CASES = (
    INTEGRAL_CASES
    + [(RegularSequenceSpec.variables(n, dom), s)
       for dom in (QQ, GF(31991)) for n in (1, 2, 3) for s in (1, 2, 3)]
    + [(RegularSequenceSpec.variable_powers((1, 2, 2), dom), s)
       for dom in (QQ, GF(7)) for s in (1, 2, 3)]
    + [(_explicit(["x1*x2", "x1*x2"], 2, dom), s)
       for dom in (QQ, ZZ) for s in (1, 2)])


class TestMorseComplex:
    @pytest.mark.parametrize(
        "spec,s", MORSE_CASES,
        ids=[f"{sp.domain}:" + ",".join(map(str, sp.gens)) + f"-s{s}"
             for sp, s in MORSE_CASES])
    def test_slices_of_m_have_the_homology_of_k(self, spec, s):
        k = build_k_ris(spec, s)
        morse = MorseMatching(k, s, tensored=False)
        assert morse.failure is None
        m = morse.complex()
        bound, fields = default_internal_bound(spec, s), _fields(spec)
        assert homology_slice_dims(m, bound, fields) == \
            homology_slice_dims(k, bound, fields)
        assert verify_complex(m).ok
        assert m.dims() == betti_closed_form(spec.n_gens, s)
        # minimal: every entry of d_M lies in the maximal ideal
        assert all(not p.constant_value() for f in m.diffs.values()
                   for p in f.entries.values())

    def test_verify_builds_m_from_k_once(self, count_calls):
        calls = count_calls("resolution.MorseMatching.complex")
        assert verify_exactness(SPEC2, 2).ok
        assert calls == {"resolution.MorseMatching.complex": 1}
