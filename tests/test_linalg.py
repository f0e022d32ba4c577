import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from koszulpow.poly import Domain, QQ, ZZ, GF
from koszulpow.linalg import (rref, rank_dense, kernel_basis, solve,
                              mat_vec, mat_mul, sparse_rank, smith_normal_form,
                              merge_divisor_chains, block_smith_form,
                              SmithForm, Echelon, dense_row, _clear_row)


def _det(m):
    # cofactor expansion; fine for the tiny matrices used as oracle input
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def snf_divisors_by_minors(m):
    """Oracle: d1*...*dk = gcd of all k x k minors."""
    nr, nc = len(m), len(m[0]) if m else 0
    divisors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                sub = [[m[i][j] for j in cols] for i in rows]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


def rand_matrix(rng, nr, nc, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def sparse(m):
    """The sparse rows (col -> nonzero entry) of a dense matrix, the form
    the Smith form reads."""
    return [{j: v for j, v in enumerate(r) if v} for r in m]


class TestDense:
    def test_rref_known(self):
        red, piv = rref([[1, 2, 3], [2, 4, 7]], 3, QQ)
        assert piv == [0, 2]
        assert red == [[1, 2, 0], [0, 0, 1]]

    def test_rank(self):
        assert rank_dense([[1, 2], [2, 4]], 2, QQ) == 1
        assert rank_dense([[1, 0], [0, 1]], 2, QQ) == 2
        assert rank_dense([], 3, QQ) == 0

    def test_rejects_non_field(self):
        with pytest.raises(ValueError):
            rref([[2]], 1, ZZ)

    def test_kernel_basis(self):
        basis = kernel_basis([[1, 1, 0], [0, 0, 1]], 3, QQ)
        assert basis == [[Fraction(-1), Fraction(1), Fraction(0)]]
        # zero-row matrix: kernel is everything
        assert len(kernel_basis([], 3, QQ)) == 3

    def test_kernel_is_kernel(self):
        rng = random.Random(3)
        for _ in range(100):
            m = rand_matrix(rng, 4, 6)
            for v in kernel_basis(m, 6, QQ):
                assert all(x == 0 for x in mat_vec(m, v, QQ))
            assert len(kernel_basis(m, 6, QQ)) == 6 - rank_dense(m, 6, QQ)

    def test_solve(self):
        x = solve([[1, 1], [0, 1]], [3, 1], QQ)
        assert x == [Fraction(2), Fraction(1)]
        assert solve([[1, 1], [1, 1]], [0, 1], QQ) is None

    def test_solve_fp(self):
        x = solve([[2]], [1], GF(5))
        assert x == [3]

    def test_products_in_canonical_form(self):
        # 3*3 + 4*4 = 25: a residue mod 5, an int over Q even from halves
        assert mat_vec([[3, 4]], [3, 4], GF(5)) == [0]
        assert mat_mul([[3, 4]], [[3], [4]], GF(5)) == [[0]]
        half = Fraction(1, 2)
        assert [type(x) for x in mat_vec([[half, half]], [1, 1], QQ)] == [int]

class TestSparseRank:
    def test_matches_dense_qq(self):
        rng = random.Random(11)
        for _ in range(300):
            nr, nc = rng.randint(0, 6), rng.randint(1, 7)
            m = rand_matrix(rng, nr, nc)
            rows = [{j: v for j, v in enumerate(r) if v} for r in m]
            assert sparse_rank(rows, QQ) == len(reference_rref(m, nc, QQ)[1])

    def test_matches_dense_fp(self):
        rng = random.Random(12)
        F = GF(3)
        for _ in range(300):
            nr, nc = rng.randint(1, 6), rng.randint(1, 7)
            m = rand_matrix(rng, nr, nc)
            rows = [{j: v % 3 for j, v in enumerate(r) if v % 3} for r in m]
            assert sparse_rank(rows, F) == len(reference_rref(m, nc, F)[1])

    def test_fraction_entries(self):
        rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)},
                {0: Fraction(3, 2), 1: Fraction(1, 1)}]
        assert sparse_rank(rows, QQ) == 1

    def test_input_not_mutated(self):
        rows = [{0: 2, 1: 4}, {0: 1, 1: 3}]
        keep = [dict(r) for r in rows]
        sparse_rank(rows, QQ)
        assert rows == keep

    def test_rank_mod_p_can_drop(self):
        assert sparse_rank([{0: 2}], QQ) == 1
        assert sparse_rank([{0: 2}], GF(2)) == 0

    @staticmethod
    def sparse_matrix(rng, p=None):
        """Random sparse integer matrix with zero rows, duplicate rows and
        several rows sharing a leading column."""
        nr, nc = rng.randint(1, 10), rng.randint(1, 12)
        m = [[rng.randint(-5, 5) if rng.random() < 0.3 else 0
              for _ in range(nc)] for _ in range(nr)]
        m.append([0] * nc)
        m.append(list(rng.choice(m)))
        lead = rng.randrange(nc)
        for _ in range(3):
            row = [0] * nc
            row[lead] = rng.choice((-2, -1, 1, 3))
            for j in range(lead + 1, nc):
                row[j] = rng.randint(-3, 3)
            m.append(row)
        rng.shuffle(m)
        if p is not None:
            m = [[x % p for x in row] for row in m]
        return m, nc

    def test_random_sparse_matches_dense_qq(self):
        rng = random.Random(21)
        for _ in range(200):
            m, nc = self.sparse_matrix(rng)
            rows = [{j: v for j, v in enumerate(r) if v} for r in m]
            assert sparse_rank(rows, QQ) == len(reference_rref(m, nc, QQ)[1])

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_random_sparse_matches_dense_fp(self, p):
        rng = random.Random(22 + p)
        for _ in range(200):
            m, nc = self.sparse_matrix(rng, p)
            rows = [{j: v for j, v in enumerate(r) if v} for r in m]
            assert (sparse_rank(rows, GF(p))
                    == len(reference_rref(m, nc, GF(p))[1]))


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(
            sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).diagonal == (1, 1, 1)

    def test_pinned_example(self):
        s = smith_normal_form(sparse([[2, 4], [6, 8]]))
        assert s.diagonal == (2, 4)
        assert s.rank == 2

    def test_zero_matrix(self):
        s = smith_normal_form(sparse([[0, 0], [0, 0]]))
        assert s.diagonal == () and s.rank == 0
        assert smith_normal_form([]).diagonal == ()

    def test_single_entry(self):
        assert smith_normal_form(sparse([[2]])).diagonal == (2,)
        assert smith_normal_form(sparse([[-6]])).diagonal == (6,)

    def test_divisibility_chain_random(self):
        rng = random.Random(21)
        for _ in range(200):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -6, 6)
            d = smith_normal_form(sparse(m)).diagonal
            assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
            assert all(x > 0 for x in d)

    def test_against_minors_oracle(self):
        rng = random.Random(22)
        for _ in range(150):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -5, 5)
            assert (smith_normal_form(sparse(m)).diagonal
                    == snf_divisors_by_minors(m))

    def test_rank_matches_rational_rank(self):
        rng = random.Random(23)
        for _ in range(100):
            m = rand_matrix(rng, 4, 5)
            assert smith_normal_form(sparse(m)).rank == rank_dense(m, 5, QQ)

    def test_sparse_unit_entries_against_minors_oracle(self):
        # mostly 0 and +-1 entries, as in the tensored differentials, on
        # rectangular shapes up to 5 x 6
        rng = random.Random(24)
        for _ in range(150):
            nr, nc = rng.randint(1, 5), rng.randint(1, 6)
            m = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(nc)]
                 for _ in range(nr)]
            assert (smith_normal_form(sparse(m)).diagonal
                    == snf_divisors_by_minors(m))

    def test_pivot_row_reduced_only_once_its_column_is_clear(self):
        # reducing the first row modulo 2 before the 3 below it is cleared
        # is not a column operation, and would give (1, 7)
        m = [[2, 3], [3, 0]]
        assert smith_normal_form(sparse(m)) == SmithForm((1, 9), 2)
        assert snf_divisors_by_minors(m) == (1, 9)

    def test_input_rows_unchanged(self):
        rng = random.Random(25)
        for _ in range(100):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -5, 5)
            rows = [dict(enumerate(r)) for r in m]     # stored zeros too
            before = [dict(r) for r in rows]
            got = smith_normal_form(rows).diagonal
            assert got == snf_divisors_by_minors(m)
            assert rows == before

    def test_empty_rows_and_stored_zeros(self):
        assert smith_normal_form([{}, {}]) == SmithForm((), 0)
        assert smith_normal_form([{0: 0, 3: 0}, {}]) == SmithForm((), 0)
        assert block_smith_form([[{}], [{1: 0}, {}]]) == SmithForm((), 0)

    def test_torsion_property(self):
        assert SmithForm((1, 1, 2, 6), 4).torsion == (2, 6)

    def test_value_semantics(self):
        a = SmithForm((1, 2), 2)
        assert a == SmithForm((1, 2), 2) and hash(a) == hash(SmithForm((1, 2), 2))
        assert a != SmithForm((1, 4), 2) and a != SmithForm((1, 2), 3)


class TestMergeDivisorChains:
    def test_coprime(self):
        assert merge_divisor_chains([(2,), (3,)]) == (1, 6)

    def test_mixed(self):
        # diag(2,4,6) has invariant factors (2,2,12)
        assert merge_divisor_chains([(2, 4), (6,)]) == (2, 2, 12)

    def test_against_snf_of_block_diagonal(self):
        rng = random.Random(31)
        for _ in range(100):
            a = smith_normal_form(sparse(rand_matrix(rng, 3, 3))).diagonal
            b = smith_normal_form(sparse(rand_matrix(rng, 2, 3))).diagonal
            n = len(a) + len(b)
            block = [[0] * n for _ in range(n)]
            for i, d in enumerate(a + b):
                block[i][i] = d
            assert (merge_divisor_chains([a, b])
                    == smith_normal_form(sparse(block)).diagonal)

    def test_units_set_aside(self):
        # diag(1, 1, 2, 1, 3) has rank 5 and invariant factors (1,1,1,1,6)
        assert merge_divisor_chains([(1, 1, 2), (1, 3)]) == (1, 1, 1, 1, 6)
        assert merge_divisor_chains([(1,), (1,)]) == (1, 1)

    def test_against_minors_of_block_diagonal(self):
        # chains and the merged chain all from the minors oracle, so no
        # Smith form of the package is involved
        rng = random.Random(32)
        for _ in range(60):
            a = rand_matrix(rng, 3, 3, -4, 4)
            b = rand_matrix(rng, 2, 3, -4, 4)
            block = [row + [0] * 3 for row in a] + [[0] * 3 + row for row in b]
            assert (merge_divisor_chains([snf_divisors_by_minors(a),
                                          snf_divisors_by_minors(b)])
                    == snf_divisors_by_minors(block))



def block_diagonal(blocks):
    """The block-diagonal matrix with these blocks, in order."""
    n_cols = sum(len(b[0]) if b else 0 for b in blocks)
    out, col = [], 0
    for b in blocks:
        width = len(b[0]) if b else 0
        out += [[0] * col + row + [0] * (n_cols - col - width) for row in b]
        col += width
    return out


class TestBlockSmithForm:
    def test_empty_list(self):
        assert block_smith_form([]) == SmithForm((), 0)

    def test_all_zero_blocks(self):
        zero = [[[0, 0], [0, 0]], [[0], [0], [0]], [[0, 0, 0]]]
        blocks = [sparse(b) for b in zero]
        assert block_smith_form(blocks) == SmithForm((), 0)
        assert block_smith_form(blocks) == smith_normal_form(
            sparse(block_diagonal(zero)))

    def test_against_assembled_matrix(self):
        rng = random.Random(33)
        for _ in range(80):
            blocks = []
            for _ in range(rng.randint(1, 4)):
                nr, nc = rng.randint(1, 3), rng.randint(1, 3)
                if rng.random() < 0.2:
                    blocks.append([[0] * nc for _ in range(nr)])
                else:
                    blocks.append(rand_matrix(rng, nr, nc, -4, 4))
            assert block_smith_form([sparse(b) for b in blocks]) == \
                smith_normal_form(sparse(block_diagonal(blocks)))

    def test_blocks_with_an_empty_side(self):
        # a block of rows without columns adds neither rank nor divisors
        blocks = [[[2]], [[], []], [[3, 0], [0, 4]]]
        assert block_smith_form([sparse(b) for b in blocks]) == \
            smith_normal_form(sparse(block_diagonal(blocks)))
        assert block_smith_form([sparse(b) for b in blocks]) == \
            SmithForm((1, 2, 12), 3)


# ---------------------------------------------------------------------------
# Routines that rref, Echelon and _clear_row replaced,
# kept as references.

def reference_rref(matrix, n_cols, dom):
    """The former stand-alone Gauss-Jordan loop of rref."""
    zero, one = dom.zero(), dom.one()
    rows = [[dom.coerce(x) for x in r] for r in matrix]
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != one:
            rows[r] = [dom.div(x, pv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [dom.sub(x, dom.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def reference_primitive_int_vector(v):
    """The former homology._primitive_int_vector, on a list of Fractions."""
    mult = lcm(*(x.denominator for x in v)) if v else 1
    w = [int(x * mult) for x in v]
    g = gcd(*w) if any(w) else 1
    if g > 1:
        w = [x // g for x in w]
    return w


FIELDS = [QQ, GF(5), GF(7)]


def random_dense(rng):
    """Wide or tall, with a zero row, a duplicate row and a scaled copy;
    entries give both unit and non-unit pivots."""
    nr, nc = rng.randint(0, 7), rng.randint(1, 8)
    entries = (0, 0, 0, 1, -1, 2, 3, -4, Fraction(1, 2))
    m = [[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]
    m.append([0] * nc)
    if nr:
        m.append(list(rng.choice(m)))
        m.append([3 * x for x in rng.choice(m)])
    rng.shuffle(m)
    return m, nc


def _coerced(m, dom):
    # over F_p the Fraction 1/2 becomes a residue, as in dom.coerce
    return [[dom.coerce(x) for x in row] for row in m]


class TestEchelonIsTheGaussJordan:
    @pytest.mark.parametrize("dom", FIELDS, ids=str)
    def test_rref_matches_reference_loop(self, dom):
        rng = random.Random(41)
        for _ in range(300):
            m, nc = random_dense(rng)
            assert rref(m, nc, dom) == reference_rref(m, nc, dom)

    def test_rref_keeps_ragged_error(self):
        with pytest.raises(ValueError, match="ragged"):
            rref([[1, 2], [3]], 2, QQ)

    def test_clear_row_matches_primitive_int_vector(self):
        rng = random.Random(42)
        fractions = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                      for _ in range(rng.randint(0, 6))] for _ in range(300)]
        ints = [[k * rng.randint(-6, 6) for _ in range(rng.randint(0, 6))]
                for k in rng.choices((1, 2, 6), k=300)]
        mixed = [[rng.choice((rng.randint(-6, 6),
                              Fraction(rng.randint(-6, 6), rng.randint(1, 6))))
                  for _ in range(rng.randint(1, 6))] for _ in range(300)]
        for v in fractions + ints + mixed:
            want = {j: x for j, x in
                    enumerate(reference_primitive_int_vector(v)) if x}
            assert _clear_row(dict(enumerate(v))) == want

    def test_dense_row(self):
        assert dense_row({2: 5, 0: 1}, 4) == [1, 0, 5, 0]
        assert dense_row({}, 2, Fraction(0)) == [Fraction(0)] * 2


class _CountingQQ(Domain):
    """The rationals, recording every division."""

    divisions: list = []

    def div(self, a, b):
        _CountingQQ.divisions.append((a, b))
        return super().div(a, b)


class TestEchelonInsert:
    def test_insert_over_q_never_divides(self):
        dom = _CountingQQ("Q")
        _CountingQQ.divisions.clear()
        ech = Echelon(dom)
        for v in ([2, 0, 4, 0], [0, 3, 0, 6], [1, 1, 1, 1], [0, 0, 0, 5],
                  [Fraction(1, 2), Fraction(1, 3), 0, 7]):
            ech.insert(v)
        assert ech.rank == 4
        assert _CountingQQ.divisions == []

    @pytest.mark.parametrize("dom", FIELDS, ids=str)
    def test_insert_into_copy_leaves_original_alone(self, dom):
        rng = random.Random(43)
        for _ in range(100):
            m, nc = random_dense(rng)
            ech = Echelon(dom)
            for v in m[:len(m) // 2]:
                ech.insert(v)
            rows = {pc: dict(row) for pc, row in ech.rows.items()}
            probes = [[rng.choice((0, 1, -2, 3)) for _ in range(nc)]
                      for _ in range(3)]
            residues = [ech.reduce(v) for v in probes]
            other = ech.copy()
            for v in m[len(m) // 2:] + probes:
                other.insert(v)
            assert ech.rows == rows
            assert ech.rank == len(rows)
            assert [ech.reduce(v) for v in probes] == residues

    @pytest.mark.parametrize("dom", FIELDS, ids=str)
    def test_against_reference_rref(self, dom):
        rng = random.Random(44)
        for _ in range(200):
            m, nc = random_dense(rng)
            ech = Echelon(dom)
            for k, v in enumerate(m):
                before = len(reference_rref(m[:k], nc, dom)[1])
                after = len(reference_rref(m[:k + 1], nc, dom)[1])
                assert ech.insert(v) == (after > before)
            _, pivots = reference_rref(m, nc, dom)
            v = [rng.choice((0, 1, -1, 2, Fraction(1, 3))) for _ in range(nc)]
            res = ech.reduce(v)
            # zero at every pivot of the reference, and v - res adds no rank
            assert all(res[pc] == dom.zero() for pc in pivots)
            diff = [dom.sub(dom.coerce(x), y) for x, y in zip(v, res)]
            assert len(reference_rref(m + [diff], nc, dom)[1]) == len(pivots)


def test_one_eliminator(count_calls):
    """sparse_rank, Echelon.insert and rref all eliminate through _insert,
    and sparse_rank does not go through Echelon.insert."""
    calls = count_calls("linalg._insert", "linalg.Echelon.insert")
    assert sparse_rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 3}], QQ) == 2
    assert calls == {"linalg._insert": 3, "linalg.Echelon.insert": 0}
    assert Echelon(GF(5)).insert([0, 2])
    assert calls == {"linalg._insert": 4, "linalg.Echelon.insert": 1}
    assert rref([[1, 2], [3, 4]], 2, QQ)[1] == [0, 1]
    assert calls == {"linalg._insert": 6, "linalg.Echelon.insert": 1}
