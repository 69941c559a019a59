import itertools
import random

import numpy as np
import pytest

from ucyclic import linalg
from ucyclic.linalg import BudgetError, min_nonzero_weight, mul, nullspace, reduce_vector, rref


def random_matrix(rng, p, nrows, ncols, rank=None):
    """A random matrix over F_p, of at most the given rank when one is set."""
    if rank is None:
        return np.array([rng.randrange(p) for _ in range(nrows * ncols)],
                        dtype=np.int64).reshape(nrows, ncols)
    left = random_matrix(rng, p, nrows, rank)
    right = random_matrix(rng, p, rank, ncols)
    return left @ right % p


def check_nullspace(M, p):
    N = nullspace(*rref(M, p), p)
    ncols = np.shape(M)[1]
    assert N.shape[1] == ncols
    assert not (np.asarray(M, dtype=np.int64) @ N.T % p).any()
    _, pivots = rref(M, p)
    _, npivots = rref(N, p)
    # the rows are independent and there are exactly ncols - rank of them
    assert len(npivots) == len(N) == ncols - len(pivots)
    return N


def naive_rref(mat, p):
    """Reduced row echelon form over F_p, one full pivot step per column
    (reference only)."""
    M = np.array(mat, dtype=np.int64) % p
    nrows, ncols = M.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        col = M[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        M[rows, c:] = (M[rows, c:] - np.outer(col[rows], M[r, c:])) % p
        pivots.append(c)
        r += 1
    return M[:r], pivots


RREF_PRIMES = [2, 3, 5, 7, 65521]


class TestRref:
    def check(self, M, p):
        R, pivots = rref(M, p)
        R0, pivots0 = naive_rref(M, p)
        assert R.dtype == np.int64
        assert pivots == pivots0
        assert np.array_equal(R, R0)
        # every pivot column is a unit vector
        assert np.array_equal(R[:, pivots], np.eye(len(pivots), dtype=np.int64))

    @pytest.mark.parametrize("ncols", [1, 7, 8, 9, 63, 64, 65, 128, 129, 512])
    @pytest.mark.parametrize("p", RREF_PRIMES)
    def test_random_matches_naive(self, p, ncols):
        # the column counts straddle the byte and word edges of packed rows
        rng = random.Random(f"{p}:{ncols}")
        for trial in range(6):
            nrows = min(rng.choice([1, rng.randint(1, 40), ncols + rng.randint(1, 8)]), 96)
            rank = None if trial % 2 else rng.randint(0, min(nrows, ncols))
            self.check(random_matrix(rng, p, nrows, ncols, rank), p)

    @pytest.mark.parametrize("p", RREF_PRIMES)
    def test_edge_shapes(self, p):
        rng = random.Random(p)
        row = random_matrix(rng, p, 1, 9)
        dependent = random_matrix(rng, p, 3, 9)
        dependent = np.vstack([dependent, (2 * dependent[0] + dependent[2]) % p])
        zero_columns = random_matrix(rng, p, 8, 30, rank=5)
        zero_columns[:, rng.sample(range(30), 12)] = 0
        for M in [np.zeros((0, 5), dtype=np.int64), np.zeros((4, 0), dtype=np.int64),
                  np.zeros((0, 0), dtype=np.int64), np.zeros((3, 9), dtype=np.int64),
                  np.vstack([row, row, row]), dependent, zero_columns,
                  random_matrix(rng, p, 20, 6), random_matrix(rng, p, 20, 6, rank=3)]:
            self.check(M, p)

    def test_input_is_not_modified(self):
        M = np.array([[3, 1], [1, 2]], dtype=np.int64)
        rref(M, 2)
        rref(M, 5)
        assert M.tolist() == [[3, 1], [1, 2]]


class TestNullspace:
    @pytest.mark.parametrize("p", [2, 3, 7, 65521])
    def test_random(self, p):
        rng = random.Random(p)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            rank = rng.randint(0, min(nrows, ncols))
            check_nullspace(random_matrix(rng, p, nrows, ncols, rank), p)

    def test_zero_rows_is_identity(self):
        N = check_nullspace(np.zeros((0, 5), dtype=np.int64), 3)
        assert np.array_equal(N, np.eye(5, dtype=np.int64))

    def test_all_zero_matrix_is_identity(self):
        N = check_nullspace(np.zeros((4, 6), dtype=np.int64), 5)
        assert np.array_equal(N, np.eye(6, dtype=np.int64))

    def test_full_rank_is_empty(self):
        rng = random.Random(3)
        M = random_matrix(rng, 7, 6, 6, rank=6)
        while len(rref(M, 7)[1]) < 6:
            M = random_matrix(rng, 7, 6, 6)
        N = check_nullspace(M, 7)
        assert N.shape == (0, 6)

    def test_one_row_per_free_column(self):
        # x + 2y + 3z = 0 over F_5: free columns y, z give (-2, 1, 0), (-3, 0, 1)
        N = nullspace(*rref([[1, 2, 3]], 5), 5)
        assert N.tolist() == [[3, 1, 0], [2, 0, 1]]


class TestMul:
    def test_exact_at_the_bound(self):
        # every entry p - 1 at inner dimension kn = 512: each sum is 512 (p - 1)^2,
        # above 2^40 and still exact in float64
        p = 65521  # the largest prime below 2^16
        A = np.full((3, 512), p - 1, dtype=np.int64)
        B = np.full((512, 4), p - 1, dtype=np.int64)
        exact = (A.astype(object) @ B.astype(object)).tolist()
        assert exact[0][0] == 512 * (p - 1) ** 2 > 1 << 40
        assert mul(A, B).dtype == np.int64
        assert mul(A, B).tolist() == exact

    @pytest.mark.parametrize("p", RREF_PRIMES)
    def test_random_matches_python_ints(self, p):
        rng = random.Random(f"mul:{p}")
        for inner in [0, 1, 7, 512]:
            A, B = random_matrix(rng, p, 5, inner), random_matrix(rng, p, inner, 6)
            assert mul(A, B).tolist() == (A.astype(object) @ B.astype(object)).tolist()
        v = random_matrix(rng, p, 1, 9)[0]
        assert mul(v, random_matrix(rng, p, 9, 4)).shape == (4,)


class TestReduceVector:
    @pytest.mark.parametrize("p", RREF_PRIMES)
    def test_residual(self, p):
        # zero exactly on the row space; v minus its residual lies in it
        rng = random.Random(f"reduce:{p}")
        for ncols in [1, 9, 64, 512]:
            R, pivots = rref(random_matrix(rng, p, 20, ncols, rank=rng.randint(0, 10)), p)
            inside = random_matrix(rng, p, 3, len(R)) @ R % p
            assert not reduce_vector(R, pivots, inside, p).any()
            v = random_matrix(rng, p, 4, ncols)
            res = reduce_vector(R, pivots, v, p)
            assert not res[:, pivots].any()
            assert len(rref(np.vstack([R, (v - res) % p]), p)[1]) == len(R)
            assert np.array_equal(reduce_vector(R, pivots, v[0], p), res[0])


def naive_min_weight(basis, p, group):
    """All p^d combinations of the rows, weighed one group at a time; the
    group count plus one when every combination is zero."""
    B = np.array(basis, dtype=np.int64) % p
    d, ncols = B.shape
    best = ncols // group + 1
    combos = itertools.product(range(p), repeat=d)
    while chunk := list(itertools.islice(combos, 4096)):
        words = np.array(chunk, dtype=np.int64) @ B % p
        weights = (words.reshape(len(words), -1, group) != 0).any(axis=2).sum(axis=1)
        if weights.any():
            best = min(best, int(weights[weights > 0].min()))
    return best


def random_basis(rng, p, d, ncols, kind):
    """d rows over F_p: dense, sparse, with dependent rows (one a combination
    of two others, one zero), or with a scaled unit vector among them."""
    density = 0.1 if kind == "sparse" else 1.0
    rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(d)]
    if kind == "dependent" and d > 1:
        a, b = rng.randrange(p), rng.randrange(p)
        rows[-1] = [(a * x + b * y) % p for x, y in zip(rows[0], rows[-2])]
        rows[rng.randrange(d - 1)] = [0] * ncols
    if kind == "unit":
        unit = [0] * ncols
        unit[rng.randrange(ncols)] = rng.randrange(1, p)
        rows[rng.randrange(d)] = unit
    return rows


# d up to the largest with p^d small enough for the naive reference
MAX_DIM = {2: 12, 3: 7, 5: 5, 7: 4, 11: 3, 13: 3, 65521: 1}


class TestMinNonzeroWeight:
    @pytest.mark.parametrize("block", [linalg.BLOCK, 8])
    @pytest.mark.parametrize("group", [1, 2, 3, 8])
    @pytest.mark.parametrize("p", sorted(MAX_DIM))
    def test_matches_naive(self, p, group, block, monkeypatch):
        # a small BLOCK makes the table hold fewer rows than the basis
        monkeypatch.setattr(linalg, "BLOCK", block)
        rng = random.Random(f"{p}:{group}:{block}")
        for trial in range(12):
            kind = ("dense", "sparse", "dependent", "unit")[trial % 4]
            ngroups = rng.choice([1, 2, rng.randint(1, 64), 64])
            d = rng.randint(1, MAX_DIM[p])
            basis = random_basis(rng, p, d, ngroups * group, kind)
            assert min_nonzero_weight(basis, p, group) == naive_min_weight(basis, p, group), \
                (kind, d, ngroups)

    @pytest.mark.parametrize("ngroups", [65, 100])
    def test_binary_beyond_one_word(self, ngroups):
        # 65 or more groups at p = 2 do not fit one uint64 per layer
        rng = random.Random(ngroups)
        for group in (1, 2):
            for d in (1, 5, 10):
                basis = random_basis(rng, 2, d, ngroups * group, "dense")
                assert min_nonzero_weight(basis, 2, group) == naive_min_weight(basis, 2, group)

    def test_zero_rows_have_no_weight(self):
        assert min_nonzero_weight([[0, 0, 0, 0]], 3, group=2) == 3
        assert min_nonzero_weight([[0] * 6] * 3, 2) == 7

    @pytest.mark.parametrize("p,d", [(2, 5), (3, 4), (65521, 2)])
    def test_budget_counts_every_combination(self, p, d):
        basis = np.eye(d, dtype=np.int64)
        assert min_nonzero_weight(basis, p, budget=p ** d) == 1
        with pytest.raises(BudgetError) as err:
            min_nonzero_weight(basis, p, budget=p ** d - 1)
        assert err.value.required == p ** d
        assert err.value.budget == p ** d - 1

    def test_value_errors(self):
        with pytest.raises(ValueError, match="empty basis has no nonzero combinations"):
            min_nonzero_weight(np.zeros((0, 4), dtype=np.int64), 3)
        with pytest.raises(ValueError, match="column count not divisible by group size"):
            min_nonzero_weight([[1, 0, 1]], 3, group=2)
