import random

import numpy as np
import pytest

from ucyclic.linalg import nullspace, rref


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
