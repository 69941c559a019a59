"""Exact dense linear algebra over F_p on integer numpy matrices."""

from __future__ import annotations

import itertools

import numpy as np

BLOCK = 1 << 14  # most partial combinations min_nonzero_weight keeps in memory
DEFAULT_BUDGET = 1 << 24  # codewords an exhaustive search may enumerate unless told otherwise


class BudgetError(ValueError):
    """An exhaustive enumeration would exceed the caller's codeword budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration budget exceeded: {required} codewords required, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class InvariantError(AssertionError):
    """An internal consistency check failed; raised explicitly so it survives `python -O`."""


def as_matrix(rows, ncols: int, p: int) -> np.ndarray:
    """Stack row vectors into an (m, ncols) int64 matrix reduced mod p."""
    if len(rows) == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols) % p


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivots): zero rows dropped, pivot entries scaled to 1, pivot
    columns cleared above and below.  R is the canonical form of the row space.
    """
    M = np.array(mat, dtype=np.int64)
    M %= p
    nrows, ncols = M.shape
    r = 0
    pivots: list[int] = []
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
        # only rows with an entry in column c change, and only from column c
        col = M[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        M[rows, c:] = (M[rows, c:] - np.outer(col[rows], M[r, c:])) % p
        pivots.append(c)
        r += 1
    return M[:r], pivots


def reduce_vector(R: np.ndarray, pivots, v, p: int) -> np.ndarray:
    """Residual of v (a vector, or a matrix of row vectors) after elimination
    against RREF rows; zero iff v lies in the row space."""
    v = np.asarray(v, dtype=np.int64) % p
    if len(pivots) == 0:
        return v
    # the pivot columns of R are unit vectors, so they reduce to zero
    free = np.ones(v.shape[-1], dtype=bool)
    free[list(pivots)] = False
    res = np.zeros_like(v)
    res[..., free] = (v[..., free] - v[..., list(pivots)] @ R[:, free]) % p
    return res


def nullspace(R: np.ndarray, pivots, p: int) -> np.ndarray:
    """Basis, as rows, of {x : R @ x = 0} over F_p, one row per free column,
    ascending, for R a reduced echelon form with row r pivoting at pivots[r].

    No elimination runs: the pivot columns are unit vectors, whatever order
    the columns were visited in.  With no rows the basis is the identity.
    """
    ncols = R.shape[1]
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    basis = np.zeros((ncols - len(pivots), ncols), dtype=np.int64)
    basis[:, free] = np.eye(len(basis), dtype=np.int64)
    basis[:, pivots] = -R[:, free].T % p
    return basis


def min_nonzero_weight(basis, p: int, group: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum number of nonzero column groups over all nonzero F_p-combinations
    of the basis rows.

    Groups are consecutive runs of `group` columns; a group counts as nonzero
    when any of its entries is.  Enumeration is exhaustive over all p^rank
    combinations, blocked so that a table of at most BLOCK partial
    combinations is kept in memory; combinations are visited in odometer order
    over the coefficient vectors, so the scan is deterministic.
    """
    B = np.array(basis, dtype=np.int64) % p
    d, ncols = B.shape
    if d == 0:
        raise ValueError("empty basis has no nonzero combinations")
    if ncols % group:
        raise ValueError("column count not divisible by group size")
    required = p ** d
    if required > budget:
        raise BudgetError(required, budget)
    if p <= 63:
        dt = np.int8
    elif p <= (1 << 14):
        dt = np.int16
    else:
        dt = np.int32
    dlo = 0
    while dlo < d and p ** (dlo + 1) <= BLOCK:
        dlo += 1
    base = np.zeros((1, ncols), dtype=dt)
    for i in range(dlo):
        mults = [((c * B[i]) % p).astype(dt) for c in range(p)]
        base = np.concatenate([(base + m) % p for m in mults], axis=0)
    ngroups = ncols // group
    best = ngroups + 1
    hi = B[dlo:]
    for combo in itertools.product(range(p), repeat=d - dlo):
        if combo:
            offset = ((np.array(combo, dtype=np.int64) @ hi) % p).astype(dt)
            W = (base + offset) % p
        else:
            W = base
        nz = (W.reshape(-1, ngroups, group) != 0).any(axis=2)
        w = nz.sum(axis=1)
        w = w[w > 0]
        if w.size:
            m = int(w.min())
            if m < best:
                best = m
                if best == 1:
                    return 1
    return best
