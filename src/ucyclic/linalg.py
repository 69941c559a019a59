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


def mul(A, B) -> np.ndarray:
    """The integer product A @ B, computed in float64 (BLAS) and returned as int64.

    It is exact for the F_p matrices of this package: with entries in [0, p),
    p <= 2^16, and an inner dimension of at most kn <= 512, each term is below
    2^32 and every partial sum below 2^41 < 2^53, so no float64 sum rounds,
    in whatever order BLAS adds the terms.
    """
    return (np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64)).astype(np.int64)


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivots): zero rows dropped, pivot entries scaled to 1, pivot
    columns cleared above and below, pivots ascending, R an int64 array.  R
    is the canonical form of the row space.

    Only the columns that hold an entry are visited, since a row step never
    fills a column that is zero in every row; the remainder of rows inserted
    into an echelon form, for one, is zero on all of that form's pivot
    columns.  A pivot step takes the largest entry of its column at or below
    row r, scales the row only when that entry is not 1, and touches only
    the rows with an entry in the column, from that column on.  For p = 2
    each row is packed into a Python int, column c at bit ncols-1-c, so a
    row's leading bit is its pivot column.  The rows are inserted one at a
    time into an echelon basis keyed by leading bit: while a new row has a
    bit in the mask of leading bits, the basis row at the highest such bit
    is XORed in, and what is left, if anything, joins the basis.  Then each
    basis row, lowest leading bit first, is cleared at the other leading
    bits by XORing in the rows already final, and the basis is unpacked
    once, in ascending pivot order.
    """
    M = np.array(mat, dtype=np.int64)
    M %= p
    if p == 2:
        return _rref_binary(M)
    nrows = len(M)
    r = 0
    pivots: list[int] = []
    for c in np.flatnonzero(M.any(axis=0)).tolist():
        if r == nrows:
            break
        col = M[:, c]
        i = r + int(col[r:].argmax())
        a = int(col[i])
        if a == 0:
            continue
        if i != r:
            row = M[i].copy()
            M[i] = M[r]
            M[r] = row
        pivot_row = M[r, c:]
        if a != 1:
            pivot_row *= pow(a, -1, p)
            pivot_row %= p
        factors = col.copy()
        factors[r] = 0
        rows = factors.nonzero()[0]
        if rows.size:
            M[rows, c:] = (M[rows, c:] - factors[rows, None] * pivot_row) % p
        pivots.append(c)
        r += 1
    return M[:r], pivots


def _rref_binary(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    # rref over F_2 on rows packed into Python ints (see rref)
    nrows, ncols = M.shape
    nbytes = (ncols + 7) // 8
    data = np.packbits(M.astype(np.uint8), axis=1).tobytes()
    basis: dict[int, int] = {}  # leading bit -> row
    leads = 0
    for i in range(nrows):
        x = int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big")
        hits = x & leads
        while hits:
            x ^= basis[1 << (hits.bit_length() - 1)]
            hits = x & leads
        if x:
            lead = 1 << (x.bit_length() - 1)
            basis[lead] = x
            leads |= lead
    bits = sorted(basis)
    for b in bits:  # the rows with lower leading bits are already final
        row = basis[b]
        hits = row & leads & (b - 1)
        while hits:
            bit = hits & -hits
            row ^= basis[bit]
            hits ^= bit
        basis[b] = row
    bits.reverse()
    packed = np.frombuffer(b"".join(basis[b].to_bytes(nbytes, "big") for b in bits),
                           dtype=np.uint8).reshape(len(bits), nbytes)
    R = np.unpackbits(packed, axis=1, count=ncols).astype(np.int64)
    return R, [8 * nbytes - b.bit_length() for b in bits]


def reduce_vector(R: np.ndarray, pivots, v, p: int) -> np.ndarray:
    """Residual of v (a vector, or a matrix of row vectors) after elimination
    against RREF rows; zero iff v lies in the row space."""
    v = np.asarray(v, dtype=np.int64) % p
    if len(pivots) == 0:
        return v
    # the pivot columns of R are unit vectors, so they reduce to zero
    return (v - mul(v[..., list(pivots)], R)) % p


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
    when any of its entries is.  The search is exhaustive, but a nonzero
    scalar multiple of a word has the same group support, so only the
    combinations whose leading nonzero coefficient is 1 are visited, about
    p^rank / (p - 1) of them; the budget still counts all p^rank.  The last
    rows are tabulated, at most BLOCK combinations kept in memory, and the
    table is scanned once against each leading-one combination of the others
    (and once alone).  For p = 2 and at most 64 groups each layer of a word is
    packed into one machine word; otherwise a coordinate of table entry plus
    offset is zero exactly when the entry equals the negated offset there.
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
    ngroups = ncols // group
    dlo = 0  # the first row always stays out of the table, to skip multiples
    while dlo < d - 1 and p ** (dlo + 1) <= BLOCK:
        dlo += 1
    hi, lo = B[:d - dlo], B[d - dlo:]
    if p == 2 and ngroups <= 64:
        blocks = _binary_weights(hi, lo, ngroups, group)
    else:
        blocks = _residue_weights(hi, lo, p, ngroups, group)
    best = ngroups + 1
    for w in blocks:
        w = w[w > 0]
        if w.size:
            m = int(w.min())
            if m < best:
                best = m
                if best == 1:
                    return 1
    return best


def _leading_ones(rows, p: int):
    """Every F_p-combination of the rows whose first nonzero coefficient is 1."""
    for i in range(len(rows)):
        for tail in itertools.product(range(p), repeat=len(rows) - 1 - i):
            yield (rows[i] + np.array(tail, dtype=np.int64) @ rows[i + 1:]) % p


def _residue_weights(hi, lo, p: int, ngroups: int, group: int):
    """Group weights of all combinations of lo, added to zero and then to each
    leading-one combination of hi: one array per offset."""
    ncols = lo.shape[1]
    dt = np.min_scalar_type(2 * p - 2)  # holds the sum of two residues
    # one combination of lo per column, in C order so that each scan reads rows
    table = np.zeros((ncols, 1), dtype=dt)
    for row in lo:
        s = (np.outer(row, np.arange(p)) % p).astype(dt)[:, :, None] + table[:, None, :]
        table = np.minimum(s, s - p).reshape(ncols, -1)  # s - p wraps below p
    count = np.min_scalar_type(ngroups)
    for offset in itertools.chain([np.zeros(ncols, dtype=np.int64)], _leading_ones(hi, p)):
        nz = table != ((-offset) % p).astype(dt)[:, None]
        if group > 1:
            nz = nz.reshape(ngroups, group, -1).any(axis=1)
        yield nz.sum(axis=0, dtype=count)


def _binary_weights(hi, lo, ngroups: int, group: int):
    """Group weights of all binary combinations of lo, added to each
    combination of hi in Gray-code order: one array per combination of hi.
    Layer l of a word is one uint64 whose bit j is coordinate j's entry."""
    bits = np.uint64(1) << np.arange(ngroups, dtype=np.uint64)

    def pack(M):
        layers = M.reshape(len(M), ngroups, group).transpose(0, 2, 1).astype(np.uint64)
        return (layers * bits).sum(axis=2, dtype=np.uint64)

    table = np.zeros((group, 1), dtype=np.uint64)
    for row in pack(lo):
        table = np.concatenate([table, table ^ row[:, None]], axis=1)
    rows = pack(hi)
    offset = np.zeros(group, dtype=np.uint64)
    for step in range(1 << len(hi)):
        if step:
            offset ^= rows[(step & -step).bit_length() - 1]
        support = table[0] ^ offset[0]
        for layer in range(1, group):
            support |= table[layer] ^ offset[layer]
        yield np.bitwise_count(support)
