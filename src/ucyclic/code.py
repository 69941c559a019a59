"""Cyclic codes over R_k as ideals of R_k[x]/(x^n - 1).

A code is pinned down by its footprint: the reduced row echelon basis of the
code viewed as an F_p-subspace of F_p^(kn), with coordinate i, layer j in
column i*k + j.  The footprint is canonical, so it is the equality and
hashing key; the stored generator list is presentation only, and a code
built from rows (such as a dual) has none.  A footprint must be closed under
the cyclic shift (x-multiplication) and under u-multiplication.  `from_rows`,
which accepts arbitrary rows, checks that; `code_from_generators` and `dual`
build ideals by theorem, stated in their docstrings, and check nothing
again.  Every F_p elimination runs through `_echelon`, which visits the
columns layer-major, highest degree first.  That order proves the structure
read off the footprint: the last row pivoting in layer i is the canonical
lifted generator of level i, and its layer i is the torsion generator g_i
(`CyclicCode.level_generators`, `CyclicCode.torsion_tower`), with no further
elimination and no check beyond the tower's own.  When gcd(n, p) = 1,
`code_from_generators` runs no elimination at all: x^n - 1 is squarefree,
so by the CRT the torsion generators are a chain of gcds of the generators'
layers, the code is the direct sum of u^j <g_j> over F_p (Dinh and
Lopez-Permouth, IEEE-IT 2004), and its footprint is written down from that
tower, one remainder table x^e mod g_j per distinct g_j (`_tabulate`).
When p | n it doubles (`_eliminate`): it keeps its echelon form between
steps, eliminates only what a step adds (`_extend`) and stops at the first
step that adds nothing.  The dual is the
F_p-nullspace read off the footprint: v is orthogonal to a u-closed code iff
the top u-layer of every inner product v . c vanishes, and that layer is the
F_p dot product of v with c's u-layers reversed inside each coordinate block
(`_layer_reversal`).  Its size and self-duality need no dual (Frobenius).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .chainring import RkPoly
from .gfp import FpPoly, PrimeParams, fp_cyclic_min_weight, poly_gcd
from .linalg import DEFAULT_BUDGET, InvariantError

__all__ = ["CyclicCode", "TorsionTower", "code_from_generators",
           "code_to_json", "code_from_json", "load_code_file"]

DEFER_WIDTH = 64  # most columns kn at which _eliminate doubles its stack unreduced


def _shift_x(vec: np.ndarray, k: int, m: int = 1) -> np.ndarray:
    # multiply by x^m mod x^n - 1: coordinate blocks rotate m steps (row-wise)
    s = k * m
    return np.concatenate([vec[..., -s:], vec[..., :-s]], axis=-1)


def _shift_u(vec: np.ndarray, n: int, k: int) -> np.ndarray:
    # multiply by u: layers shift up inside each coordinate block (row-wise)
    m = vec.reshape(vec.shape[:-1] + (n, k))
    out = np.zeros_like(m)
    out[..., 1:] = m[..., :-1]
    return out.reshape(vec.shape)


def _layer_reversal(n: int, k: int) -> list[int]:
    # columns with the u-layers reversed inside each coordinate block
    return [i * k + (k - 1 - j) for i in range(n) for j in range(k)]


def _echelon(params: PrimeParams, rows) -> tuple[np.ndarray, list[int]]:
    """RREF of the rows with the columns visited layer-major, highest degree
    first; R keeps the i*k + j layout and the pivots, in visit order, are
    natural column indices.  The RREF for a fixed column order is unique.
    A stack with no rows has the empty footprint, with no elimination."""
    k, n = params.k, params.n
    if len(rows) == 0:
        return np.zeros((0, k * n), dtype=np.int64), []
    order, inverse = _visit_order(k, n)
    M = np.asarray(rows, dtype=np.int64).reshape(len(rows), k * n)[:, order]  # one copy
    E, piv = linalg.rref(M, params.p)
    return E.take(inverse, axis=1), order[piv].tolist()  # C order: CyclicCode keeps it uncopied


def _extend(params: PrimeParams, E: np.ndarray, piv: list[int],
            X: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """`_echelon` of the stacked rows [E; X], for (E, piv) an `_echelon` result.

    X is reduced against E by one product, whatever the column order, since
    E's pivot columns are unit vectors.  Only the nonzero remainder is
    eliminated, and E is cleared at the new pivots by one more product; E's
    rows keep their leading entries, because a new pivot row is zero before
    its pivot.  The rows are merged by their pivots' places in visit order.
    """
    p = params.p
    Y = (X - linalg.mul(X[:, piv], E)) % p
    Y = Y[Y.any(axis=1)]
    if not len(Y):
        return E, piv
    E2, piv2 = _echelon(params, Y)
    E = (E - linalg.mul(E[:, piv2], E2)) % p
    pivots = np.array(piv + piv2)
    merge = np.argsort(_visit_order(params.k, params.n)[1][pivots])
    return np.concatenate([E, E2]).take(merge, axis=0), pivots[merge].tolist()


@functools.cache
def _visit_order(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # `_echelon`'s column visit order and its inverse permutation, read-only
    order = np.array([i * k + j for j in range(k) for i in reversed(range(n))], dtype=np.intp)
    inverse = np.argsort(order)
    order.flags.writeable = inverse.flags.writeable = False
    return order, inverse


def _u_multiples(rows: np.ndarray, n: int, k: int) -> np.ndarray:
    # rows, u*rows, ..., u^(k-1)*rows, stacked
    out = [rows]
    for _ in range(k - 1):
        out.append(_shift_u(out[-1], n, k))
    return np.concatenate(out)


@dataclass(frozen=True)
class TorsionTower:
    """Monic generators of the torsion codes Tor_0 .. Tor_(k-1) over F_p.

    Tor_i collects the layer-i polynomials of codewords with u-valuation >= i;
    it is a cyclic code over F_p and its monic generator divides the one below
    it.  The zero cyclic code has generator x^n - 1.
    """

    params: PrimeParams
    gens: tuple[FpPoly, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        """(r_1, ..., r_k) with r_{i+1} = degree of tower generator i."""
        return tuple(g.degree for g in self.gens)

    @property
    def dim(self) -> int:
        return sum(self.params.n - g.degree for g in self.gens)

    @property
    def rank(self) -> int:
        """n - deg g_(k-1), the size of a minimal spanning set; 0 for the zero code."""
        return self.params.n - self.gens[-1].degree

    @property
    def generator(self) -> RkPoly:
        """sum u^i g_i mod x^n - 1, which generates the code when gcd(n, p) = 1."""
        return RkPoly._of(self.gens, self.params).mod_xn()


class CyclicCode:
    """An ideal of R_k[x]/(x^n - 1); immutable once constructed."""

    __slots__ = ("params", "generators", "footprint", "pivots", "dim",
                 "_tower", "_canonical")

    def __init__(self, params: PrimeParams, generators, footprint: np.ndarray, pivots):
        self.params = params
        self.generators = tuple(generators)
        footprint = np.ascontiguousarray(footprint, dtype=np.int64)
        footprint.flags.writeable = False
        self.footprint = footprint
        self.pivots = list(pivots)
        self.dim = int(footprint.shape[0])
        self._tower = None
        self._canonical = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, params: PrimeParams, rows, generators=()) -> "CyclicCode":
        """Build from spanning F_p row vectors (`_echelon`); checks shift and u closure."""
        code = cls(params, generators, *_echelon(params, rows))
        code._assert_closed()
        return code

    def _assert_closed(self):
        p, k, n = self.params.p, self.params.k, self.params.n
        F = self.footprint
        shifts = np.concatenate([_shift_x(F, k), _shift_u(F, n, k)])
        res = linalg.reduce_vector(F, self.pivots, shifts, p)
        if res[:self.dim].any():
            raise InvariantError("footprint not closed under the cyclic shift")
        if res[self.dim:].any():
            raise InvariantError("footprint not closed under u-multiplication")

    # -- identity --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def footprint_bytes(self) -> bytes:
        """Canonical byte serialization of the footprint (entries fit 16 bits)."""
        k, n = self.params.k, self.params.n
        head = f"{self.params.p}:{k}:{n}:{self.dim};".encode()
        return head + self.footprint.astype(">u2").tobytes()

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclicCode) and self.params == other.params
                and self.dim == other.dim
                and bool(np.array_equal(self.footprint, other.footprint)))

    def __hash__(self):
        return hash(self.footprint_bytes())

    def __repr__(self):
        return (f"CyclicCode(p={self.params.p}, k={self.params.k}, "
                f"n={self.params.n}, dim={self.dim})")

    # -- queries ----------------------------------------------------------

    def contains(self, w: RkPoly) -> bool:
        if w.params != self.params:
            raise ValueError("parameter mismatch")
        vec = np.array(w.to_vector(), dtype=np.int64)
        return not linalg.reduce_vector(self.footprint, self.pivots, vec, self.params.p).any()

    def _last_rows(self) -> dict[int, int]:
        # layer i -> index of the last footprint row whose pivot lies in layer i
        k = self.params.k
        return {c % k: r for r, c in enumerate(self.pivots)}

    def level_generators(self) -> tuple:
        """Per level i, the last footprint row whose pivot lies in layer i, as
        an RkPoly; None when Tor_i is zero.

        It has u-valuation i, its layer i is the monic torsion generator g_i,
        each layer j > i has degree < deg g_j, and it lies in C; see
        `structure.canonical_form` for why the column order proves all four.
        """
        last = self._last_rows()
        return tuple(RkPoly._from_digits(self.footprint[last[i]].tolist(), self.params)
                     if i in last else None for i in range(self.params.k))

    def torsion_tower(self) -> TorsionTower:
        if self._tower is not None:
            return self._tower
        p, k, n = self.params.p, self.params.k, self.params.n
        xn1 = FpPoly.xn_minus_1(n, p)
        # g_i is layer i of the last row pivoting in layer i; the checks below
        # are that reading's hypotheses for a code built without closure checks
        F, last = self.footprint, self._last_rows()
        gens = [FpPoly._of(F[last[i], i::k].tolist(), p) if i in last else xn1
                for i in range(k)]
        for i in range(k - 1):
            if not (gens[i] % gens[i + 1]).is_zero:
                raise InvariantError("torsion divisibility chain broken")
        if not (xn1 % gens[0]).is_zero:
            raise InvariantError("torsion generator does not divide x^n - 1")
        tower = TorsionTower(self.params, tuple(gens))
        if tower.dim != self.dim:
            raise InvariantError("torsion degrees inconsistent with code dimension")
        self._tower = tower
        return tower

    def dual(self) -> "CyclicCode":
        """Orthogonal code under the R_k-valued Euclidean inner product.

        For a code closed under u, v is orthogonal to it iff layer k-1 of v . c
        vanishes for every codeword c: if v . c has lowest nonzero layer l,
        then v . (u^(k-1-l) c) is nonzero in layer k-1.  That layer is the F_p
        dot product of v with c's layers reversed inside each coordinate
        block, so the dual is the F_p-nullspace of the footprint, read off
        its echelon form, with the columns permuted by that (involutive) reversal.

        The result is an ideal by theorem, so its closure is not checked: the
        inner product is R_k-bilinear and invariant under shifting both
        arguments cyclically, so v . (u c) = u (v . c) and (x v) . c =
        v . (x^(n-1) c) vanish for v in the dual and c in the ideal.
        """
        rows = linalg.nullspace(self.footprint, self.pivots, self.params.p)
        rows = rows[:, _layer_reversal(self.params.n, self.params.k)]
        return CyclicCode(self.params, (), *_echelon(self.params, rows))

    def is_self_dual(self) -> bool:
        """C = C^perp without building the dual: R_k is Frobenius, so dim C^perp
        = kn - dim C, and by the argument of `dual` C lies in C^perp iff
        F . F[:, rev]^T = 0 over F_p (`linalg.mul`); equal dimensions make it
        equality."""
        k, n, F = self.params.k, self.params.n, self.footprint
        return (2 * self.dim == k * n
                and not (linalg.mul(F, F[:, _layer_reversal(n, k)].T) % self.params.p).any())

    # -- distance ----------------------------------------------------------

    def min_distance_bruteforce(self, budget: int = DEFAULT_BUDGET) -> int:
        """Minimum Hamming weight by exhausting all p^dim codewords.

        A coordinate is nonzero when any of its k layers is.
        """
        if self.dim == 0:
            raise ValueError("zero code has no minimum distance")
        return linalg.min_nonzero_weight(self.footprint, self.params.p,
                                         group=self.params.k, budget=budget)

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        """Minimum Hamming weight via the top torsion code over F_p.

        The weight of the code equals the weight of Tor_(k-1): scaling any
        codeword by a power of u lands in u^(k-1) * Tor_(k-1) without
        increasing its weight.
        """
        top = self.torsion_tower().gens[-1]
        return fp_cyclic_min_weight(top, self.params, budget=budget)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        p, k, n = self.params.p, self.params.k, self.params.n
        # a code built from rows has no generators; its footprint rows span it
        vecs = ([g.to_vector() for g in self.generators] if self.generators
                else self.footprint.tolist())
        gens = [[[int(vec[i * k + j]) for j in range(k)] for i in range(n)]
                for vec in vecs]
        return {"p": p, "k": k, "n": n, "generators": gens}


def code_from_generators(params: PrimeParams, gens) -> CyclicCode:
    """The ideal generated by the given polynomials, reduced mod x^n - 1.

    The footprint spans {x^i * u^j * g : i < n, j < k, g in gens}.  When
    gcd(n, p) = 1 it is written down from the torsion tower (`_tabulate`),
    with no elimination; otherwise it is built by doubling (`_eliminate`).
    Either way the result is an ideal by theorem, so its closure under x and
    u is not checked again: `_tabulate` and `_eliminate` state the proofs.
    """
    return _generated(params, gens, _tabulate if params.coprime else _eliminate)


def _generated(params: PrimeParams, gens, build) -> CyclicCode:
    # the code of the generators reduced mod x^n - 1, with the footprint
    # build(params, reduced), an ideal by the theorem in build's docstring
    reduced = []
    for g in gens:
        if g.params != params:
            raise ValueError("parameter mismatch among generators")
        reduced.append(g.mod_xn())
    return CyclicCode(params, reduced, *build(params, reduced))


def _eliminate(params: PrimeParams, reduced) -> tuple[np.ndarray, list[int]]:
    """`_echelon` of {x^i * u^j * g : i < n, j < k, g in reduced}, by doubling.

    If the rows span V_m, the x^i-multiples for i < m, then they and their
    rotations by m coordinate blocks span V_2m.  Up to DEFER_WIDTH columns
    the stack is doubled unreduced while it has at most kn rows; then it is
    eliminated once (`_echelon`), and each later step inserts the rotated
    echelon form into it (`_extend`).  The loop stops at the first step that
    adds no pivot: V_2m = V_m means x^m V_m lies in V_m, so x^2m V_m lies in
    x^m V_m and in V_m, and no later step can grow it.

    The span is an ideal.  The stack holds every u-multiple, and x^i and u^j
    commute, so V is closed under u.  It is closed under x: when the loop
    ends at m >= n, V_m holds x^i g for every i, and x^n = 1; when it stops
    early, x^m V_m lies in V_m, and V_m holds x^i g for i < m, so x V_m,
    spanned by x^i g for 1 <= i <= m, lies in V_m.
    """
    k, n = params.k, params.n
    rows = _u_multiples(linalg.as_matrix([g.to_vector() for g in reduced], k * n, params.p), n, k)
    m = 1
    while m < n and len(rows) <= k * n <= DEFER_WIDTH:
        rows, m = np.concatenate([rows, _shift_x(rows, k, m)]), 2 * m
    E, piv = _echelon(params, rows)
    while m < n:
        dim = len(piv)
        E, piv = _extend(params, E, piv, _shift_x(E, k, m))
        m *= 2
        if len(piv) == dim:
            break
    return E, piv


def _tabulate(params: PrimeParams, reduced) -> tuple[np.ndarray, list[int]]:
    """`_eliminate`'s result when gcd(n, p) = 1, written down from the tower.

    Then x^n - 1 is squarefree, and R_k[x]/(x^n - 1) is the product of the
    chain rings F_p[x]/(f)[u]/(u^k) over its irreducible factors f (CRT).
    There a generator a = sum u^l a_l has u-valuation the least l with
    f not dividing a_l, and the ideal is generated by u to the least such
    valuation over the generators.  So f divides the torsion generator g_i
    iff it divides every layer a_l, l <= i, of every generator:

        g_i = gcd(x^n - 1, a_l for l <= i, every a) = gcd(g_(i-1), layer i),

    a chain of gcds that skips zero layers and stops at g = 1.  The code is
    then the direct sum of u^j <g_j> over F_p (Dinh and Lopez-Permouth,
    IEEE Trans. Inform. Theory 50 (2004)).  In `_echelon`'s visit order its
    reduced echelon form is block-diagonal by layer: layer j holds the rows
    x^e - (x^e mod g_j) for e = n - 1 down to deg g_j.  Row e has its pivot
    at degree e and its other entries below degree deg g_j, where the layer
    has no pivot, so the rows are already reduced; and the reduced echelon
    form for a fixed column order is unique.  The tabulated span is the ideal
    sum of u^j <g_j>: u maps u^j <g_j> into u^(j+1) <g_j>, which lies in
    u^(j+1) <g_(j+1)> since g_(j+1) divides g_j, and x maps each <g_j> into itself.
    """
    p, k, n = params.p, params.k, params.n
    g, above, blocks = FpPoly.xn_minus_1(n, p), None, []
    for j in range(k):
        for a in reduced:
            if g.degree == 0:
                break
            if a.ulayers[j]:
                g = poly_gcd(g, a.ulayers[j])
        if g != above:
            block, above = _remainder_rows(g, n, p), g
        blocks.append(block)
    F = np.zeros((sum(len(b) for b in blocks), k * n), dtype=np.int64)
    pivots = []
    for j, block in enumerate(blocks):
        F[len(pivots):len(pivots) + len(block), j::k] = block
        pivots += range((n - 1) * k + j, (n - 1 - len(block)) * k + j, -k)
    return F, pivots


def _remainder_rows(g: FpPoly, n: int, p: int) -> np.ndarray:
    # x^e - (x^e mod g) for e = n - 1 down to deg g, the rows of an
    # (n - deg g) x n array: <g>'s reduced echelon form in `_echelon`'s order
    d = g.degree
    B = np.zeros((n - d, n), dtype=np.int64)
    B[np.arange(n - d), np.arange(n - 1, d - 1, -1)] = 1
    if 0 < d < n:
        low = [-c % p for c in g.coeffs[:d]]  # x^d mod g
        rems, r = [], low
        for _ in range(d, n):
            rems.append(r)
            c, r = r[-1], [0] + r[:-1]
            if c:
                r = [(a + c * b) % p for a, b in zip(r, low)]
        B[:, :d] = -np.array(rems[::-1], dtype=np.int64) % p
    return B


def _validate_digits(entry, k: int, p: int) -> list[int]:
    if not isinstance(entry, list) or len(entry) != k:
        raise ValueError(f"coefficient entry must be a list of {k} digits")
    digits = []
    for d in entry:
        if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < p:
            raise ValueError(f"digit out of range [0, {p})")
        digits.append(d)
    return digits


def code_from_json_dict(doc: dict) -> CyclicCode:
    """Parse the canonical interchange document.

    {"p": int, "k": int, "n": int, "generators": [[[d_0..d_{k-1}] x n], ...]}
    with no extra fields.  Generators of degree >= n are rejected.
    """
    if not isinstance(doc, dict):
        raise ValueError("code document must be a JSON object")
    if set(doc) != {"p", "k", "n", "generators"}:
        raise ValueError("code document must have exactly the fields p, k, n, generators")
    params = PrimeParams(doc["p"], doc["k"], doc["n"])
    k, n = params.k, params.n
    if not isinstance(doc["generators"], list):
        raise ValueError("generators must be a list")
    gens = []
    for entries in doc["generators"]:
        if not isinstance(entries, list):
            raise ValueError("generator must be a list of coefficient entries")
        for idx, entry in enumerate(entries):
            digits = _validate_digits(entry, k, params.p)
            if idx >= n and any(digits):
                raise ValueError("generator degree >= n; reduce modulo x^n - 1 first")
        layers = [[entries[i][j] if i < len(entries) else 0 for i in range(n)]
                  for j in range(k)]
        gens.append(RkPoly(layers, params))
    return code_from_generators(params, gens)


def code_to_json(code: CyclicCode) -> str:
    return json.dumps(code.to_json_dict(), indent=2) + "\n"


def code_from_json(text: str) -> CyclicCode:
    return code_from_json_dict(json.loads(text))


def load_code_file(path) -> CyclicCode:
    with open(path, "r", encoding="utf-8") as fh:
        return code_from_json(fh.read())
