"""Arithmetic in the prime field F_p and its polynomial ring F_p[x].

Polynomials are immutable coefficient tuples, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple and its degree is the
sentinel NEG_INF, which orders below every integer.

Trusted digits: the public constructor `FpPoly(coeffs, p)` normalises any
integers (CLI input, numpy scalars, negative numbers, numbers >= p) to Python
ints in [0, p).  Everything the module computes is already reduced, so every
arithmetic result is built by `FpPoly._of`, which strips trailing zeros and
checks nothing else; it must never see numpy scalars, since equality and
hashing read the tuple.  Products, divisions and folds mod x^n - 1 add
unreduced Python ints and reduce each output digit once (a division also
reduces each row's leading digit).  Beyond ring arithmetic
the module factors x^n - 1 (cyclotomic split, then Cantor-Zassenhaus
equal-degree factorization of each cyclotomic polynomial whose factor degree
ord_d(p) is known in advance), enumerates its monic divisor lattice, and
finds the minimum Hamming weight of a cyclic code over F_p by an exact
information-set search over its systematic rows (`fp_cyclic_min_weight`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import linalg
from .linalg import DEFAULT_BUDGET, BudgetError, InvariantError

__all__ = [
    "NEG_INF", "BudgetError", "is_prime", "PrimeParams", "FpPoly",
    "poly_gcd", "poly_xgcd",
    "factor_xn_minus_1", "divisors_xn_minus_1", "fp_cyclic_min_weight",
]

NEG_INF = float("-inf")
DIVISOR_CAP = 1 << 20  # most divisors divisors_xn_minus_1 will build


def is_prime(m: int) -> bool:
    """Deterministic trial-division primality test; fine for m <= 2^16."""
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


@dataclass(frozen=True)
class PrimeParams:
    """The pair (p, k) fixing the chain ring Z_p[u]/(u^k), plus the code length n."""

    p: int
    k: int
    n: int

    def __post_init__(self):
        for name in ("p", "k", "n"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if not (2 <= self.p <= 1 << 16 and is_prime(self.p)):
            raise ValueError("p must be a prime in [2, 2^16]")
        if not 1 <= self.k <= 8:
            raise ValueError("k must be in [1, 8]")
        if not 1 <= self.n <= 64:
            raise ValueError("n must be in [1, 64]")

    @property
    def coprime(self) -> bool:
        """True when the code length is coprime to the characteristic."""
        return gcd(self.n, self.p) == 1


class FpPoly:
    """Dense polynomial over F_p, stored lowest degree first.

    `FpPoly(coeffs, p)` normalises any integers (numpy scalars, negative
    numbers, numbers >= p); `FpPoly._of(digits, p)` trusts them.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.p = p

    @classmethod
    def _of(cls, digits, p: int) -> "FpPoly":
        """The polynomial of Python ints already in [0, p), lowest degree
        first; trailing zeros are stripped and nothing else is checked."""
        end = len(digits)
        while end and not digits[end - 1]:
            end -= 1
        f = _new(cls)
        f.coeffs = tuple(digits[:end])
        f.p = p
        return f

    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls._of((), p)

    @classmethod
    def one(cls, p: int) -> "FpPoly":
        return cls._of((1,), p)

    @classmethod
    def x(cls, p: int) -> "FpPoly":
        return cls._of((0, 1), p)

    @classmethod
    def monomial(cls, c: int, e: int, p: int) -> "FpPoly":
        return cls._of((0,) * e + (int(c) % p,), p)

    @classmethod
    def xn_minus_1(cls, n: int, p: int) -> "FpPoly":
        return cls._of((p - 1,) + (0,) * (n - 1) + (1,), p)

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpPoly) and self.p == other.p
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"FpPoly({list(self.coeffs)}, p={self.p})"

    def _check(self, other: "FpPoly"):
        if self.p != other.p:
            raise ValueError("modulus mismatch")

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        p, a, b = self.p, self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % p for x, y in zip(a, b)]
        out += a[len(b):]
        return FpPoly._of(out, p)

    def __neg__(self) -> "FpPoly":
        p = self.p
        return FpPoly._of([p - c if c else 0 for c in self.coeffs], p)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        p, a, b = self.p, self.coeffs, other.coeffs
        out = [(x - y) % p for x, y in zip(a, b)]
        if len(a) > len(b):
            out += a[len(b):]
        else:
            out += [p - y if y else 0 for y in b[len(a):]]
        return FpPoly._of(out, p)

    def __mul__(self, other):
        p = self.p
        if isinstance(other, int):
            c = other % p
            return FpPoly._of([x * c % p for x in self.coeffs] if c else (), p)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FpPoly._of((), p)
        out = [0] * (len(a) + len(b) - 1)
        _mul_into(out, a, b)
        return FpPoly._of([s % p for s in out], p)

    def __rmul__(self, other: int) -> "FpPoly":
        return self * other

    def __pow__(self, e: int) -> "FpPoly":
        if e < 0:
            raise ValueError("negative exponent")
        out = FpPoly.one(self.p)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def _divmod(self, other: "FpPoly") -> tuple:
        # quotient and remainder digits of the long division by other
        self._check(other)
        if other.is_zero:
            raise ValueError("zero divisor polynomial")
        p, a, b = self.p, self.coeffs, other.coeffs
        db = len(b) - 1
        if len(a) <= db:
            return (), a
        # a step reduces only the top digit of rem; the digits below collect
        # one unreduced product per step and are reduced once at the end
        rem = list(a)
        low = b[:-1]
        binv = pow(b[-1], -1, p)
        q = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i] % p
            if c:
                f = c if binv == 1 else c * binv % p
                q[i - db] = f
                rem[i - db:i] = [r - f * y for r, y in zip(rem[i - db:i], low)]
        return q, [r % p for r in rem[:db]]

    def __divmod__(self, other: "FpPoly"):
        q, r = self._divmod(other)
        return FpPoly._of(q, self.p), FpPoly._of(r, self.p)

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return FpPoly._of(self._divmod(other)[0], self.p)

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return FpPoly._of(self._divmod(other)[1], self.p)

    def monic(self) -> "FpPoly":
        if self.is_zero or self.lead == 1:
            return self
        return self * pow(self.lead, -1, self.p)

    def shift(self, e: int) -> "FpPoly":
        """Multiply by x^e."""
        if self.is_zero:
            return self
        return FpPoly._of((0,) * e + self.coeffs, self.p)

    def mod_xn_minus_1(self, n: int) -> "FpPoly":
        """Reduce modulo x^n - 1 by folding x^n down to 1."""
        cs = self.coeffs
        if len(cs) <= n:
            return self
        out = list(cs[:n])
        for s in range(n, len(cs), n):
            chunk = cs[s:s + n]
            out[:len(chunk)] = [x + y for x, y in zip(out, chunk)]
        p = self.p
        return FpPoly._of([x % p for x in out], p)


_new = object.__new__  # FpPoly._of fills the slots itself


def _mul_into(out: list, a, b):
    """Add the integer product of the digit sequences a and b into out,
    unreduced: one pass over the longer per nonzero digit of the shorter.
    Each sum grows by below p^2 per term; the caller reduces every digit of
    out once."""
    if len(a) < len(b):
        a, b = b, a
    la = len(a)
    for j, y in enumerate(b):
        if y:
            out[j:j + la] = [s + x * y for s, x in zip(out[j:j + la], a)]


def poly_xgcd(a: FpPoly, b: FpPoly) -> tuple[FpPoly, FpPoly, FpPoly]:
    """Extended Euclid: (g, s, t) with g monic, g = s*a + t*b."""
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    p = a.p
    r0, r1 = a, b
    s0, s1 = FpPoly.one(p), FpPoly.zero(p)
    t0, t1 = FpPoly.zero(p), FpPoly.one(p)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = pow(r0.lead, -1, p)
    return r0 * inv, s0 * inv, t0 * inv


def poly_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


# Each attempt separates two given factors with probability at least 4/9, so
# 64 attempts leave all pairs (at most 1770, in one Phi_d at n <= 64) separated
# but for odds below 10^-13; the bound only guarantees that the search ends.
SPLIT_ATTEMPTS = 64


def _mul_mod(a, b, low, p):
    """a*b mod f for coefficient arrays of length d = deg f.

    `low` holds x^j mod f for j in [d, 2d - 2], one row each.  Entries stay
    below 64 p^2 < 2^38, so int64 arithmetic is exact.
    """
    c = np.convolve(a, b) % p
    d = len(a)
    return (c[:d] + c[d:] @ low) % p


def _pow_mod(a, e, low, p):
    out = np.zeros(len(a), dtype=np.int64)
    out[0] = 1
    while e:
        if e & 1:
            out = _mul_mod(out, a, low, p)
        a = _mul_mod(a, a, low, p)
        e >>= 1
    return out


def _equal_degree_split(f: FpPoly, e: int, rng: random.Random) -> list[FpPoly]:
    """Split a squarefree monic f, all of whose irreducible factors have degree e.

    Cantor-Zassenhaus: for a random a mod f, the splitting polynomial is
    a^((p^e - 1)/2) - 1 (odd p) or the trace a + a^2 + ... + a^(2^(e-1))
    (p = 2).  In each factor's field F_(p^e) it vanishes for about half of
    the elements, so its gcd with a piece of f separates two given factors
    with probability about 1/2.  Every piece is split by the same element.
    """
    p, d = f.p, f.degree
    low = np.zeros((d - 1, d), dtype=np.int64)
    row = np.array([-c % p for c in f.coeffs[:d]], dtype=np.int64)  # x^d mod f
    for j in range(d - 1):
        low[j] = row
        row = (np.concatenate(([0], row[:-1])) + row[-1] * low[0]) % p
    pieces = [f]
    for _ in range(SPLIT_ATTEMPTS):
        if all(g.degree <= e for g in pieces):
            return pieces
        a = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        if p == 2:
            s = a
            for _ in range(e - 1):
                a = _mul_mod(a, a, low, p)
                s = s ^ a
        else:
            s = _pow_mod(a, (p ** e - 1) // 2, low, p)
            s[0] -= 1
        split = FpPoly(s, p)
        out = []
        for g in pieces:
            h = poly_gcd(g, split) if g.degree > e else g
            out += [h, g // h] if 0 < h.degree < g.degree else [g]
        pieces = out
    raise InvariantError(f"no equal-degree split of a degree-{d} factor "
                         f"in {SPLIT_ATTEMPTS} attempts")


def factor_xn_minus_1(params: PrimeParams) -> list[tuple[FpPoly, int]]:
    """Irreducible factorization of x^n - 1 over F_p as (monic factor, multiplicity).

    With n = p^a * m and gcd(m, p) = 1, x^n - 1 = (x^m - 1)^(p^a), so every
    multiplicity is p^a.  The squarefree part is the product of the
    cyclotomic polynomials Phi_d over d | m, each obtained by exact division
    of x^d - 1 by the Phi_c with c | d, c < d.  Phi_d splits mod p into
    irreducible factors all of degree ord_d(p): it is kept whole when that is
    its degree and split by `_equal_degree_split` otherwise.  The factor
    degrees and the product x^m - 1 are checked.  Sorted by (degree,
    coefficients); factorization is unique, so the output does not depend on
    the random elements the splitting draws.
    """
    p, n = params.p, params.n
    a, m = 0, n
    while m % p == 0:
        m //= p
        a += 1
    rng = random.Random(0)
    phis = {}
    factors = []
    for d in range(1, m + 1):
        if m % d:
            continue
        phi = FpPoly.xn_minus_1(d, p)
        for c, q in phis.items():
            if d % c == 0:
                phi = phi // q
        phis[d] = phi
        e = 1
        while pow(p, e, d) != 1 % d:
            e += 1
        split = [phi] if phi.degree == e else _equal_degree_split(phi, e, rng)
        if any(q.degree != e for q in split):
            raise InvariantError(f"a factor of Phi_{d} does not have degree {e}")
        factors += split
    prod = np.ones(1, dtype=np.int64)
    for q in factors:
        prod = np.convolve(prod, q.coeffs) % p
    if FpPoly(prod, p) != FpPoly.xn_minus_1(m, p):
        raise InvariantError(f"the factors do not multiply to x^{m} - 1")
    factors.sort(key=lambda q: (q.degree, q.coeffs))
    return [(q, p ** a) for q in factors]


def divisors_xn_minus_1(params: PrimeParams) -> list[FpPoly]:
    """All monic divisors of x^n - 1 over F_p, sorted by (degree, coefficients)."""
    facs = factor_xn_minus_1(params)
    count = 1
    for _, e in facs:
        count *= e + 1
    if count > DIVISOR_CAP:
        raise ValueError(f"divisor lattice too large: {count} divisors exceed cap {DIVISOR_CAP}")
    divs = [FpPoly.one(params.p)]
    for q, e in facs:  # the divisors so far, times each power of q up to q^e
        powers = [divs]
        for _ in range(e):
            powers.append([d * q for d in powers[-1]])
        divs = [d for ds in powers for d in ds]
    divs.sort(key=lambda f: (f.degree, f.coeffs))
    return divs


def _remainders(g: FpPoly, n: int, p: int) -> list:
    """x^e mod g for e = deg g .. n - 1, g monic: for p = 2 each a Python
    int whose bit i is the coefficient of x^i, else a list of deg g digits."""
    d = g.degree
    rems = []
    if p == 2:
        full = int("".join(map(str, reversed(g.coeffs))), 2)
        r = full ^ (1 << d)  # x^d mod g
        for _ in range(d, n):
            rems.append(r)
            r <<= 1
            if r >> d:
                r ^= full
    elif d == 0:
        rems = [[] for _ in range(n)]
    else:
        low = [-c % p for c in g.coeffs[:d]]  # x^d mod g
        r = low
        for _ in range(d, n):
            rems.append(r)
            c, r = r[-1], [0] + r[:-1]
            if c:
                r = [(a + c * b) % p for a, b in zip(r, low)]
    return rems


def _remainder_rows(g: FpPoly, n: int, p: int) -> np.ndarray:
    """x^e - (x^e mod g) for e = n - 1 down to deg g, the rows of an
    (n - deg g) x n array: <g>'s reduced echelon form with the columns
    visited highest degree first, and a systematic generator matrix of <g>
    with the identity on the positions deg g .. n - 1."""
    d = g.degree
    B = np.zeros((n - d, n), dtype=np.int64)
    B[np.arange(n - d), np.arange(n - 1, d - 1, -1)] = 1
    if 0 < d < n:
        rems = _remainders(g, n, p)[::-1]
        if p == 2:
            bits = np.array(rems, dtype=np.uint64)[:, None] >> np.arange(d, dtype=np.uint64)
            B[:, :d] = bits & np.uint64(1)
        else:
            B[:, :d] = -np.array(rems, dtype=np.int64) % p
    return B


def fp_cyclic_min_weight(gen: FpPoly, params: PrimeParams,
                         budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight of the cyclic code over F_p generated by gen.

    An exact information-set search (Brouwer-Zimmermann; Zimmermann 1996).
    With r = deg gen and dim = n - r, the systematic rows x^e - (x^e mod gen),
    e = r .. n - 1 (`_remainder_rows`), are unit vectors on the positions
    r .. n - 1.  So a combination with t nonzero coefficients, its info
    weight, weighs t plus the weight of the same combination of the
    remainders x^e mod gen (`_remainders`), which the search reads as its
    words.  A scalar multiple has the same weight, so only the combinations
    whose first nonzero coefficient is 1 need a visit.

    Any dim cyclically consecutive positions are an information set (a
    nonzero codeword that vanishes on them rotates to a multiple of gen of
    degree below r), and rotation keeps weight.  So once every combination
    of info weight at most t has been visited, a word lighter than all of
    them has weight at least t + 1 on each of the n windows of dim
    consecutive positions; each position lies in dim of them, so the word
    weighs at least n (t + 1) / dim.  The search stops once the best weight
    b found is at most the ceiling of that, that is, once every info weight
    up to top = floor((b - 1) dim / n) is visited.  At t = dim the bound
    exceeds n, so the search is exact.  Info weight 1 is the rows themselves.

    Beyond it the search meets in the middle.  The last rows, dim // 2 of
    them but at most linalg.BLOCK combinations, are spanned once and sorted
    by info weight (`_span`).  Round w pairs the combinations of w of the
    other rows whose first coefficient is 1 (`_lead_one`) with the spanned
    words of info weight at most top - w (`_lightest`), at most
    linalg.BLOCK pairs at a time; the rounds end after top, which only
    falls as b does.  The spanned words of an info weight are closed under
    negation, so a + s weighs as many as the positions where a and some
    spanned s of the same info weight differ.  For p = 2 a word is packed
    into one machine word; otherwise it is a column of residues.

    The remainders to x^n also check that gen divides x^n - 1 (x^n mod gen
    is 1).  The budget then counts all p^dim codewords, as an exhaustive
    search would, before the search starts.
    """
    p, n = params.p, params.n
    if gen.is_zero or gen.monic() == FpPoly.xn_minus_1(n, p):
        raise ValueError("zero code has no minimum distance")
    gen = gen.monic()
    r = gen.degree
    rems = _remainders(gen, n + 1, p) if r < n else None
    unit = int(r > 0) if p == 2 else [1, *[0] * (r - 1)][:r]  # 1 mod gen
    if rems is None or rems.pop() != unit:  # gen divides x^n - 1 iff x^n = 1 mod gen
        raise ValueError("generator must divide x^n - 1")
    dim = n - r
    if p ** dim > budget:
        raise BudgetError(p ** dim, budget)
    if p == 2:
        best = 1 + min(x.bit_count() for x in rems)
        low = np.array(rems, dtype=np.uint64)
    else:
        best = 1 + r - max(x.count(0) for x in rems)
        low = np.array(rems, dtype=np.min_scalar_type(2 * p - 2))  # holds two residues
    top = (best - 1) * dim // n
    if top <= 1:
        return best
    half = dim // 2
    while p ** half > linalg.BLOCK:
        half -= 1
    spanned, info = _span(low[dim - half:], p)
    ends = np.searchsorted(info, np.arange(half + 1), side="right").tolist()
    w = 0
    while w <= min(top, dim - half):
        start = 0 if w else 1  # the zero word is no codeword
        for words in _lead_one(low[:dim - half], w, p):
            end = ends[min(top - w, half)]
            if end > start:
                s = spanned[..., start:end]
                best = min(best, w + _lightest(words, s, info[start:end], p))
                top = (best - 1) * dim // n
        w += 1
    return best


def _span(rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Every F_p-combination of the rows, as words (`fp_cyclic_min_weight`),
    and its number of nonzero coefficients, sorted by that number (the zero
    word first).  Before the sort, entry sum c_i p^i has coefficient c_i on
    row i."""
    size = p ** len(rows)
    words = np.zeros(rows.shape[1:] + (size,), dtype=rows.dtype)
    info = np.zeros(size, dtype=np.uint8)
    if p > 2:  # multiples[i, :, c - 1] = c * row i
        multiples = (rows[:, :, None] * np.arange(1, p) % p).astype(rows.dtype)
    m = 1
    for i, row in enumerate(rows):
        if p == 2:
            words[m:2 * m] = words[:m] ^ row
        else:
            s = words[:, None, :m] + multiples[i, :, :, None]
            words[:, m:p * m] = np.minimum(s, s - p).reshape(len(row), -1)  # s - p wraps below p
        info[m:p * m].reshape(p - 1, m)[:] = info[:m] + 1
        m *= p
    order = np.argsort(info, kind="stable")
    return words[..., order], info[order]


def _lead_one(rows: np.ndarray, w: int, p: int):
    """The F_p-combinations of w of the rows whose first coefficient is 1,
    as words, in arrays of at most linalg.BLOCK (or one support's
    (p - 1)^(w - 1), when that is more)."""
    supports = itertools.combinations(range(len(rows)), w)
    if p == 2:
        per = linalg.BLOCK
    else:
        coefs = np.array(list(itertools.product((1,), *[range(1, p)] * (w - 1))) if w
                         else [()], dtype=np.int64)
        per = max(1, linalg.BLOCK // len(coefs))
    while chunk := list(itertools.islice(supports, per)):
        picked = rows[np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp,
                                  count=len(chunk) * w).reshape(len(chunk), w)]
        if p == 2:
            yield np.bitwise_xor.reduce(picked, axis=1)
        else:
            words = coefs @ picked.astype(np.int64) % p
            yield words.reshape(-1, rows.shape[1]).T.astype(rows.dtype)


def _lightest(words: np.ndarray, spanned: np.ndarray, info: np.ndarray, p: int) -> int:
    """The least info(s) plus the number of positions where a and s differ,
    over a in words and s in spanned, at most linalg.BLOCK pairs at a time."""
    step = min(info.size, linalg.BLOCK)
    per = max(1, linalg.BLOCK // step)
    best = None
    for j in range(0, info.size, step):
        s, extra = spanned[..., None, j:j + step], info[j:j + step]
        for i in range(0, words.shape[-1], per):
            a = words[..., i:i + per, None]
            if p == 2:
                differ = np.bitwise_count(a ^ s)
            else:
                differ = (a != s).sum(axis=0, dtype=np.uint8)
            m = int((differ + extra).min())
            best = m if best is None else min(best, m)
    return best
