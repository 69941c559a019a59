"""The chain ring R_k = Z_p[u]/(u^k) and its polynomial ring.

Everything is stored layer-major: a ring element is its k base-p digits
(layer j = coefficient of u^j), a polynomial is k F_p polynomials, one per
u-layer.  Truncation to a subring is then a slice and multiplication by u a
shift.  An element is a unit exactly when layer 0 is nonzero; polynomial
division requires the divisor's leading coefficient to be such a unit.

Trusted digits: `RkPoly(ulayers, params)` and `RkPoly.from_vector` accept and
check anything the public `FpPoly` constructor does.  Arithmetic results are
built by `RkPoly._of` from exactly k reduced `FpPoly` layers, or by
`RkPoly._from_digits` from reduced coefficient-major digits (slot i*k + j is
the u^j digit of the coefficient of x^i, the layout of `to_vector`), with no
check.  Products accumulate unreduced per layer and reduce each digit once;
division runs on coefficient-major digit lists and builds no object inside
its loop.
"""

from __future__ import annotations

from .gfp import FpPoly, PrimeParams, _mul_into

__all__ = ["RkElem", "RkPoly"]


class RkElem:
    """Element of R_k as its u-layer digits (exactly k, each in [0, p))."""

    __slots__ = ("layers", "params")

    def __init__(self, layers, params: PrimeParams):
        k, p = params.k, params.p
        ls = [int(c) % p for c in layers]
        if len(ls) > k:
            raise ValueError(f"at most {k} layers expected")
        self.layers = tuple(ls) + (0,) * (k - len(ls))
        self.params = params

    @classmethod
    def zero(cls, params: PrimeParams) -> "RkElem":
        return cls((), params)

    @classmethod
    def one(cls, params: PrimeParams) -> "RkElem":
        return cls((1,), params)

    @property
    def is_zero(self) -> bool:
        return not any(self.layers)

    @property
    def is_unit(self) -> bool:
        return self.layers[0] != 0

    def u_valuation(self) -> int:
        """Index of the lowest nonzero layer; k for zero."""
        for i, c in enumerate(self.layers):
            if c:
                return i
        return self.params.k

    def _check(self, other: "RkElem"):
        if self.params != other.params:
            raise ValueError("parameter mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, RkElem) and self.params == other.params
                and self.layers == other.layers)

    def __hash__(self):
        return hash((self.params, self.layers))

    def __repr__(self):
        return f"RkElem({list(self.layers)}, p={self.params.p})"

    def __add__(self, other: "RkElem") -> "RkElem":
        self._check(other)
        p = self.params.p
        return RkElem([(a + b) % p for a, b in zip(self.layers, other.layers)], self.params)

    def __neg__(self) -> "RkElem":
        return RkElem([-c for c in self.layers], self.params)

    def __sub__(self, other: "RkElem") -> "RkElem":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        return RkElem(_rk_mul(self.layers, other.layers, self.params.p, self.params.k),
                      self.params)

    def __rmul__(self, other: int) -> "RkElem":
        return self.scale(other)

    def scale(self, c: int) -> "RkElem":
        p = self.params.p
        return RkElem([(a * c) % p for a in self.layers], self.params)

    def inverse(self) -> "RkElem":
        """Multiplicative inverse, solved digit by digit (`_rk_inverse`)."""
        if not self.is_unit:
            raise ValueError("nilpotent element has no inverse")
        return RkElem(_rk_inverse(self.layers, self.params.p, self.params.k), self.params)


class RkPoly:
    """Polynomial over R_k stored as k u-layer polynomials over F_p."""

    __slots__ = ("ulayers", "params")

    def __init__(self, ulayers, params: PrimeParams):
        k = params.k
        ls = [l if isinstance(l, FpPoly) else FpPoly(l, params.p) for l in ulayers]
        if len(ls) > k:
            raise ValueError(f"at most {k} u-layers expected")
        for l in ls:
            if l.p != params.p:
                raise ValueError("modulus mismatch")
        ls += [FpPoly.zero(params.p)] * (k - len(ls))
        self.ulayers = tuple(ls)
        self.params = params

    @classmethod
    def _of(cls, layers, params: PrimeParams) -> "RkPoly":
        """The polynomial of exactly k FpPoly layers over params.p, unchecked."""
        f = _new(cls)
        f.ulayers = tuple(layers)
        f.params = params
        return f

    @classmethod
    def _from_digits(cls, digits, params: PrimeParams) -> "RkPoly":
        """The polynomial of coefficient-major digits in [0, p), unchecked:
        digits[i*k + j] is the u^j digit of the coefficient of x^i."""
        k, p = params.k, params.p
        return cls._of([FpPoly._of(digits[j::k], p) for j in range(k)], params)

    def _digits(self, length: int) -> list[int]:
        """Coefficient-major digits of the coefficients of x^0 .. x^(length-1);
        length must exceed the degree."""
        k = self.params.k
        out = [0] * (length * k)
        for j, l in enumerate(self.ulayers):
            out[j:len(l.coeffs) * k:k] = l.coeffs
        return out

    @classmethod
    def zero(cls, params: PrimeParams) -> "RkPoly":
        return cls._of((FpPoly.zero(params.p),) * params.k, params)

    @classmethod
    def one(cls, params: PrimeParams) -> "RkPoly":
        zero = FpPoly.zero(params.p)
        return cls._of((FpPoly.one(params.p),) + (zero,) * (params.k - 1), params)

    @classmethod
    def from_fp(cls, poly: FpPoly, params: PrimeParams, level: int = 0) -> "RkPoly":
        """u^level * poly."""
        k = params.k
        if poly.p != params.p:
            raise ValueError("modulus mismatch")
        if level >= k:
            raise ValueError(f"at most {k} u-layers expected")
        zero = FpPoly.zero(params.p)
        return cls._of((zero,) * level + (poly,) + (zero,) * (k - 1 - level), params)

    @property
    def degree(self):
        """Max over u-layer degrees; NEG_INF for the zero polynomial."""
        return max(l.degree for l in self.ulayers)

    @property
    def is_zero(self) -> bool:
        return not any(self.ulayers)

    def u_valuation(self) -> int:
        """Index of the lowest nonzero u-layer; k for zero."""
        for i, l in enumerate(self.ulayers):
            if not l.is_zero:
                return i
        return self.params.k

    def coefficient(self, i: int) -> RkElem:
        return RkElem([l[i] for l in self.ulayers], self.params)

    def lead_coeff(self) -> RkElem:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree)

    def _check(self, other: "RkPoly"):
        if self.params != other.params:
            raise ValueError("parameter mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, RkPoly) and self.params == other.params
                and self.ulayers == other.ulayers)

    def __hash__(self):
        return hash((self.params, self.ulayers))

    def __repr__(self):
        return f"RkPoly({[list(l.coeffs) for l in self.ulayers]}, p={self.params.p})"

    def __add__(self, other: "RkPoly") -> "RkPoly":
        self._check(other)
        return RkPoly._of([a + b for a, b in zip(self.ulayers, other.ulayers)], self.params)

    def __neg__(self) -> "RkPoly":
        return RkPoly._of([-l for l in self.ulayers], self.params)

    def __sub__(self, other: "RkPoly") -> "RkPoly":
        self._check(other)
        return RkPoly._of([a - b for a, b in zip(self.ulayers, other.ulayers)], self.params)

    def __mul__(self, other):
        if isinstance(other, RkElem):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(RkElem((other,), self.params))
        self._check(other)
        k, p = self.params.k, self.params.p
        A = [l.coeffs for l in self.ulayers]
        B = [l.coeffs for l in other.ulayers]
        la, lb = max(map(len, A)), max(map(len, B))
        if not la or not lb:
            return RkPoly.zero(self.params)
        # layer i + j collects every product of layers i and j, unreduced
        out = [[0] * (la + lb - 1) for _ in range(k)]
        for i, a in enumerate(A):
            if a:
                for j in range(k - i):
                    if B[j]:
                        _mul_into(out[i + j], a, B[j])
        return RkPoly._of([FpPoly._of([c % p for c in o], p) for o in out], self.params)

    def __rmul__(self, other) -> "RkPoly":
        return self * other

    def scale(self, c: RkElem) -> "RkPoly":
        k, p = self.params.k, self.params.p
        A = [l.coeffs for l in self.ulayers]
        out = [[0] * max(map(len, A)) for _ in range(k)]
        for i, d in enumerate(c.layers):
            if d:
                for j in range(k - i):
                    if A[j]:
                        o = out[i + j]
                        o[:len(A[j])] = [s + d * x for s, x in zip(o, A[j])]
        return RkPoly._of([FpPoly._of([s % p for s in o], p) for o in out], self.params)

    def shift_x(self, e: int) -> "RkPoly":
        return RkPoly._of([l.shift(e) for l in self.ulayers], self.params)

    def mod_xn(self) -> "RkPoly":
        """Reduce every layer modulo x^n - 1."""
        n = self.params.n
        if all(len(l.coeffs) <= n for l in self.ulayers):
            return self
        return RkPoly._of([l.mod_xn_minus_1(n) for l in self.ulayers], self.params)

    def mul_mod(self, other: "RkPoly") -> "RkPoly":
        """Product in R_k[x]/(x^n - 1)."""
        return (self * other).mod_xn()

    def _divmod_digits(self, other: "RkPoly") -> tuple[list[int], list[int]]:
        """Quotient and remainder of the division by other, as reduced
        coefficient-major digit lists (see `_from_digits`).

        Long division on digits: a step reads the top coefficient c of the
        remainder (reduced once), takes f = c * lead^-1 (one R_k product,
        none when the lead is 1) and subtracts f times other, aligned with
        that coefficient, as the sum of f_s times u^s * other over the digits
        f_s of f; the rows below stay unreduced until the end.
        """
        self._check(other)
        k, p = self.params.k, self.params.p
        db = other.degree
        # the leading coefficient is a unit iff layer 0 reaches the degree
        if other.is_zero or other.ulayers[0].degree != db:
            raise ValueError("division requires unit leading coefficient")
        b = other._digits(db + 1)
        binv = _rk_inverse(b[db * k:], p, k)
        if self.degree < db:
            return [], self._digits(db)
        top = self.degree
        # ups[s] holds u^s times the digits of other below its degree
        ups = [[0] * (db * k) for _ in range(k)]
        for s, up in enumerate(ups):
            for t in range(k - s):
                up[t + s::k] = b[t:db * k:k]
        rem = self._digits(top + 1)
        q = [0] * ((top - db + 1) * k)
        unit = binv == [1] + [0] * (k - 1)
        for i in range(top, db - 1, -1):
            lo, hi = (i - db) * k, i * k
            c = [x % p for x in rem[hi:hi + k]]
            if not any(c):
                continue
            f = c if unit else _rk_mul(c, binv, p, k)
            q[lo:lo + k] = f
            part = rem[lo:hi]
            for fs, up in zip(f, ups):
                if fs:
                    part = [r - fs * y for r, y in zip(part, up)]
            rem[lo:hi] = part
        return q, [x % p for x in rem[:db * k]]

    def __divmod__(self, other: "RkPoly"):
        """Division in R_k[x]; the divisor's leading coefficient must be a unit."""
        q, r = self._divmod_digits(other)
        return RkPoly._from_digits(q, self.params), RkPoly._from_digits(r, self.params)

    def __floordiv__(self, other: "RkPoly") -> "RkPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "RkPoly") -> "RkPoly":
        return divmod(self, other)[1]

    def divides(self, other: "RkPoly") -> bool:
        """True iff self divides other in R_k[x] (remainder exactly zero)."""
        return not any(other._divmod_digits(self)[1])

    def to_vector(self) -> list[int]:
        """Flatten to F_p^(kn), coordinate i / layer j in slot i*k + j."""
        return self.mod_xn()._digits(self.params.n)

    @classmethod
    def from_vector(cls, vec, params: PrimeParams) -> "RkPoly":
        k = params.k
        vec = list(vec)
        if len(vec) != k * params.n:
            raise ValueError("vector length must be k*n")
        return cls._of([FpPoly(vec[j::k], params.p) for j in range(k)], params)


def _rk_mul(a, b, p: int, k: int) -> list[int]:
    # the product of two R_k elements given by their k digits
    out = [0] * k
    for s, x in enumerate(a):
        if x:
            for t in range(k - s):
                out[s + t] += x * b[t]
    return [c % p for c in out]


def _rk_inverse(c, p: int, k: int) -> list[int]:
    # the inverse of a unit of R_k given by its k digits, solved digit by
    # digit from c * d = 1: d_0 = c_0^-1, d_m = -d_0 * sum_(s=1..m) c_s d_(m-s)
    d = [pow(c[0], -1, p)]
    for m in range(1, k):
        d.append(-d[0] * sum(c[s] * d[m - s] for s in range(1, m + 1)) % p)
    return d


_new = object.__new__  # RkPoly._of fills the slots itself
