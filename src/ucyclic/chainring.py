"""The chain ring R_k = Z_p[u]/(u^k) and its polynomial ring.

Everything is stored layer-major: a ring element is its k base-p digits
(layer j = coefficient of u^j), a polynomial is k F_p polynomials, one per
u-layer.  Truncation to a subring is then a slice and multiplication by u a
shift.  An element is a unit exactly when layer 0 is nonzero; polynomial
division requires the divisor's leading coefficient to be such a unit.
"""

from __future__ import annotations

from .gfp import FpPoly, PrimeParams

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
        k, p = self.params.k, self.params.p
        out = [0] * k
        for i, a in enumerate(self.layers):
            if a:
                for j in range(k - i):
                    b = other.layers[j]
                    if b:
                        out[i + j] = (out[i + j] + a * b) % p
        return RkElem(out, self.params)

    def __rmul__(self, other: int) -> "RkElem":
        return self.scale(other)

    def scale(self, c: int) -> "RkElem":
        p = self.params.p
        return RkElem([(a * c) % p for a in self.layers], self.params)

    def inverse(self) -> "RkElem":
        """Multiplicative inverse, via the finite geometric series in the nilpotent part."""
        if not self.is_unit:
            raise ValueError("nilpotent element has no inverse")
        p, k = self.params.p, self.params.k
        inv0 = pow(self.layers[0], -1, p)
        # self * inv0 = 1 + t with t nilpotent; (1 + t)^-1 = sum of (-t)^j
        minus_t = RkElem([0] + [(-c * inv0) % p for c in self.layers[1:]], self.params)
        acc = RkElem.one(self.params)
        cur = RkElem.one(self.params)
        for _ in range(k - 1):
            cur = cur * minus_t
            acc = acc + cur
        return acc.scale(inv0)


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
    def zero(cls, params: PrimeParams) -> "RkPoly":
        return cls((), params)

    @classmethod
    def one(cls, params: PrimeParams) -> "RkPoly":
        return cls((FpPoly.one(params.p),), params)

    @classmethod
    def from_fp(cls, poly: FpPoly, params: PrimeParams, level: int = 0) -> "RkPoly":
        """u^level * poly."""
        return cls((FpPoly.zero(params.p),) * level + (poly,), params)

    @classmethod
    def monomial(cls, c: RkElem, e: int) -> "RkPoly":
        params = c.params
        return cls([FpPoly.monomial(d, e, params.p) for d in c.layers], params)

    @property
    def degree(self):
        """Max over u-layer degrees; NEG_INF for the zero polynomial."""
        return max(l.degree for l in self.ulayers)

    @property
    def is_zero(self) -> bool:
        return all(l.is_zero for l in self.ulayers)

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
        return RkPoly([a + b for a, b in zip(self.ulayers, other.ulayers)], self.params)

    def __neg__(self) -> "RkPoly":
        return RkPoly([-l for l in self.ulayers], self.params)

    def __sub__(self, other: "RkPoly") -> "RkPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RkElem):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(RkElem((other,), self.params))
        self._check(other)
        k = self.params.k
        out = [FpPoly.zero(self.params.p) for _ in range(k)]
        for i, a in enumerate(self.ulayers):
            if not a.is_zero:
                for j in range(k - i):
                    b = other.ulayers[j]
                    if not b.is_zero:
                        out[i + j] = out[i + j] + a * b
        return RkPoly(out, self.params)

    def __rmul__(self, other) -> "RkPoly":
        return self * other

    def scale(self, c: RkElem) -> "RkPoly":
        k = self.params.k
        out = [FpPoly.zero(self.params.p) for _ in range(k)]
        for i, d in enumerate(c.layers):
            if d:
                for j in range(k - i):
                    l = self.ulayers[j]
                    if not l.is_zero:
                        out[i + j] = out[i + j] + l * d
        return RkPoly(out, self.params)

    def shift_x(self, e: int) -> "RkPoly":
        return RkPoly([l.shift(e) for l in self.ulayers], self.params)

    def mod_xn(self) -> "RkPoly":
        """Reduce every layer modulo x^n - 1."""
        n = self.params.n
        return RkPoly([l.mod_xn_minus_1(n) for l in self.ulayers], self.params)

    def mul_mod(self, other: "RkPoly") -> "RkPoly":
        """Product in R_k[x]/(x^n - 1)."""
        return (self * other).mod_xn()

    def __divmod__(self, other: "RkPoly"):
        """Division in R_k[x]; the divisor's leading coefficient must be a unit."""
        self._check(other)
        if other.is_zero or not other.lead_coeff().is_unit:
            raise ValueError("division requires unit leading coefficient")
        db = other.degree
        binv = other.lead_coeff().inverse()
        q = RkPoly.zero(self.params)
        r = self
        while not r.is_zero and r.degree >= db:
            d = r.degree
            c = r.coefficient(d) * binv
            step = RkPoly.monomial(c, d - db)
            q = q + step
            r = r - step * other
        return q, r

    def __floordiv__(self, other: "RkPoly") -> "RkPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "RkPoly") -> "RkPoly":
        return divmod(self, other)[1]

    def divides(self, other: "RkPoly") -> bool:
        """True iff self divides other in R_k[x] (remainder exactly zero)."""
        return divmod(other, self)[1].is_zero

    def to_vector(self) -> list[int]:
        """Flatten to F_p^(kn), coordinate i / layer j in slot i*k + j."""
        k, n = self.params.k, self.params.n
        red = self.mod_xn()
        out = [0] * (k * n)
        for j, l in enumerate(red.ulayers):
            for i, c in enumerate(l.coeffs):
                out[i * k + j] = c
        return out

    @classmethod
    def from_vector(cls, vec, params: PrimeParams) -> "RkPoly":
        k, n = params.k, params.n
        vec = list(vec)
        if len(vec) != k * n:
            raise ValueError("vector length must be k*n")
        layers = [[vec[i * k + j] for i in range(n)] for j in range(k)]
        return cls(layers, params)
