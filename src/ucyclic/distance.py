"""Minimum distance over R_k: the one exact dispatcher, and the paper's law.

The distance of a code over R_k equals the distance of its top torsion code
over F_p.  `top_distance` is the only place that orders the exact methods
(`analyze --distance-mode auto` and `enumerate` call it).  When n = p^l and
the top torsion generator is (x-1)^t, t >= 1, the distance is the minimum of
prod(tau_j + 1) over t <= tau < p^l, tau_j the base-p digits of tau (Massey,
Costello and Justesen, IEEE-IT 1973); otherwise it searches the torsion code
with the exact information-set search of `gfp.fp_cyclic_min_weight`.

`closed_form_distance` is the paper's law for those codes, read off the
digits of t alone: a run of q nonzero leading digits contributes prod(b+1)
over the run, doubled when a nonzero digit survives below the run, and
t <= p^(l-1) always gives 2.  The exact torsion search refutes it at some
p=3 points, so it answers only when asked for by name.  `product_law_check`
tests the paper's product law against the torsion search the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import CyclicCode
from .gfp import FpPoly, PrimeParams, fp_cyclic_min_weight
from .linalg import DEFAULT_BUDGET, InvariantError

__all__ = ["PAdicExpansion", "classify_p_adic", "distance_power_length",
           "product_law_check", "closed_form_distance", "top_distance"]

ZERO_EXPANSION = "zero"
NONZERO_EXPANSION = "nonzero"
FULL_EXPANSION = "full"


@dataclass(frozen=True)
class PAdicExpansion:
    """Base-p digits of m on l positions, most significant first, classified
    by the shape of the leading nonzero run."""

    m: int
    p: int
    l: int
    digits: tuple[int, ...]
    kind: str
    q: int

    def __post_init__(self):
        if sum(d * self.p ** i for i, d in enumerate(reversed(self.digits))) != self.m:
            raise InvariantError("base-p digits do not expand to m")


def classify_p_adic(m: int, p: int, l: int) -> PAdicExpansion:
    """Classify the base-p expansion of m by its leading digit run.

    With digits b_{l-1} .. b_0: a zero expansion has q leading nonzero digits
    and nothing below; a non-zero expansion has q leading nonzero digits, then
    a zero, then some later nonzero digit; a full expansion has all l digits
    nonzero.  The classification needs b_{l-1} != 0.
    """
    if not 0 < m < p ** l:
        raise ValueError(f"m must be in (0, p^l); got {m}")
    digits = []
    v = m
    for _ in range(l):
        digits.append(v % p)
        v //= p
    digits = tuple(reversed(digits))
    if digits[0] == 0:
        raise ValueError("unclassified: leading digit zero")
    q = 0
    while q < l and digits[q] != 0:
        q += 1
    if q == l:
        return PAdicExpansion(m, p, l, digits, FULL_EXPANSION, l)
    if any(digits[q + 1:]):
        return PAdicExpansion(m, p, l, digits, NONZERO_EXPANSION, q)
    return PAdicExpansion(m, p, l, digits, ZERO_EXPANSION, q)


def distance_power_length(p: int, l: int, t_k: int) -> int:
    """Minimum distance of the length-p^l cyclic code with top torsion (x-1)^t_k."""
    if not 0 < t_k < p ** l:
        raise ValueError(f"t_k must be in (0, p^l); got {t_k}")
    if t_k <= p ** (l - 1):
        return 2
    exp = classify_p_adic(t_k, p, l)
    d = 1
    for b in exp.digits[:exp.q]:
        d *= b + 1
    if exp.kind == NONZERO_EXPANSION:
        d *= 2
    return d


def product_law_check(p: int, l: int, b: int, h: FpPoly,
                        budget: int = DEFAULT_BUDGET) -> tuple[int, int, bool]:
    """Check the product law d((x^(p^(l-1)) - 1)^b * h) = (b+1) * d(h) by the
    exact torsion search.

    h must generate a nonzero proper cyclic code of length p^(l-1); the left
    side lives at length p^l.  Returns (lhs, rhs, equal).
    """
    if not 1 <= b < p:
        raise ValueError(f"b must be in [1, p); got {b}")
    half = p ** (l - 1)
    sub = PrimeParams(p, 1, half)
    full = PrimeParams(p, 1, half * p)
    block = FpPoly.xn_minus_1(half, p)
    if h.is_zero or h.monic() == block:
        raise ValueError("h must generate a nonzero code of length p^(l-1)")
    if not (block % h.monic()).is_zero:
        raise ValueError("h must divide x^(p^(l-1)) - 1")
    rhs = (b + 1) * fp_cyclic_min_weight(h, sub, budget=budget)
    gen = (block ** b) * h
    lhs = fp_cyclic_min_weight(gen, full, budget=budget)
    return lhs, rhs, lhs == rhs


def _power_length_exponents(g: FpPoly, n: int, method: str) -> tuple[int, int, int]:
    """(p, l, t) with n = p^l and the monic top torsion generator g = (x-1)^t,
    t >= 1; a ValueError naming the method when the code is not of that kind.
    Over F_p, x^(p^l) - 1 = (x-1)^(p^l), so a monic divisor g is (x-1)^deg g."""
    p = g.p
    xn1 = FpPoly.xn_minus_1(n, p)
    if g == xn1:
        raise ValueError("zero code has no minimum distance")
    l, m = 0, n
    while m % p == 0:
        m //= p
        l += 1
    if m != 1 or l < 1:
        raise ValueError(f"{method} inapplicable: length is not a power of p")
    if not (xn1 % g).is_zero:
        raise ValueError("generator must divide x^n - 1")
    if g.degree == 0:
        raise ValueError(f"{method} inapplicable: top torsion generator is not a "
                         "positive power of x - 1")
    return p, l, g.degree


def closed_form_distance(code: CyclicCode) -> int:
    """The paper's closed-form distance; needs n = p^l and top torsion (x-1)^t."""
    return distance_power_length(*_power_length_exponents(
        code.torsion_tower().gens[-1], code.params.n, "closed form"))


def _digit_product(tau: int, p: int) -> int:
    """prod(tau_j + 1) over the base-p digits tau_j of tau."""
    out = 1
    while tau:
        tau, digit = divmod(tau, p)
        out *= digit + 1
    return out


def top_distance(g: FpPoly, params: PrimeParams, budget: int) -> tuple[int, str]:
    """Exact distance of the code with monic top torsion generator g, and its
    method: "repeated-root" for n = p^l and g = (x-1)^t, t >= 1, else
    "torsion", the information-set search of `fp_cyclic_min_weight`, whose
    budget must cover p^(n - deg g) codewords."""
    try:
        p, l, t = _power_length_exponents(g, params.n, "repeated-root distance")
    except ValueError:
        return fp_cyclic_min_weight(g, params, budget=budget), "torsion"
    return min(_digit_product(tau, p) for tau in range(t, p ** l)), "repeated-root"
