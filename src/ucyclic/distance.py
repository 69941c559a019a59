"""Minimum distance of repeated-root codes of length p^l, two ways.

The distance of a code over R_k equals the distance of its top torsion code
over F_p.  When the length is p^l, x^n - 1 = (x-1)^n, so that torsion code is
generated by (x-1)^t, and its distance depends only on t:

- `repeated_root_distance` is exact: the minimum of prod(tau_j + 1) over
  t <= tau < p^l, tau_j the base-p digits of tau (Massey, Costello and
  Justesen, IEEE-IT 1973).  `analyze --distance-mode auto` uses it.
- `closed_form_distance` is the paper's law, read off the digits of t alone:
  a run of q nonzero leading digits contributes prod(b+1) over the run,
  doubled when a nonzero digit survives below the run, and t <= p^(l-1)
  always gives 2.  The exhaustive search refutes it at some p=3 points, so it
  answers only when asked for by name.  `product_law_check` tests the
  paper's product law against the exhaustive search the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import CyclicCode
from .gfp import FpPoly
from .linalg import DEFAULT_BUDGET, InvariantError

__all__ = ["PAdicExpansion", "classify_p_adic", "distance_power_length",
           "product_law_check", "closed_form_distance", "repeated_root_distance"]

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
    """Check the product law d((x^(p^(l-1)) - 1)^b * h) = (b+1) * d(h) by brute force.

    h must generate a nonzero proper cyclic code of length p^(l-1); the left
    side lives at length p^l.  Returns (lhs, rhs, equal).
    """
    from .gfp import PrimeParams, fp_cyclic_min_weight

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


def _power_of_x_minus_1(g: FpPoly) -> int | None:
    """t with g = (x-1)^t (monic g), or None."""
    xm1 = FpPoly((-1, 1), g.p)
    t = 0
    while g.degree > 0:
        q, r = divmod(g, xm1)
        if not r.is_zero:
            return None
        g = q
        t += 1
    return t if g == FpPoly.one(g.p) else None


def _power_length_exponents(code: CyclicCode, method: str) -> tuple[int, int, int]:
    """(p, l, t) with n = p^l and top torsion generator (x-1)^t, t >= 1; a
    ValueError naming the method when the code is not of that kind."""
    if code.dim == 0:
        raise ValueError("zero code has no minimum distance")
    p, n = code.params.p, code.params.n
    l, m = 0, n
    while m % p == 0:
        m //= p
        l += 1
    if m != 1 or l < 1:
        raise ValueError(f"{method} inapplicable: length is not a power of p")
    t = _power_of_x_minus_1(code.torsion_tower().gens[-1])
    if t is None or t == 0:
        raise ValueError(f"{method} inapplicable: top torsion generator is not a "
                         "positive power of x - 1")
    return p, l, t


def closed_form_distance(code: CyclicCode) -> int:
    """The paper's closed-form distance; needs n = p^l and top torsion (x-1)^t."""
    return distance_power_length(*_power_length_exponents(code, "closed form"))


def _digit_product(tau: int, p: int) -> int:
    """prod(tau_j + 1) over the base-p digits tau_j of tau."""
    out = 1
    while tau:
        tau, digit = divmod(tau, p)
        out *= digit + 1
    return out


def repeated_root_distance(code: CyclicCode) -> int:
    """Exact minimum distance for n = p^l and top torsion (x-1)^t, t >= 1:
    min over t <= tau < p^l of prod(tau_j + 1) (Massey, Costello and
    Justesen, IEEE-IT 1973)."""
    p, l, t = _power_length_exponents(code, "repeated-root distance")
    return min(_digit_product(tau, p) for tau in range(t, p ** l))
