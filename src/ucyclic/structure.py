"""Canonical generator towers, freeness, rank and spanning sets, enumeration.

The canonical form takes, for each tower level that contributes new content,
the codeword of u-valuation i whose layer i is the torsion generator g_i and
whose higher layers j lie below deg g_j (`CyclicCode.level_generators`).  It
is built once per code and checked by one certificate per lifted generator,
from which the other structure results follow by theorem (`canonical_form`).
Rank and the coprime single generator are read off the torsion tower, so
coprime enumeration lists divisor chains and builds no code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .chainring import RkPoly
from .code import CyclicCode, TorsionTower
from .gfp import FpPoly, PrimeParams, factor_xn_minus_1
from .linalg import InvariantError

__all__ = [
    "CanonicalForm", "SpanningSet", "ConstraintCheck", "ConstraintReport",
    "canonical_form", "is_free", "collapse_coprime", "verify_constraints",
    "rank", "minimal_spanning_set", "cardinality_formula_check",
    "enumerate_coprime",
    "SHAPE_PRINCIPAL", "SHAPE_PRINCIPAL_DIVIDING", "SHAPE_TWO_GENERATOR",
    "SHAPE_FULL_TOWER",
]

SHAPE_PRINCIPAL = "Principal"
SHAPE_PRINCIPAL_DIVIDING = "PrincipalDividing"
SHAPE_TWO_GENERATOR = "TwoGenerator"
SHAPE_FULL_TOWER = "FullTower"
CHAIN_CAP = 1 << 20  # most divisor chains enumerate_coprime will list


@dataclass(frozen=True)
class CanonicalForm:
    """Torsion tower plus one lifted generator per level that adds content.

    lifted[i] is None when level i repeats the level above it (its torsion
    generator equals the previous one, reading x^n - 1 before level 0).
    """

    tower: TorsionTower
    lifted: tuple

    @property
    def present_levels(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.lifted) if g is not None)

    @property
    def generators(self) -> tuple[RkPoly, ...]:
        return tuple(g for g in self.lifted if g is not None)

    @property
    def shape(self) -> str:
        # none present: the zero code; only level 0: the free case (is_free)
        present = self.present_levels
        if not present:
            return SHAPE_FULL_TOWER
        if self.tower.params.coprime:
            return SHAPE_PRINCIPAL
        if present == (0,):
            return SHAPE_PRINCIPAL_DIVIDING
        if len(present) == 1:
            return SHAPE_PRINCIPAL
        if len(present) == 2:
            return SHAPE_TWO_GENERATOR
        return SHAPE_FULL_TOWER


@dataclass(frozen=True)
class SpanningSet:
    """A minimal spanning set of the code as an R_k-module."""

    elements: tuple[RkPoly, ...]

    @property
    def cardinality(self) -> int:
        return len(self.elements)


def _xn1(params: PrimeParams) -> FpPoly:
    return FpPoly.xn_minus_1(params.n, params.p)


def canonical_form(code: CyclicCode) -> CanonicalForm:
    """The canonical tower of lifted generators, built and checked once per code.

    Certificate per lifted G_i: u-valuation i, layer i equal to g_i, mixing
    layers j > i below deg g_j, and G_i in C.  Theorem: <G> = C and Tor_i(C)
    = <g_i>, since <G> lies in C and Tor_i(<G>) holds g_i (G_i, or u times
    level i - 1), so dim <G> >= sum (n - deg g_i) = dim C.
    """
    if code._canonical is not None:
        return code._canonical
    params = code.params
    tower = code.torsion_tower()
    lifted: list[RkPoly | None] = [None] * params.k
    for i, w in enumerate(code.level_generators()):
        prev = tower.gens[i - 1] if i else _xn1(params)
        if tower.gens[i] == prev:
            continue
        if w.u_valuation() != i or w.ulayers[i] != tower.gens[i]:
            raise InvariantError(f"lifted generator {i} has the wrong valuation or layer")
        if any(w.ulayers[j].degree >= tower.gens[j].degree
               for j in range(i + 1, params.k)):
            raise InvariantError(f"lifted generator {i} has an unreduced mixing layer")
        lifted[i] = w
    rows = [g.to_vector() for g in lifted if g is not None]
    if linalg.reduce_vector(code.footprint, code.pivots, rows, params.p).any():
        raise InvariantError("a lifted generator lies outside the code")
    code._canonical = CanonicalForm(tower, tuple(lifted))
    return code._canonical


def is_free(code: CyclicCode) -> tuple[bool, RkPoly | None]:
    """Whether the code is a free R_k-module, with the principal witness.

    Free means all torsion generators coincide (only level 0 is present); the
    witness G_0 is then a factor of x^n - 1 by theorem: it is monic of degree
    deg g, so x^n - 1 mod G_0 is a codeword of degree < deg g, zero by Tor = <g>.
    The zero code is free of rank 0 and has no witness.
    """
    if code.dim == 0:
        return True, None
    cf = canonical_form(code)
    return (True, cf.lifted[0]) if cf.present_levels == (0,) else (False, None)


def collapse_coprime(code: CyclicCode) -> RkPoly:
    """Single generator sum(u^i * g_i) for gcd(n, p) = 1, from the checked tower.

    g_i lies in Tor_i(C) by construction, so the tower's degree-sum check gives
    Tor_i(C) = <g_i>; theorem (Dinh and Lopez-Permouth, IEEE-IT 2004): for
    gcd(n, p) = 1 every code is generated by sum(u^i * g_i).
    """
    if not code.params.coprime:
        raise ValueError("collapse requires n coprime to p")
    return code.torsion_tower().generator


@dataclass(frozen=True)
class ConstraintCheck:
    """One mixing-layer divisibility condition of the canonical form.

    level/layer locate the mixing polynomial (layer > level of the lifted
    generator at `level`).  chain_cofactors_ok multiplies by the mixed cofactor
    product prod_t (x^n-1)/tower_t for t = level..layer-1;
    repeated_cofactors_ok uses ((x^n-1)/tower_level)^(layer-level) instead.
    """

    level: int
    layer: int
    mixing: FpPoly
    vacuous: bool
    chain_cofactors_ok: bool
    repeated_cofactors_ok: bool


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]


def verify_constraints(code: CyclicCode) -> ConstraintReport:
    """Divisibility report for the canonical form's mixing layers.

    The torsion chain itself is mandatory (checked inside torsion_tower); the
    mixing-layer conditions are evaluated and reported in both readings, never
    enforced.  The zero code has no present level, so its report is empty.
    """
    cf = canonical_form(code)
    tower = cf.tower
    params = code.params
    xn1 = _xn1(params)
    checks = []
    for s in cf.present_levels:
        g_s = cf.lifted[s]
        for j in range(s + 1, params.k):
            m = g_s.ulayers[j]
            gj = tower.gens[j]
            if m.is_zero:
                checks.append(ConstraintCheck(s, j, m, True, True, True))
                continue
            mixed = m
            for t in range(s, j):
                mixed = mixed * (xn1 // tower.gens[t])
            chain_ok = (mixed % gj).is_zero
            cof = xn1 // tower.gens[s]
            repeated = m
            for _ in range(j - s):
                repeated = repeated * cof
            repeated_ok = (repeated % gj).is_zero
            checks.append(ConstraintCheck(s, j, m, False, chain_ok, repeated_ok))
    return ConstraintReport(tuple(checks))


def rank(code: CyclicCode) -> int:
    """n minus the degree of the top torsion generator; 0 for the zero code."""
    return code.torsion_tower().rank


def minimal_spanning_set(code: CyclicCode) -> SpanningSet:
    """x^j-multiples of the lifted generators, one run per torsion degree gap.

    Level i contributes x^j * G_i for j below (previous tower degree - its
    own), reading n in front of level 0.  Theorem: the set spans C and is
    minimal.  The layer-l parts of u^(l-i) x^j G_i are x^j g_i, whose degrees
    fill [r_l, n) (r_l = deg g_l), so the span has C's tower; and its size
    n - r_(k-1) is dim C - dim uC, Nakayama's condition over the local R_k.
    """
    if code.dim == 0:
        raise ValueError("zero code has no spanning set")
    params = code.params
    cf = canonical_form(code)
    degs = cf.tower.degrees
    elements = []
    for i in range(params.k):
        count = (params.n if i == 0 else degs[i - 1]) - degs[i]
        for j in range(count):
            elements.append(cf.lifted[i].shift_x(j).mod_xn())
    return SpanningSet(tuple(elements))


def cardinality_formula_check(code: CyclicCode) -> tuple[int, int, bool]:
    """(dim, formula exponent, equal): log_p |C| against the tower degrees.

    For k = 2 the tower formula specializes to 2n - 2r on free codes and to
    2n - r - t otherwise.
    """
    rhs = code.torsion_tower().dim
    return code.dim, rhs, code.dim == rhs


def enumerate_coprime(params: PrimeParams) -> list[TorsionTower]:
    """The torsion towers of every cyclic code of length n when gcd(n, p) = 1.

    One divisor chain g_(k-1) | ... | g_0 | x^n - 1 per threshold vector over
    the squarefree factorization of x^n - 1: each irreducible factor divides
    g_i exactly for the levels i below its threshold t in [0, k].
    Theorem (Dinh and Lopez-Permouth, IEEE-IT 2004): each code is <sum u^i g_i>
    for exactly one chain, its torsion tower, so every code is listed once and
    its fields are read off the chain (`TorsionTower`).  Sorted by (dim,
    coefficients of g_0 .. g_(k-1)), the zero code (all g_i = x^n - 1) last.
    """
    if not params.coprime:
        raise ValueError("enumeration implemented for coprime case only")
    facs = [q for q, _ in factor_xn_minus_1(params)]
    count = (params.k + 1) ** len(facs)
    if count > CHAIN_CAP:
        raise ValueError(f"divisor-chain count too large: {count} chains exceed cap {CHAIN_CAP}")
    # products[mask] is the product of the factors whose bits are set in mask
    products = [FpPoly.one(params.p)]
    for q in facs:
        products += [g * q for g in products]
    # factor j under threshold t adds bit j to the masks of the levels below t
    levels = range(params.k)
    choices = [[tuple(1 << j if t > i else 0 for i in levels) for t in range(params.k + 1)]
               for j in range(len(facs))]
    towers = [TorsionTower(params, tuple(products[sum(bits)] for bits in zip(*masks)))
              for masks in itertools.product(*choices)]
    return sorted(towers, key=lambda t: (t.dim == 0, t.dim, tuple(g.coeffs for g in t.gens)))
