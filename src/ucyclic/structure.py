"""Canonical generator towers, freeness, rank and spanning sets, enumeration.

The canonical form takes, for each tower level that contributes new content,
the codeword of u-valuation i whose layer i is the torsion generator g_i and
whose higher layers j lie below deg g_j (`CyclicCode.level_generators`).  It
is built once per code, and reconstruction equality against the footprint is
checked then, so the normalization can never silently change the code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from . import linalg
from .chainring import RkPoly
from .code import (CyclicCode, TorsionTower, _shift_u, _u_multiples,
                   code_from_generators)
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


@dataclass(frozen=True)
class CanonicalForm:
    """Torsion tower plus one lifted generator per level that adds content.

    lifted[i] is None when level i repeats the level above it (its torsion
    generator equals the previous one, reading x^n - 1 before level 0).
    """

    tower: TorsionTower
    lifted: tuple
    shape: str

    @property
    def present_levels(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.lifted) if g is not None)

    @property
    def generators(self) -> tuple[RkPoly, ...]:
        return tuple(g for g in self.lifted if g is not None)


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
    """The canonical tower of lifted generators, built and checked once per code."""
    if code._canonical is not None:
        return code._canonical
    params = code.params
    tower = code.torsion_tower()
    xn1 = _xn1(params)
    lifted: list[RkPoly | None] = [None] * params.k
    present = []
    for i, w in enumerate(code.level_generators()):
        prev = tower.gens[i - 1] if i else xn1
        if tower.gens[i] == prev:
            continue
        if w.u_valuation() != i or w.ulayers[i] != tower.gens[i]:
            raise InvariantError(f"lifted generator {i} has the wrong valuation or layer")
        present.append(i)
        lifted[i] = w
    gens = [g for g in lifted if g is not None]
    if code_from_generators(params, gens) != code:
        raise InvariantError("lifted generators do not reconstruct the code")
    shape = _classify_shape(code, tower, present, lifted)
    code._canonical = CanonicalForm(tower, tuple(lifted), shape)
    return code._canonical


def _classify_shape(code, tower, present, lifted) -> str:
    params = code.params
    if code.dim == 0:
        return SHAPE_FULL_TOWER
    if params.coprime:
        return SHAPE_PRINCIPAL
    if len(present) == 1:
        i = present[0]
        if i == 0 and lifted[0].divides(RkPoly.from_fp(_xn1(params), params)):
            return SHAPE_PRINCIPAL_DIVIDING
        return SHAPE_PRINCIPAL
    if len(present) == 2:
        return SHAPE_TWO_GENERATOR
    return SHAPE_FULL_TOWER


def is_free(code: CyclicCode) -> tuple[bool, RkPoly | None]:
    """Whether the code is a free R_k-module, with the principal witness.

    Free means all torsion generators coincide; the witness is then the single
    lifted generator and it must divide x^n - 1 in R_k, which is checked.
    The zero code is free of rank 0 and has no witness.
    """
    tower = code.torsion_tower()
    if any(g != tower.gens[0] for g in tower.gens):
        return False, None
    if code.dim == 0:
        return True, None
    cf = canonical_form(code)
    witness = cf.lifted[0]
    if witness is None or not witness.divides(RkPoly.from_fp(_xn1(code.params), code.params)):
        raise InvariantError("free witness fails to divide x^n - 1 in R_k")
    return True, witness


def collapse_coprime(code: CyclicCode) -> RkPoly:
    """Single generator sum(u^i * tower_i) for gcd(n, p) = 1; footprint-checked."""
    params = code.params
    if not params.coprime:
        raise ValueError("collapse requires n coprime to p")
    tower = code.torsion_tower()
    h = RkPoly(tuple(tower.gens), params).mod_xn()
    if code_from_generators(params, [h]) != code:
        raise InvariantError("collapsed generator does not reproduce the code")
    return h


@dataclass(frozen=True)
class ConstraintCheck:
    """One mixing-layer divisibility condition of the canonical form.

    level/layer locate the mixing polynomial (layer > level of the lifted
    generator at `level`).  chain_cofactors_ok divides by the mixed cofactor
    product prod_t (x^n-1)/tower_t for t = level..layer-1;
    repeated_cofactors_ok uses ((x^n-1)/tower_level)^(layer-level) instead.
    """

    level: int
    layer: int
    mixing: FpPoly
    vacuous: bool
    chain_cofactors_ok: bool
    repeated_cofactors_ok: bool
    deg_mixing: object
    deg_bound: int


@dataclass(frozen=True)
class ConstraintReport:
    shape: str
    chain_ok: bool
    checks: tuple[ConstraintCheck, ...]

    @property
    def all_chain_cofactors_ok(self) -> bool:
        return all(c.chain_cofactors_ok for c in self.checks)


def verify_constraints(code: CyclicCode) -> ConstraintReport:
    """Divisibility report for the canonical form's mixing layers.

    The torsion chain itself is mandatory (checked inside torsion_tower); the
    mixing-layer conditions are evaluated and reported in both readings, never
    enforced.  The zero code yields an empty report.
    """
    cf = canonical_form(code)
    tower = cf.tower
    if code.dim == 0:
        return ConstraintReport(cf.shape, True, ())
    params = code.params
    xn1 = _xn1(params)
    checks = []
    for s in cf.present_levels:
        g_s = cf.lifted[s]
        for j in range(s + 1, params.k):
            m = g_s.ulayers[j]
            gj = tower.gens[j]
            if m.is_zero:
                checks.append(ConstraintCheck(s, j, m, True, True, True,
                                              m.degree, gj.degree))
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
            checks.append(ConstraintCheck(s, j, m, False, chain_ok, repeated_ok,
                                          m.degree, gj.degree))
    return ConstraintReport(cf.shape, True, tuple(checks))


def rank(code: CyclicCode) -> int:
    """n minus the degree of the top torsion generator; 0 for the zero code."""
    if code.dim == 0:
        return 0
    return code.params.n - code.torsion_tower().gens[-1].degree


def minimal_spanning_set(code: CyclicCode) -> SpanningSet:
    """x^j-multiples of the lifted generators, one run per torsion degree gap.

    Level i contributes x^j * G_i for j below (previous tower degree - its
    own), reading n in front of level 0.  The R_k-span equality is checked,
    and minimality by Nakayama's criterion (`_irredundant`).
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
    if len(elements) != params.n - degs[-1]:
        raise InvariantError("spanning set size differs from the rank")
    if _module_span(params, elements) != code:
        raise InvariantError("spanning set misses the code")
    if not _irredundant(code, elements):
        raise InvariantError("spanning set is not minimal")
    return SpanningSet(tuple(elements))


def _irredundant(code: CyclicCode, elements) -> bool:
    """Whether a set spanning the code as an R_k-module has no redundant member.

    By Nakayama's lemma over the local ring R_k, a spanning set is
    irredundant iff its size is dim C/uC = dim C - dim uC.
    """
    k, n = code.params.k, code.params.n
    _, piv = linalg.rref(_shift_u(code.footprint, n, k), code.params.p)
    return len(elements) == code.dim - len(piv)


def _module_span(params: PrimeParams, elements) -> CyclicCode:
    """The R_k-linear span (no x-multiples) of the elements, as a code object.

    Span rows are u^m * e over F_p; closure checks are skipped since a bare
    module span need not be an ideal.
    """
    k, n = params.k, params.n
    v = linalg.as_matrix([e.to_vector() for e in elements], k * n, params.p)
    R, piv = linalg.rref(_u_multiples(v, n, k), params.p)
    return CyclicCode(params, (), R, piv)


def cardinality_formula_check(code: CyclicCode) -> tuple[int, int, bool]:
    """(dim, formula exponent, equal): log_p |C| against the tower degrees.

    For k = 2 the tower formula specializes to 2n - 2r on free codes and to
    2n - r - t otherwise.
    """
    tower = code.torsion_tower()
    n = code.params.n
    rhs = sum(n - d for d in tower.degrees)
    return code.dim, rhs, code.dim == rhs


def enumerate_coprime(params: PrimeParams, cap: int = 1 << 20) -> list[CyclicCode]:
    """Every cyclic code of length n over R_k when gcd(n, p) = 1.

    One chain per componentwise-monotone exponent vector over the squarefree
    factorization of x^n - 1: each irreducible factor appears in the bottom
    t levels of the tower for some threshold t in [0, k].  Codes are
    deduplicated by footprint and sorted by (dim, footprint bytes), with the
    zero code last.
    """
    if not params.coprime:
        raise ValueError("enumeration implemented for coprime case only")
    facs = [q for q, _ in factor_xn_minus_1(params)]
    count = (params.k + 1) ** len(facs)
    if count > cap:
        raise ValueError(f"divisor-chain count too large: {count} chains exceed cap {cap}")
    xn1 = _xn1(params)
    seen: dict[bytes, CyclicCode] = {}
    for thresholds in itertools.product(range(params.k + 1), repeat=len(facs)):
        gens = []
        for i in range(params.k):
            g = prod((q for q, t in zip(facs, thresholds) if t > i),
                     start=FpPoly.one(params.p))
            if g != xn1:
                gens.append(RkPoly.from_fp(g, params, level=i))
        code = code_from_generators(params, gens)
        seen.setdefault(code.footprint_bytes(), code)
    codes = sorted((c for c in seen.values() if c.dim > 0),
                   key=lambda c: (c.dim, c.footprint_bytes()))
    zero = [c for c in seen.values() if c.dim == 0]
    return codes + zero
