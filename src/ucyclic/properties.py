"""Randomized and exhaustive property checks behind the `verify` command.

Every check draws from its own deterministically seeded generator, collects a
pass count, and keeps a JSON reproducer for each failure, so a red run can be
replayed from the printed document alone.  A check returns one CheckResult, or
a tuple of them when one pass serves several properties.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import linalg
from .chainring import RkPoly
from .code import CyclicCode, _echelon, _shift_u, _u_multiples, code_from_generators
from .distance import distance_power_length, product_law_check
from .gfp import (FpPoly, PrimeParams, divisors_xn_minus_1, factor_xn_minus_1,
                  fp_cyclic_min_weight, poly_gcd, poly_xgcd)
from .structure import (canonical_form, cardinality_formula_check,
                        collapse_coprime, is_free, minimal_spanning_set, rank)

__all__ = ["CheckResult", "SUITES", "run_suite",
           "random_params", "random_chain", "chain_code", "random_code",
           "random_free_divisor"]

MAX_GENS = 2  # most generators random_code draws
LIFT_ATTEMPTS = 30  # lifting rounds random_free_divisor tries before falling back


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    total: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def record(self, ok: bool, reproducer=None):
        self.total += 1
        if ok:
            self.passed += 1
        elif reproducer is not None:
            self.failures.append(json.dumps(reproducer))


def _repro(code: CyclicCode) -> dict:
    return code.to_json_dict()


# -- random object generators -------------------------------------------


def random_params(rng: random.Random, ps=(2, 3, 5), kmax=4, nmax=10,
                  coprime: bool | None = None) -> PrimeParams:
    while True:
        p = rng.choice(ps)
        k = rng.randint(1, kmax)
        n = rng.randint(1, nmax)
        if coprime is True and gcd(n, p) != 1:
            continue
        if coprime is False and gcd(n, p) == 1:
            continue
        return PrimeParams(p, k, n)


def random_chain(rng: random.Random, params: PrimeParams) -> list[FpPoly]:
    """A random tower chain g_{k-1} | ... | g_0 | x^n - 1 of monic divisors."""
    facs = factor_xn_minus_1(params)
    chain = []
    exps = [rng.randint(0, e) for _, e in facs]
    for _ in range(params.k):
        g = FpPoly.one(params.p)
        for (q, _), e in zip(facs, exps):
            g = g * q ** e
        chain.append(g)
        exps = [rng.randint(0, e) for e in exps]
    return chain


def chain_code(params: PrimeParams, chain) -> CyclicCode:
    xn1 = FpPoly.xn_minus_1(params.n, params.p)
    gens = [RkPoly.from_fp(g, params, level=i)
            for i, g in enumerate(chain) if g != xn1]
    return code_from_generators(params, gens)


def random_fp_poly(rng: random.Random, params: PrimeParams, nonzero=False) -> FpPoly:
    while True:
        f = FpPoly([rng.randrange(params.p) for _ in range(params.n)], params.p)
        if not nonzero or not f.is_zero:
            return f


def random_rk_poly(rng: random.Random, params: PrimeParams) -> RkPoly:
    val = rng.randrange(params.k)
    layers = [FpPoly.zero(params.p)] * val
    layers.append(random_fp_poly(rng, params, nonzero=True))
    for _ in range(val + 1, params.k):
        layers.append(random_fp_poly(rng, params))
    return RkPoly(layers, params)


def random_code(rng: random.Random, params: PrimeParams) -> CyclicCode:
    gens = [random_rk_poly(rng, params) for _ in range(rng.randint(1, MAX_GENS))]
    return code_from_generators(params, gens)


def random_free_divisor(rng: random.Random, params: PrimeParams) -> RkPoly:
    """A unit-leading divisor of x^n - 1 in R_k[x] with random nilpotent layers.

    Layer-by-layer lifting: given D*E = x^n - 1 up to u^j, absorb the u^j
    defect c by solving d*t + e*s = c over F_p[x] (d, e the base factors) and
    adding u^j*(s, t); the homogeneous part (d/g)*w shuffles in randomness.
    Falls back to a plain F_p divisor when a defect is not absorbable.
    """
    p, k, n = params.p, params.k, params.n
    xn1 = FpPoly.xn_minus_1(n, p)
    divisors = [f for f in divisors_xn_minus_1(params) if f != xn1]
    d = rng.choice(divisors)
    X = RkPoly.from_fp(xn1, params)
    for _ in range(LIFT_ATTEMPTS):
        e = xn1 // d
        D, E = RkPoly.from_fp(d, params), RkPoly.from_fp(e, params)
        g, alpha, beta = poly_xgcd(d, e)
        ok = True
        for j in range(1, k):
            defect = (X - D * E).ulayers[j]
            if not (defect % g).is_zero:
                ok = False
                break
            c = defect // g
            s = (beta * c + (d // g) * random_fp_poly(rng, params)) % d
            # keep the exact identity d*t + e*s = defect after reducing s mod d
            t = (defect - e * s) // d
            D = D + RkPoly.from_fp(s, params, level=j)
            E = E + RkPoly.from_fp(t, params, level=j)
        if ok and D.divides(X):
            return D
    return RkPoly.from_fp(d, params)


def random_unit(rng: random.Random, params: PrimeParams) -> RkPoly:
    """A unit of R_k[x]/(x^n - 1): layer 0 coprime to x^n - 1, rest random."""
    xn1 = FpPoly.xn_minus_1(params.n, params.p)
    while True:
        f0 = random_fp_poly(rng, params, nonzero=True)
        if poly_gcd(f0, xn1) == FpPoly.one(params.p):
            break
    layers = [f0] + [random_fp_poly(rng, params) for _ in range(params.k - 1)]
    return RkPoly(layers, params)


# -- checks ----------------------------------------------------------------


def check_coprime_collapse(rng, trials, budget) -> CheckResult:
    res = CheckResult("coprime-collapse")
    for _ in range(trials):
        params = random_params(rng, nmax=8, coprime=True)
        code = chain_code(params, random_chain(rng, params))
        try:
            h = collapse_coprime(code)
            ok = code_from_generators(params, [h]) == code
        except AssertionError:
            ok = False
        res.record(ok, _repro(code))
    return res


def check_reconstruction(rng, trials, budget) -> CheckResult:
    res = CheckResult("canonical-reconstruction")
    for _ in range(trials):
        params = random_params(rng)
        code = random_code(rng, params)
        try:
            cf = canonical_form(code)
            ok = code_from_generators(params, list(cf.generators)) == code
        except AssertionError:
            ok = False
        res.record(ok, _repro(code))
    return res


def check_tower_of_chain(rng, trials, budget) -> CheckResult:
    res = CheckResult("coprime-tower-roundtrip")
    for _ in range(trials):
        params = random_params(rng, nmax=8, coprime=True)
        chain = random_chain(rng, params)
        code = chain_code(params, chain)
        res.record(tuple(g.monic() for g in chain) == code.torsion_tower().gens,
                   _repro(code))
    return res


def check_free(rng, trials, budget) -> CheckResult:
    res = CheckResult("free-witness-divides")
    for i in range(trials):
        # alternate: the non-coprime case is where nontrivial u-layer lifts live
        params = random_params(rng, nmax=8, coprime=False if i % 2 else None)
        D = random_free_divisor(rng, params)
        code = code_from_generators(params, [D.mod_xn() * random_unit(rng, params)])
        try:
            free, witness = is_free(code)
            ok = free and witness is not None
            if ok:
                X = RkPoly.from_fp(FpPoly.xn_minus_1(params.n, params.p), params)
                ok = witness.divides(X)
                ok = ok and code.dim == params.k * (params.n - code.torsion_tower().gens[0].degree)
        except AssertionError:
            ok = False
        res.record(ok, _repro(code))
    return res


def _module_span(params: PrimeParams, elements) -> CyclicCode:
    """The R_k-linear span (no x-multiples) of the elements, as a code object.

    Span rows are u^m * e over F_p, echelonized as a footprint; closure checks
    are skipped since a bare module span need not be an ideal.
    """
    k, n = params.k, params.n
    v = linalg.as_matrix([e.to_vector() for e in elements], k * n, params.p)
    return CyclicCode(params, (), *_echelon(params, _u_multiples(v, n, k)))


def _irredundant(code: CyclicCode, elements) -> bool:
    """Whether a set spanning the code as an R_k-module has no redundant member.

    By Nakayama's lemma over the local ring R_k, a spanning set is
    irredundant iff its size is dim C/uC = dim C - dim uC.
    """
    k, n = code.params.k, code.params.n
    _, piv = _echelon(code.params, _shift_u(code.footprint, n, k))
    return len(elements) == code.dim - len(piv)


def check_rank_and_spanning(rng, trials, budget) -> CheckResult:
    res = CheckResult("rank-spanning-set")
    for _ in range(trials):
        params = random_params(rng, nmax=8)
        code = random_code(rng, params)
        if code.dim == 0:
            res.record(rank(code) == 0, _repro(code))
            continue
        try:
            ss = minimal_spanning_set(code)
            ok = (rank(code) == ss.cardinality
                  == params.n - code.torsion_tower().gens[-1].degree
                  and _module_span(params, ss.elements) == code
                  and _irredundant(code, ss.elements))
        except AssertionError:
            ok = False
        res.record(ok, _repro(code))
    return res


def check_cardinality(rng, trials, budget) -> CheckResult:
    res = CheckResult("cardinality-formula")
    for _ in range(trials):
        params = random_params(rng)
        code = random_code(rng, params)
        lhs, rhs, equal = cardinality_formula_check(code)
        ok = equal
        if params.k == 2 and code.dim > 0:
            tower = code.torsion_tower()
            r, t = tower.degrees
            free, _ = is_free(code)
            if free:
                ok = ok and lhs == 2 * params.n - 2 * r
            ok = ok and lhs == 2 * params.n - r - t
        res.record(ok, _repro(code))
    return res


def check_distance_sweep(rng, trials, budget) -> tuple[CheckResult, CheckResult]:
    """The closed form against brute force, and brute force non-decreasing in
    t, over one exhaustive pass: each distance is computed once."""
    sweep = CheckResult("distance-closed-form-sweep")
    monotone = CheckResult("distance-monotone-in-t")
    for p in (2, 3):
        for l in (2, 3):
            n = p ** l
            params = PrimeParams(p, 1, n)
            xm1 = FpPoly((-1, 1), p)
            prev = 0
            for t in range(1, n):
                if p ** (n - t) > budget:
                    continue
                brute = fp_cyclic_min_weight(xm1 ** t, params, budget=budget)
                form = distance_power_length(p, l, t)
                sweep.record(form == brute,
                             {"p": p, "l": l, "t_k": t, "formula": form, "brute": brute})
                monotone.record(brute >= prev, {"p": p, "l": l, "t_k": t})
                prev = brute
    return sweep, monotone


def check_distance_random(rng, trials, budget) -> CheckResult:
    res = CheckResult("torsion-vs-bruteforce-distance")
    done = draws = 0
    while done < trials and draws < 100 * trials:
        draws += 1
        params = random_params(rng)
        code = random_code(rng, params)
        if code.dim == 0 or code.dim > 16 or params.p ** code.dim > budget:
            continue
        done += 1
        res.record(code.min_distance(budget=budget)
                   == code.min_distance_bruteforce(budget=budget), _repro(code))
    return res


def check_product_law(rng, trials, budget) -> CheckResult:
    res = CheckResult("distance-product-law")
    for p in (2, 3):
        l = 2
        half = p ** (l - 1)
        sub = PrimeParams(p, 1, half)
        block = FpPoly.xn_minus_1(half, p)
        for h in divisors_xn_minus_1(sub):
            if h == block:
                continue
            for b in range(1, p):
                # the left side's code has p^(p^l - b p^(l-1) - deg h) codewords
                if p ** (p ** l - b * half - h.degree) > budget:
                    continue
                lhs, rhs, equal = product_law_check(p, l, b, h, budget=budget)
                res.record(equal, {"p": p, "l": l, "b": b,
                                   "h": list(h.coeffs), "lhs": lhs, "rhs": rhs})
    return res


def _inner_product_layers(a, b, params: PrimeParams) -> np.ndarray:
    """The k u-layers of the R_k inner product of every row of a with every
    row of b (rows in the footprint layout), shape (len(a), len(b), k)."""
    p, k, n = params.p, params.k, params.n
    # P[x, y, s, t] = sum over coordinates of layer s of a_x times layer t of b_y
    P = np.einsum("xis,yit->xyst", np.reshape(a, (-1, n, k)),
                  np.reshape(b, (-1, n, k))) % p
    out = np.zeros(P.shape[:2] + (k,), dtype=np.int64)
    for s in range(k):
        out[..., s:] += P[..., s, :k - s]
    return out % p


def check_dual(rng, trials, budget) -> CheckResult:
    # also the report's dual facts, read by theorem, against the nullspace dual
    res = CheckResult("dual-plumbing")
    for _ in range(trials):
        params = random_params(rng, ps=(2, 3), kmax=3, nmax=6)
        code = random_code(rng, params)
        dual = code.dual()
        ok = dual.dim == params.k * params.n - code.dim
        ok = ok and code.is_self_dual() == (dual == code)
        ok = ok and not _inner_product_layers(dual.footprint, code.footprint, params).any()
        ok = ok and dual.dual() == code
        res.record(ok, _repro(code))
    return res


SUITES = {
    "generators": [check_coprime_collapse, check_reconstruction,
                   check_tower_of_chain, check_free],
    "rank": [check_rank_and_spanning, check_cardinality],
    "distance": [check_distance_sweep, check_distance_random, check_product_law],
    "dual": [check_dual],
}
SUITES["all"] = [c for suite in ("generators", "rank", "distance", "dual")
                 for c in SUITES[suite]]


def run_suite(suite: str, trials: int, seed: int, budget: int) -> list[CheckResult]:
    results = []
    for check in SUITES[suite]:
        rng = random.Random(f"{seed}:{check.__name__}")
        out = check(rng, trials, budget)
        results.extend(out if isinstance(out, tuple) else (out,))
    return results
