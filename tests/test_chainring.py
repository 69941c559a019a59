import itertools
import random

import numpy as np
import pytest

from ucyclic.chainring import RkElem, RkPoly
from ucyclic.gfp import FpPoly, PrimeParams


def rpoly(layers, params):
    return RkPoly([FpPoly(l, params.p) for l in layers], params)


def random_elem(rng, params):
    return RkElem([rng.randrange(params.p) for _ in range(params.k)], params)


def random_poly(rng, params, maxdeg=5):
    return RkPoly([[rng.randrange(params.p) for _ in range(rng.randint(0, maxdeg))]
                   for _ in range(params.k)], params)


class TestRkElem:
    def test_inverse_one_plus_u_char2(self):
        pp = PrimeParams(2, 2, 4)
        e = RkElem((1, 1), pp)
        assert e.inverse() == e  # (1+u)^2 = 1 since u^2 = 0 and 2u = 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_inverse_geometric_series(self, p):
        pp = PrimeParams(p, 3, 4)
        e = RkElem((1, -1), pp)  # 1 - u
        assert e.inverse() == RkElem((1, 1, 1), pp)

    def test_inverse_2_plus_u_p3(self):
        pp = PrimeParams(3, 2, 5)
        e = RkElem((2, 1), pp)
        inv = e.inverse()
        assert inv == RkElem((2, 2), pp)
        # brute-force oracle over all 9 elements
        hits = [x for x in (RkElem(ls, pp) for ls in itertools.product(range(3), repeat=2))
                if (e * x) == RkElem.one(pp)]
        assert hits == [inv]

    def test_inverse_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(200):
            pp = PrimeParams(rng.choice([2, 3, 5]), rng.randint(1, 4), 4)
            e = random_elem(rng, pp)
            if not e.is_unit:
                continue
            assert e * e.inverse() == RkElem.one(pp)

    def test_nilpotent_has_no_inverse(self):
        pp = PrimeParams(3, 2, 5)
        with pytest.raises(ValueError, match="nilpotent"):
            RkElem((0, 1), pp).inverse()

    def test_valuation(self):
        pp4 = PrimeParams(3, 4, 5)
        assert (RkElem((0, 0, 1), pp4) * RkElem((1, 1), pp4)).u_valuation() == 2
        assert RkElem.zero(pp4).u_valuation() == 4
        pp2 = PrimeParams(5, 2, 5)
        assert RkElem((3, 1), pp2).u_valuation() == 0

    def test_valuation_additive(self):
        rng = random.Random(9)
        for _ in range(300):
            pp = PrimeParams(rng.choice([2, 3]), rng.randint(1, 4), 4)
            a, b = random_elem(rng, pp), random_elem(rng, pp)
            assert (a * b).u_valuation() == min(pp.k, a.u_valuation() + b.u_valuation())

    def test_ring_axioms_random(self):
        rng = random.Random(17)
        for _ in range(200):
            pp = PrimeParams(rng.choice([2, 3, 5]), rng.randint(1, 4), 4)
            a, b, c = (random_elem(rng, pp) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + b == b + a


class TestRkPolyMul:
    def test_square_is_zero_mod_x4(self):
        pp = PrimeParams(2, 2, 4)
        g = rpoly([[1, 0, 1], [1]], pp)  # x^2 + 1 + u
        assert g.mul_mod(g).is_zero  # (x^2+1+u)^2 = x^4 + 1 = 0 mod x^4 - 1

    def test_mul_by_one(self):
        pp = PrimeParams(3, 3, 5)
        a = rpoly([[1, 2], [0, 1], [2]], pp)
        assert a.mul_mod(RkPoly.one(pp)) == a

    def test_u_nilpotency(self):
        pp = PrimeParams(5, 3, 4)
        top = RkPoly.from_fp(FpPoly.one(5), pp, level=2)
        u = RkPoly.from_fp(FpPoly.one(5), pp, level=1)
        assert top.mul_mod(u).is_zero


class TestRkPolyDivmod:
    def test_square_root_of_x4_minus_1(self):
        pp = PrimeParams(2, 2, 4)
        b = rpoly([[1, 0, 1], [1]], pp)
        q, r = divmod(RkPoly.from_fp(FpPoly.xn_minus_1(4, 2), pp), b)
        assert r.is_zero
        assert q == b

    def test_divide_by_one(self):
        pp = PrimeParams(3, 2, 5)
        f = rpoly([[1, 2, 1], [2]], pp)
        q, r = divmod(f, RkPoly.one(pp))
        assert q == f and r.is_zero

    def test_x5_minus_1_by_lifted_factor(self):
        pp = PrimeParams(3, 4, 5)
        q, r = divmod(RkPoly.from_fp(FpPoly.xn_minus_1(5, 3), pp),
                      RkPoly.from_fp(FpPoly([2, 1], 3), pp))
        assert r.is_zero
        assert q == RkPoly.from_fp(FpPoly([1, 1, 1, 1, 1], 3), pp)

    def test_nonunit_lead_rejected(self):
        pp = PrimeParams(2, 2, 4)
        b = rpoly([[], [0, 1]], pp)  # u*x: leading coefficient u is nilpotent
        with pytest.raises(ValueError, match="unit leading"):
            divmod(RkPoly.one(pp), b)

    def test_remultiplication_random(self):
        rng = random.Random(23)
        for _ in range(200):
            pp = PrimeParams(rng.choice([2, 3, 5]), rng.randint(1, 4), 6)
            a = random_poly(rng, pp)
            b = random_poly(rng, pp, maxdeg=3)
            if b.is_zero or not b.lead_coeff().is_unit:
                continue
            q, r = divmod(a, b)
            assert b * q + r == a
            assert r.degree < b.degree


class TestDivides:
    def test_lifted_square(self):
        pp = PrimeParams(2, 2, 4)
        b = rpoly([[1, 0, 1], [1]], pp)
        assert b.divides(RkPoly.from_fp(FpPoly.xn_minus_1(4, 2), pp))

    def test_one_divides_everything(self):
        pp = PrimeParams(3, 2, 4)
        assert RkPoly.one(pp).divides(rpoly([[1, 2, 0, 1], [2, 2]], pp))

    def test_x_plus_u_does_not_divide(self):
        # (x+u)^2 = x^2, so x^2 - 1 = (x+u)(x+u) + 1: remainder 1
        pp = PrimeParams(2, 2, 2)
        b = rpoly([[0, 1], [1]], pp)
        a = RkPoly.from_fp(FpPoly.xn_minus_1(2, 2), pp)
        assert not b.divides(a)
        q, r = divmod(a, b)
        assert r == RkPoly.one(pp)


class TestVectors:
    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(100):
            pp = PrimeParams(rng.choice([2, 3, 5]), rng.randint(1, 3), rng.randint(1, 6))
            f = random_poly(rng, pp, maxdeg=pp.n - 1)
            assert RkPoly.from_vector(f.to_vector(), pp) == f.mod_xn()

    def test_layout_coordinate_major(self):
        pp = PrimeParams(3, 2, 3)
        f = rpoly([[1, 2], [0, 0, 1]], pp)  # 1 + 2x + u*x^2
        assert f.to_vector() == [1, 0, 2, 0, 0, 1]


# -- the lean layer against a slow reference ---------------------------------

LEAN_PS = [2, 3, 5, 7, 65521]


def as_terms(f):
    # {(degree, layer): digit} of an RkPoly, read through its public layers
    return {(i, j): c for j, l in enumerate(f.ulayers) for i, c in enumerate(l.coeffs) if c}


def from_terms(terms, params):
    out = [[0] * (1 + max([i for i, _ in terms] or [-1])) for _ in range(params.k)]
    for (i, j), c in terms.items():
        out[j][i] = c
    return RkPoly(out, params)


def slow_rk_mul(a, b, params):
    # x^i u^s times x^j u^t is x^(i+j) u^(s+t), zero once s + t >= k; every
    # term reduced as it is added
    p, k = params.p, params.k
    out = {}
    for (i, s), x in as_terms(a).items():
        for (j, t), y in as_terms(b).items():
            if s + t < k:
                out[i + j, s + t] = (out.get((i + j, s + t), 0) + x * y) % p
    return from_terms(out, params)


def random_lean_params(rng, p):
    return PrimeParams(p, rng.randint(1, 8), rng.randint(1, 64))


def random_rk(rng, params, length):
    return RkPoly([[rng.randrange(params.p) for _ in range(rng.randint(0, length))]
                   for _ in range(params.k)], params)


def random_unit_leading(rng, params, degree):
    # random layers of degree <= degree, layer 0 of degree exactly `degree`
    # with a lead other than 1 when p > 2, so the leading coefficient is a
    # unit that is not 1
    p = params.p
    layers = [[rng.randrange(p) for _ in range(degree + 1)] for _ in range(params.k)]
    layers[0][degree] = rng.randrange(2, p) if p > 2 else 1
    if params.k > 1 and degree >= 0:
        layers[1][degree] = rng.randrange(1, p)  # a nilpotent part in the lead
    return RkPoly(layers, params)


class TestLeanRkPoly:
    """`RkPoly` arithmetic through the trusted constructors, against
    references that reduce every term, up to k = 8, n = 64, p = 65521."""

    @pytest.mark.parametrize("p", LEAN_PS)
    def test_mul_matches_reference(self, p):
        rng = random.Random(5000 + p)
        for trial in range(12):
            pp = random_lean_params(rng, p)
            length = min(pp.n, 12) if trial % 2 else pp.n
            a, b = random_rk(rng, pp, length), random_rk(rng, pp, length)
            assert a * b == slow_rk_mul(a, b, pp)
            assert a.mul_mod(b) == slow_rk_mul(a, b, pp).mod_xn()
            c = RkElem([rng.randrange(p) for _ in range(pp.k)], pp)
            assert a * c == a.scale(c) == slow_rk_mul(a, RkPoly([[d] for d in c.layers], pp), pp)

    @pytest.mark.parametrize("p", LEAN_PS)
    def test_add_sub_neg_match_layerwise(self, p):
        rng = random.Random(6000 + p)
        for _ in range(20):
            pp = random_lean_params(rng, p)
            a, b = random_rk(rng, pp, pp.n), random_rk(rng, pp, pp.n)
            assert (a + b).ulayers == tuple(x + y for x, y in zip(a.ulayers, b.ulayers))
            assert (a - b).ulayers == tuple(x - y for x, y in zip(a.ulayers, b.ulayers))
            assert a - b == a + (-b) and (a - a).is_zero

    @pytest.mark.parametrize("p", LEAN_PS)
    def test_divmod_identity(self, p):
        # a = q b + r with deg r < deg b, for unit-leading b; q and r are
        # unique, so this pins the division
        rng = random.Random(7000 + p)
        for trial in range(25):
            pp = random_lean_params(rng, p)
            a = random_rk(rng, pp, 2 * pp.n - 1)
            b = random_unit_leading(rng, pp, rng.randint(0, pp.n))
            q, r = divmod(a, b)
            assert slow_rk_mul(q, b, pp) + r == a
            assert r.degree < b.degree
            assert a // b == q and a % b == r
            assert b.divides(a) == r.is_zero
            assert b.divides(slow_rk_mul(a, b, pp))

    def test_divmod_inverts_the_lead(self):
        # (2 + u) x + 1 over R_2 = Z_3[u]/(u^2) has the lead inverse 2 + 2u
        pp = PrimeParams(3, 2, 4)
        b = rpoly([[1, 2], [0, 1]], pp)
        a = rpoly([[0, 0, 1]], pp)  # x^2
        q, r = divmod(a, b)
        assert b * q + r == a and r.degree < 1
        assert q.lead_coeff() == RkElem((2, 2), pp)

    @pytest.mark.parametrize("p", LEAN_PS)
    def test_public_constructor_normalises_to_the_trusted_form(self, p):
        rng = random.Random(8000 + p)
        for _ in range(20):
            pp = random_lean_params(rng, p)
            digits = [rng.randrange(p) for _ in range(pp.k * pp.n)]
            trusted = RkPoly._from_digits(digits, pp)
            wild = np.array(digits, dtype=np.int64) + p * np.array(
                [rng.randint(-2, 2) for _ in digits], dtype=np.int64)
            for f in (RkPoly.from_vector(wild, pp),
                      RkPoly([wild[j::pp.k] for j in range(pp.k)], pp),
                      RkPoly([FpPoly(wild[j::pp.k], p) for j in range(pp.k)], pp)):
                assert f == trusted and hash(f) == hash(trusted)
                assert all(type(c) is int for l in f.ulayers for c in l.coeffs)
            assert trusted.to_vector() == digits

    def test_trusted_constructor_takes_layers_as_given(self):
        pp = PrimeParams(5, 3, 4)
        layers = [FpPoly([1, 2], 5), FpPoly.zero(5), FpPoly([0, 4], 5)]
        assert RkPoly._of(layers, pp) == RkPoly(layers, pp)
        assert RkPoly.from_fp(FpPoly([1, 2], 5), pp, level=2) == RkPoly(
            [[], [], [1, 2]], pp)
        with pytest.raises(ValueError, match="modulus"):
            RkPoly.from_fp(FpPoly([1], 3), pp)
        with pytest.raises(ValueError, match="u-layers"):
            RkPoly.from_fp(FpPoly([1], 5), pp, level=3)
