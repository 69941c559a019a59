import itertools
import random

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
