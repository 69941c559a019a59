import random

import pytest

from ucyclic.chainring import RkElem, RkPoly
from ucyclic.code import code_from_generators
from ucyclic.gfp import FpPoly, PrimeParams, factor_xn_minus_1
from ucyclic.properties import (_irredundant, _module_span, chain_code,
                                random_chain, random_code, random_params)
from ucyclic.structure import (SHAPE_FULL_TOWER, SHAPE_PRINCIPAL,
                               SHAPE_PRINCIPAL_DIVIDING, SHAPE_TWO_GENERATOR,
                               canonical_form, cardinality_formula_check,
                               collapse_coprime, enumerate_coprime, is_free,
                               minimal_spanning_set, rank, verify_constraints)

P345 = PrimeParams(3, 4, 5)
G1 = FpPoly([2, 1], 3)
G2 = FpPoly([1, 1, 1, 1, 1], 3)


def gen(poly, params, level=0):
    return RkPoly.from_fp(poly, params, level=level)


def free_k2_code():
    pp = PrimeParams(2, 2, 4)
    return pp, code_from_generators(pp, [RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp)])


class TestCanonicalForm:
    def test_coprime_principal(self):
        code = code_from_generators(P345, [gen(G1, P345)])
        cf = canonical_form(code)
        assert cf.shape == SHAPE_PRINCIPAL
        assert cf.tower.gens == (G1,) * 4
        assert cf.present_levels == (0,)
        assert cf.lifted[0] == gen(G1, P345)

    def test_zero_code(self):
        code = code_from_generators(P345, [])
        cf = canonical_form(code)
        assert cf.shape == SHAPE_FULL_TOWER
        assert cf.generators == ()
        xn1 = FpPoly.xn_minus_1(5, 3)
        assert cf.tower.gens == (xn1,) * 4

    def test_principal_dividing(self):
        pp, code = free_k2_code()
        cf = canonical_form(code)
        assert cf.shape == SHAPE_PRINCIPAL_DIVIDING
        assert cf.tower.gens == (FpPoly([1, 0, 1], 2),) * 2
        assert cf.lifted[0] == RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp)

    def test_two_generator_shape(self):
        pp = PrimeParams(2, 2, 4)
        code = code_from_generators(pp, [
            RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp),
            gen(FpPoly([1, 1], 2), pp, level=1)])
        assert canonical_form(code).shape == SHAPE_TWO_GENERATOR

    def test_mixing_layers_degree_reduced(self):
        rng = random.Random(13)
        for _ in range(60):
            params = random_params(rng, nmax=8)
            code = random_code(rng, params)
            cf = canonical_form(code)
            for i in cf.present_levels:
                g = cf.lifted[i]
                assert g.u_valuation() == i
                assert g.ulayers[i] == cf.tower.gens[i]
                for j in range(i + 1, params.k):
                    assert g.ulayers[j].degree < cf.tower.gens[j].degree

    def test_reconstruction_random(self):
        rng = random.Random(37)
        for _ in range(60):
            params = random_params(rng)
            code = random_code(rng, params)
            cf = canonical_form(code)
            assert code_from_generators(params, list(cf.generators)) == code


class TestIsFree:
    def test_free_k2(self):
        pp, code = free_k2_code()
        free, witness = is_free(code)
        assert free
        assert witness == RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp)

    def test_not_free(self):
        code = code_from_generators(P345, [gen(G1, P345), gen(FpPoly.one(3), P345, 1)])
        assert is_free(code) == (False, None)

    def test_unit_code_free(self):
        code = code_from_generators(P345, [RkPoly.one(P345)])
        free, witness = is_free(code)
        assert free and witness == RkPoly.one(P345)


class TestCollapse:
    def test_two_generator_collapse(self):
        pp = PrimeParams(3, 2, 5)
        code = code_from_generators(pp, [gen(G2, pp), gen(FpPoly.one(3), pp, 1)])
        h = collapse_coprime(code)
        assert h == RkPoly([G2, FpPoly.one(3)], pp)
        assert code_from_generators(pp, [h]) == code

    def test_unit_collapse(self):
        code = code_from_generators(P345, [RkPoly.one(P345)])
        h = collapse_coprime(code)
        assert h == RkPoly([FpPoly.one(3)] * 4, P345)
        assert code_from_generators(P345, [h]) == code

    def test_scaled_generator_same_ideal(self):
        pp = PrimeParams(3, 2, 5)
        one_plus_u = RkPoly([FpPoly.one(3), FpPoly.one(3)], pp)
        code = code_from_generators(pp, [gen(G1, pp).mul_mod(one_plus_u)])
        assert code == code_from_generators(pp, [gen(G1, pp)])
        h = collapse_coprime(code)
        assert h == RkPoly([G1, G1], pp)

    def test_non_coprime_rejected(self):
        pp = PrimeParams(3, 2, 9)
        code = code_from_generators(pp, [gen(FpPoly([2, 1], 3), pp)])
        with pytest.raises(ValueError, match="coprime"):
            collapse_coprime(code)

    def test_zero_code_collapses(self):
        code = code_from_generators(P345, [])
        assert collapse_coprime(code).is_zero


class TestVerifyConstraints:
    def test_coprime_vacuous(self):
        code = code_from_generators(P345, [gen(G1, P345), gen(FpPoly.one(3), P345, 2)])
        report = verify_constraints(code)
        assert all(c.vacuous for c in report.checks)
        assert all(c.chain_cofactors_ok for c in report.checks)

    def test_two_generator_conditions(self):
        pp = PrimeParams(2, 2, 4)
        code = code_from_generators(pp, [
            RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp),
            gen(FpPoly([1, 1], 2), pp, level=1)])
        report = verify_constraints(code)
        # tower is (x^2+1, x+1); the level-0 lift carries mixing layer p_1 = 1
        mixing = [c for c in report.checks if not c.vacuous]
        assert mixing
        assert all(c.chain_cofactors_ok for c in mixing)

    def test_zero_code_empty_report(self):
        report = verify_constraints(code_from_generators(P345, []))
        assert report.checks == ()


class TestRank:
    def test_coprime_principal(self):
        assert rank(code_from_generators(P345, [gen(G1, P345)])) == 4

    def test_g2_with_u3(self):
        code = code_from_generators(P345, [gen(G2, P345), gen(FpPoly.one(3), P345, 3)])
        assert rank(code) == 5

    def test_whole_ring(self):
        assert rank(code_from_generators(P345, [RkPoly.one(P345)])) == 5

    def test_zero_code(self):
        assert rank(code_from_generators(P345, [])) == 0


class TestMinimalSpanningSet:
    def test_g1_u_five_elements(self):
        code = code_from_generators(P345, [gen(G1, P345), gen(FpPoly.one(3), P345, 1)])
        ss = minimal_spanning_set(code)
        expected = [gen(G1, P345).shift_x(j).mod_xn() for j in range(4)]
        expected.append(gen(FpPoly.one(3), P345, level=1))
        assert list(ss.elements) == expected
        assert ss.cardinality == 5 == rank(code)

    def test_free_basis_of_two(self):
        pp, code = free_k2_code()
        ss = minimal_spanning_set(code)
        g = RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp)
        assert list(ss.elements) == [g, g.shift_x(1).mod_xn()]

    def test_unit_code(self):
        code = code_from_generators(P345, [RkPoly.one(P345)])
        ss = minimal_spanning_set(code)
        assert ss.cardinality == 5
        assert list(ss.elements) == [RkPoly.one(P345).shift_x(j).mod_xn() for j in range(5)]

    def test_zero_code_error(self):
        with pytest.raises(ValueError, match="zero code"):
            minimal_spanning_set(code_from_generators(P345, []))

    def test_rank_consistency_random(self):
        rng = random.Random(43)
        for _ in range(40):
            params = random_params(rng, nmax=8)
            code = random_code(rng, params)
            if code.dim == 0:
                continue
            ss = minimal_spanning_set(code)
            assert ss.cardinality == rank(code)
            assert ss.cardinality == params.n - code.torsion_tower().gens[-1].degree
            assert _module_span(params, ss.elements) == code
            assert _irredundant(code, ss.elements)


def leave_one_out_irredundant(code, elements):
    """Reference minimality test: no element can be dropped from the span."""
    return all(_module_span(code.params, elements[:d] + elements[d + 1:]) != code
               for d in range(len(elements)))


class TestNakayamaMinimality:
    def test_agrees_with_leave_one_out(self):
        rng = random.Random(71)
        verdicts = []
        for _ in range(25):
            params = random_params(rng, kmax=3, nmax=6)
            code = random_code(rng, params)
            if code.dim == 0:
                continue
            minimal = list(minimal_spanning_set(code).elements)
            shifts = [g.shift_x(j).mod_xn() for g in code.generators
                      for j in range(params.n)]
            u = RkElem((0, 1)[:params.k], params)  # u is 0 in R_1
            for elements in (minimal, minimal + [minimal[-1].scale(u)], shifts):
                assert _module_span(params, elements) == code
                verdict = _irredundant(code, elements)
                assert verdict == leave_one_out_irredundant(code, elements)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts


def mixed_tower_code(params, chain, rng):
    """One generator per distinct entry of the divisor chain, u^i (g_i +
    sum_j u^(j-i) m_ij), with each mixing layer m_ij a random multiple of the
    last entry."""
    p, k, n = params.p, params.k, params.n
    gens = []
    for i, g in enumerate(chain):
        if i and g == chain[i - 1]:
            continue
        mixing = [(chain[-1] * FpPoly([rng.randrange(p) for _ in range(n)], p))
                  .mod_xn_minus_1(n) for _ in range(i + 1, k)]
        gens.append(RkPoly([FpPoly.zero(p)] * i + [g] + mixing, params))
    return code_from_generators(params, gens)


def edge_code(n, seed):
    """A code at the envelope edge p = 3, k = 8 (`mixed_tower_code`)."""
    p, one = 3, FpPoly.one(3)
    if n == 64:  # coprime: x^64 - 1 = (x - 1)(x + 1)(x^2 + 1) ... (x^32 + 1)
        b = [FpPoly.monomial(1, e, p) + one for e in (32, 16, 8, 4)]
        chain = [b[0] * b[1] * b[2] * b[3]] * 2 + [b[0] * b[1] * b[2]] * 3 + [b[0]] * 3
    else:  # n = 63: x^63 - 1 = (x - 1)^9 (x^6 + ... + 1)^9
        xm, phi = FpPoly([-1, 1], p), FpPoly([1] * 7, p)
        chain = [xm ** 8 * phi ** 9] * 2 + [xm ** 5 * phi ** 8] * 3 + [xm * phi ** 7] * 3
    return mixed_tower_code(PrimeParams(p, 8, n), chain, random.Random(seed))


class TestEnvelopeEdge:
    @pytest.mark.parametrize("n", [64, 63])
    def test_lifts_reduced_and_reconstruct(self, n):
        code = edge_code(n, seed=5)
        cf = canonical_form(code)
        degs = cf.tower.degrees
        mixed = 0
        for i in cf.present_levels:
            for j in range(i + 1, 8):
                layer = cf.lifted[i].ulayers[j]
                assert layer.degree < degs[j]
                mixed += not layer.is_zero
        assert code_from_generators(code.params, list(cf.generators)) == code
        # with p | n the lifts keep nonzero mixing layers; coprime lifts are pure
        assert (mixed > 0) == (n == 63)


class TestCardinalityFormula:
    def test_free_k2(self):
        _, code = free_k2_code()
        lhs, rhs, equal = cardinality_formula_check(code)
        assert equal
        assert lhs == 4 == 2 * 4 - 2 * 2  # 2n - 2r

    def test_two_generator_k2(self):
        pp = PrimeParams(2, 2, 4)
        code = code_from_generators(pp, [
            RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp),
            gen(FpPoly([1, 1], 2), pp, level=1)])
        lhs, rhs, equal = cardinality_formula_check(code)
        assert equal
        assert lhs == 5 == 2 * 4 - 2 - 1  # 2n - r - t

    def test_whole_ring_k2(self):
        pp = PrimeParams(2, 2, 4)
        lhs, rhs, equal = cardinality_formula_check(code_from_generators(pp, [RkPoly.one(pp)]))
        assert equal and lhs == 2 * pp.n

    def test_random(self):
        rng = random.Random(51)
        for _ in range(50):
            params = random_params(rng)
            code = random_code(rng, params)
            lhs, rhs, equal = cardinality_formula_check(code)
            assert equal


class TestEnumerate:
    def test_p3_k4_n5_counts(self):
        towers = enumerate_coprime(P345)
        nonzero = [t for t in towers if t.dim > 0]
        assert len(nonzero) == 24
        assert len(towers) == 25
        assert towers[-1].dim == 0
        assert len(set(towers)) == 25

    def test_r2_length_1(self):
        pp = PrimeParams(2, 2, 1)
        towers = enumerate_coprime(pp)
        nonzero = [t for t in towers if t.dim > 0]
        assert len(nonzero) == 2  # <1> and <u>: the nonzero ideals of R_2
        assert {t.dim for t in nonzero} == {1, 2}

    def test_classical_binary_length_3(self):
        pp = PrimeParams(2, 1, 3)
        towers = enumerate_coprime(pp)
        assert len(towers) == 4  # the binary cyclic codes of length 3
        assert sorted(t.dim for t in towers) == [0, 1, 2, 3]

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            enumerate_coprime(PrimeParams(3, 2, 3))

    def test_deterministic_order(self):
        a = enumerate_coprime(P345)
        b = enumerate_coprime(P345)
        assert a == b
        dims = [t.dim for t in a][:-1]
        assert dims == sorted(dims)

    @pytest.mark.parametrize("p,k,n", [(2, 2, 7), (3, 4, 5), (5, 2, 4)])
    def test_key_order_zero_code_last(self, p, k, n):
        # (dim, coefficient tuples of g_0 .. g_(k-1)), read off the chain
        params = PrimeParams(p, k, n)
        towers = enumerate_coprime(params)
        keys = [(t.dim, tuple(g.coeffs for g in t.gens)) for t in towers[:-1]]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        xn1 = FpPoly.xn_minus_1(n, p)
        assert towers[-1].gens == (xn1,) * k
        assert all(t.dim > 0 for t in towers[:-1])

    @pytest.mark.parametrize("p,k,n", [(2, 2, 7), (3, 4, 5), (2, 4, 3),
                                       (5, 2, 4), (2, 3, 7), (3, 2, 8)])
    def test_codes_are_their_chain_codes(self, p, k, n):
        # each chain is the tower of the code <u^i g_i> it generates, which
        # the single generator sum(u^i g_i) also generates, and the (k + 1)^r
        # threshold vectors give (k + 1)^r distinct towers
        params = PrimeParams(p, k, n)
        towers = enumerate_coprime(params)
        for t in towers:
            code = chain_code(params, t.gens)
            assert code.torsion_tower() == t
            assert code_from_generators(params, [t.generator]) == code
        assert len(towers) == (k + 1) ** len(factor_xn_minus_1(params))
        assert len(set(towers)) == len(towers)

    def test_multi_vs_collapsed_same_footprint(self):
        rng = random.Random(61)
        for _ in range(40):
            params = random_params(rng, nmax=8, coprime=True)
            chain = random_chain(rng, params)
            code = chain_code(params, chain)
            h = collapse_coprime(code)
            assert code_from_generators(params, [h]) == code
