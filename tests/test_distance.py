import pytest

from ucyclic.chainring import RkPoly
from ucyclic.code import code_from_generators
from ucyclic.distance import (FULL_EXPANSION, NONZERO_EXPANSION, ZERO_EXPANSION,
                              classify_p_adic, distance_power_length,
                              closed_form_distance, product_law_check,
                              top_distance)
from ucyclic.gfp import (BudgetError, FpPoly, PrimeParams, divisors_xn_minus_1,
                         fp_cyclic_min_weight)


class TestClassify:
    def test_full_expansion(self):
        exp = classify_p_adic(4, 3, 2)
        assert exp.digits == (1, 1)
        assert exp.kind == FULL_EXPANSION and exp.q == 2

    def test_zero_expansion(self):
        exp = classify_p_adic(3, 3, 2)
        assert exp.digits == (1, 0)
        assert exp.kind == ZERO_EXPANSION and exp.q == 1

    def test_nonzero_expansion(self):
        exp = classify_p_adic(5, 2, 3)
        assert exp.digits == (1, 0, 1)
        assert exp.kind == NONZERO_EXPANSION and exp.q == 1

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError, match="leading digit zero"):
            classify_p_adic(2, 3, 2)

    def test_range(self):
        with pytest.raises(ValueError):
            classify_p_adic(0, 3, 2)
        with pytest.raises(ValueError):
            classify_p_adic(9, 3, 2)

    def test_digit_reconstruction_and_trichotomy(self):
        for p in (2, 3, 5):
            for l in (1, 2, 3):
                for m in range(p ** (l - 1), p ** l):
                    exp = classify_p_adic(m, p, l)
                    assert sum(d * p ** i
                               for i, d in enumerate(reversed(exp.digits))) == m
                    assert exp.kind in (ZERO_EXPANSION, NONZERO_EXPANSION, FULL_EXPANSION)
                    run = exp.q
                    assert all(exp.digits[i] != 0 for i in range(run))
                    if exp.kind == FULL_EXPANSION:
                        assert run == l
                    else:
                        assert exp.digits[run] == 0
                        assert (exp.kind == NONZERO_EXPANSION) == any(exp.digits[run + 1:])


class TestDistancePowerLength:
    def test_case_one(self):
        assert distance_power_length(3, 2, 2) == 2

    def test_full_expansion_formula(self):
        assert distance_power_length(3, 2, 4) == 4

    def test_nonzero_expansion_formula(self):
        assert distance_power_length(2, 3, 5) == 4

    def test_range_errors(self):
        with pytest.raises(ValueError):
            distance_power_length(3, 2, 0)
        with pytest.raises(ValueError):
            distance_power_length(3, 2, 9)

    def test_case_one_boundary_is_exact(self):
        # t <= p^(l-1) with nonzero leading digit forces t = p^(l-1) exactly
        for p, l in ((2, 2), (2, 3), (3, 2)):
            for t in range(1, p ** (l - 1) + 1):
                leading = t // p ** (l - 1)
                if leading:
                    assert t == p ** (l - 1)
                assert distance_power_length(p, l, t) == 2

    def test_matches_oracle_for_p2(self):
        # over F_2 the formula agrees with exhaustive search everywhere
        for l in (2, 3):
            n = 2 ** l
            params = PrimeParams(2, 1, n)
            gen = FpPoly([1, 1], 2)
            for t in range(1, n):
                assert distance_power_length(2, l, t) == \
                    fp_cyclic_min_weight(gen ** t, params)


class TestProductLaw:
    def test_p2_trivial_h(self):
        assert product_law_check(2, 2, 1, FpPoly.one(2)) == (2, 2, True)

    def test_p3_b2_trivial_h(self):
        assert product_law_check(3, 2, 2, FpPoly.one(3)) == (3, 3, True)

    def test_p3_b1_x_minus_1_disagrees(self):
        # frozen from the exhaustive oracle: (x-1)^4 at length 9 has a
        # weight-3 word (x-1)^6 = (x^3-1)^2, so the product law fails here
        lhs, rhs, equal = product_law_check(3, 2, 1, FpPoly([2, 1], 3))
        assert (lhs, rhs, equal) == (3, 4, False)

    def test_b_out_of_range(self):
        with pytest.raises(ValueError):
            product_law_check(3, 2, 0, FpPoly.one(3))
        with pytest.raises(ValueError):
            product_law_check(3, 2, 3, FpPoly.one(3))

    def test_h_must_be_proper_divisor(self):
        with pytest.raises(ValueError):
            product_law_check(3, 2, 1, FpPoly.xn_minus_1(3, 3))
        with pytest.raises(ValueError):
            product_law_check(3, 2, 1, FpPoly([1, 1], 3))


class TestClosedFormDistance:
    def test_u_times_power(self):
        pp = PrimeParams(3, 2, 9)
        code = code_from_generators(
            pp, [RkPoly.from_fp(FpPoly([2, 1], 3) ** 4, pp, level=1)])
        assert closed_form_distance(code) == 4  # the formula value; oracle gives 3

    def test_power_three(self):
        pp = PrimeParams(3, 2, 9)
        code = code_from_generators(pp, [RkPoly.from_fp(FpPoly([2, 1], 3) ** 3, pp)])
        assert closed_form_distance(code) == 2
        assert code.min_distance_bruteforce() == 2

    def test_length_not_power(self):
        pp = PrimeParams(3, 2, 5)
        code = code_from_generators(pp, [RkPoly.from_fp(FpPoly([2, 1], 3), pp)])
        with pytest.raises(ValueError, match="inapplicable"):
            closed_form_distance(code)

    def test_top_not_power_of_x_minus_1(self):
        pp = PrimeParams(2, 1, 6)  # x^6-1 = (x+1)^2 (x^2+x+1)^2 over F_2
        code = code_from_generators(pp, [RkPoly.from_fp(FpPoly([1, 1, 1], 2), pp)])
        with pytest.raises(ValueError, match="inapplicable"):
            closed_form_distance(code)

    def test_whole_ring_inapplicable(self):
        # top torsion generator 1 = (x-1)^0 is outside the formula's range
        pp = PrimeParams(2, 1, 4)
        code = code_from_generators(pp, [RkPoly.one(pp)])
        with pytest.raises(ValueError, match="inapplicable"):
            closed_form_distance(code)

    def test_zero_code(self):
        pp = PrimeParams(3, 2, 9)
        with pytest.raises(ValueError, match="zero code"):
            closed_form_distance(code_from_generators(pp, []))


class TestOracleSweeps:
    def test_brute_distance_monotone_in_t(self):
        for p, l in ((2, 2), (2, 3), (3, 2)):
            n = p ** l
            params = PrimeParams(p, 1, n)
            gen = FpPoly([-1, 1], p)
            prev = 0
            for t in range(1, n):
                d = fp_cyclic_min_weight(gen ** t, params)
                assert d >= prev
                prev = d

    def test_case_one_sweep_all_two(self):
        # the t <= p^(l-1) branch is exact: every such t gives distance 2
        for p, l in ((2, 2), (2, 3), (3, 2)):
            n = p ** l
            params = PrimeParams(p, 1, n)
            gen = FpPoly([-1, 1], p)
            for t in range(1, p ** (l - 1) + 1):
                assert fp_cyclic_min_weight(gen ** t, params) == 2


class TestRepeatedRootDistance:
    def test_matches_exhaustive_search(self):
        # every length p^l <= 64, every top torsion (x-1)^t within 2^16 codewords
        budget = 1 << 16
        checked = 0
        for p in (2, 3, 5, 7):
            n = p
            while n <= 64:
                pp = PrimeParams(p, 2, n)
                for t in range(1, n):
                    if p ** (n - t) > budget:
                        continue
                    top = FpPoly([-1, 1], p) ** t
                    code = code_from_generators(pp, [RkPoly.from_fp(top, pp, level=1)])
                    expected = (fp_cyclic_min_weight(top, PrimeParams(p, 1, n), budget=budget),
                                "repeated-root")
                    g = code.torsion_tower().gens[-1]
                    assert top_distance(g, pp, budget) == expected, (p, n, t)
                    assert top_distance(g, pp, 1) == expected, (p, n, t)  # no search
                    checked += 1
                n *= p
        assert checked == 98

    def test_where_the_paper_law_fails(self):
        pp = PrimeParams(3, 2, 9)
        code = code_from_generators(
            pp, [RkPoly.from_fp(FpPoly([2, 1], 3) ** 4, pp, level=1)])
        assert top_distance(code.torsion_tower().gens[-1], pp, 1) == (3, "repeated-root")
        assert code.min_distance_bruteforce() == 3

    def test_inapplicable_like_the_closed_form(self):
        cases = [(PrimeParams(3, 2, 5), FpPoly([2, 1], 3)),
                 (PrimeParams(2, 1, 6), FpPoly([1, 1, 1], 2)),
                 (PrimeParams(2, 1, 4), FpPoly.one(2))]
        for pp, g in cases:
            code = code_from_generators(pp, [RkPoly.from_fp(g, pp)])
            assert top_distance(code.torsion_tower().gens[-1], pp, 1 << 16) == (
                code.min_distance(), "torsion")
            with pytest.raises(ValueError, match="closed form inapplicable"):
                closed_form_distance(code)

    def test_non_divisor_at_power_length(self):
        # x^2 + x + 1 does not divide x^8 - 1 = (x + 1)^8 over F_2
        with pytest.raises(ValueError, match="must divide"):
            top_distance(FpPoly([1, 1, 1], 2), PrimeParams(2, 1, 8), 1 << 16)

    def test_zero_code(self):
        pp = PrimeParams(3, 2, 9)
        code = code_from_generators(pp, [])
        with pytest.raises(ValueError, match="zero code"):
            top_distance(code.torsion_tower().gens[-1], pp, 1 << 16)

    @pytest.mark.parametrize("p, n, power", [
        (2, 7, False), (2, 15, False), (3, 8, False),  # coprime
        (2, 6, False), (2, 12, False), (3, 6, False),  # p | n, n not a power of p
        (2, 8, True), (3, 9, True)])
    def test_every_divisor_matches_torsion_search(self, p, n, power):
        params = PrimeParams(p, 2, n)
        for g in divisors_xn_minus_1(params)[:-1]:  # the last, x^n - 1, is the zero code
            repeated = power and g.degree >= 1 and g == FpPoly([-1, 1], p) ** g.degree
            expected = (fp_cyclic_min_weight(g, params),
                        "repeated-root" if repeated else "torsion")
            assert top_distance(g, params, 1 << 16) == expected, (p, n, g)
            if not repeated:  # over budget, the search names the codewords it needs
                required = p ** (n - g.degree)
                with pytest.raises(BudgetError) as exc:
                    top_distance(g, params, required - 1)
                assert exc.value.required == required, (p, n, g)
