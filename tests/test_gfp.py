import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ucyclic
from ucyclic import gfp, linalg
from ucyclic.gfp import (BudgetError, FpPoly, PrimeParams, divisors_xn_minus_1,
                         factor_xn_minus_1, fp_cyclic_min_weight, is_prime,
                         poly_gcd, poly_xgcd)
from ucyclic.linalg import InvariantError


def P(coeffs, p):
    return FpPoly(coeffs, p)


def brute_min_weight(gen, params):
    # independent oracle: enumerate all message polynomials with itertools
    p, n = params.p, params.n
    dim = n - gen.degree
    best = None
    for msg in itertools.product(range(p), repeat=dim):
        if not any(msg):
            continue
        cw = [0] * n
        for j, m in enumerate(msg):
            if m:
                for i, c in enumerate(gen.coeffs):
                    cw[(i + j) % n] = (cw[(i + j) % n] + m * c) % p
        w = sum(1 for c in cw if c)
        if best is None or w < best:
            best = w
    return best


class TestPrimeParams:
    def test_valid(self):
        pp = PrimeParams(3, 4, 5)
        assert pp.coprime

    def test_invalid_p(self):
        with pytest.raises(ValueError, match="prime"):
            PrimeParams(4, 1, 5)
        with pytest.raises(ValueError, match="prime"):
            PrimeParams(1, 1, 5)

    def test_bounds(self):
        with pytest.raises(ValueError):
            PrimeParams(2, 0, 5)
        with pytest.raises(ValueError):
            PrimeParams(2, 9, 5)
        with pytest.raises(ValueError):
            PrimeParams(2, 1, 0)
        with pytest.raises(ValueError):
            PrimeParams(2, 1, 65)

    def test_is_prime_small(self):
        primes = [m for m in range(60) if is_prime(m)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestDivmod:
    def test_x5_minus_1_by_x_minus_1(self):
        # x^5 - 1 = (x - 1)(x^4 + x^3 + x^2 + x + 1) over F_3
        q, r = divmod(FpPoly.xn_minus_1(5, 3), P([2, 1], 3))
        assert q == P([1, 1, 1, 1, 1], 3)
        assert r.is_zero

    def test_identity_divisor(self):
        f = P([2, 0, 1, 1], 3)
        q, r = divmod(f, FpPoly.one(3))
        assert q == f and r.is_zero

    def test_long_division(self):
        a, b = P([-1, 0, 1], 3), P([1, 1, 1], 3)
        q, r = divmod(a, b)
        assert q == FpPoly.one(3)
        assert r == P([1, 2], 3)
        assert b * q + r == a

    def test_zero_divisor(self):
        with pytest.raises(ValueError, match="zero divisor polynomial"):
            divmod(P([1], 3), FpPoly.zero(3))

    def test_remultiplication_random(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            a = P([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
            b = P([rng.randrange(p) for _ in range(rng.randint(1, 6))], p)
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert b * q + r == a
            assert r.degree < b.degree


class TestXgcd:
    def test_common_root(self):
        # gcd(x^2 - 1, x^2 + x + 1) = x + 2 over F_3 (both vanish at x = 1)
        a, b = P([-1, 0, 1], 3), P([1, 1, 1], 3)
        g, s, t = poly_xgcd(a, b)
        assert g == P([2, 1], 3)
        assert s * a + t * b == g
        assert (a % g).is_zero and (b % g).is_zero

    def test_gcd_with_zero(self):
        f = P([2, 2], 3)
        g, s, t = poly_xgcd(f, FpPoly.zero(3))
        assert g == f.monic()
        assert s * f + t * FpPoly.zero(3) == g

    def test_coprime_factors(self):
        g, _, _ = poly_xgcd(P([2, 1], 3), P([1, 1, 1, 1, 1], 3))
        assert g == FpPoly.one(3)

    def test_both_zero(self):
        with pytest.raises(ValueError):
            poly_xgcd(FpPoly.zero(3), FpPoly.zero(3))

    def test_bezout_random(self):
        rng = random.Random(5)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            a = P([rng.randrange(p) for _ in range(rng.randint(0, 6))], p)
            b = P([rng.randrange(p) for _ in range(rng.randint(0, 6))], p)
            if a.is_zero and b.is_zero:
                continue
            g, s, t = poly_xgcd(a, b)
            assert s * a + t * b == g
            assert g.lead == 1
            if not a.is_zero:
                assert (a % g).is_zero


class TestFactor:
    def test_p3_n5(self):
        facs = factor_xn_minus_1(PrimeParams(3, 1, 5))
        assert facs == [(P([2, 1], 3), 1), (P([1, 1, 1, 1, 1], 3), 1)]

    def test_p3_n9_frobenius(self):
        assert factor_xn_minus_1(PrimeParams(3, 1, 9)) == [(P([2, 1], 3), 9)]

    def test_p2_n3(self):
        facs = factor_xn_minus_1(PrimeParams(2, 1, 3))
        assert facs == [(P([1, 1], 2), 1), (P([1, 1, 1], 2), 1)]

    @pytest.mark.parametrize("p,n", [(2, 6), (2, 12), (3, 8), (3, 12), (5, 10), (7, 6), (2, 31)])
    def test_product_reconstruction(self, p, n):
        params = PrimeParams(p, 1, n)
        prod = FpPoly.one(p)
        for q, e in factor_xn_minus_1(params):
            prod = prod * q ** e
        assert prod == FpPoly.xn_minus_1(n, p)

    @pytest.mark.parametrize("p,n", [(2, 5), (2, 6), (3, 5), (3, 6), (5, 4), (5, 15)])
    def test_coprime_iff_squarefree(self, p, n):
        from math import gcd
        mults = [e for _, e in factor_xn_minus_1(PrimeParams(p, 1, n))]
        assert (gcd(n, p) == 1) == all(e == 1 for e in mults)

    @pytest.mark.parametrize("p,m", [(2, 3), (2, 7), (3, 4), (5, 3)])
    def test_frobenius_identity(self, p, m):
        small = factor_xn_minus_1(PrimeParams(p, 1, m))
        big = factor_xn_minus_1(PrimeParams(p, 1, p * m))
        assert big == [(q, p * e) for q, e in small]

    def test_sorted_by_degree_then_coeffs(self):
        facs = factor_xn_minus_1(PrimeParams(2, 1, 15))
        keys = [(q.degree, q.coeffs) for q, _ in facs]
        assert keys == sorted(keys)


def trial_division_factors(p, n):
    # reference: divide x^n - 1 by every monic candidate of each degree in turn
    f, out, d = FpPoly.xn_minus_1(n, p), [], 1
    while 2 * d <= f.degree:
        for tail in itertools.product(range(p), repeat=d):
            q, e = P(tail + (1,), p), 0
            while (f % q).is_zero:
                f, e = f // q, e + 1
            if e:
                out.append((q, e))
        d += 1
    if f.degree >= 1:
        out.append((f, 1))
    return sorted(out, key=lambda qe: (qe[0].degree, qe[0].coeffs))


def coset_sizes(p, m):
    # sizes of the orbits of c -> p*c on Z_m
    seen, sizes = set(), []
    for c in range(m):
        size = 0
        while c not in seen:
            seen.add(c)
            c, size = c * p % m, size + 1
        if size:
            sizes.append(size)
    return sorted(sizes)


class TestFactorEnvelope:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 251, 65521])
    def test_every_length(self, p):
        for n in range(1, 65):
            a, m = 0, n
            while m % p == 0:
                a, m = a + 1, m // p
            facs = factor_xn_minus_1(PrimeParams(p, 1, n))
            assert all(q.lead == 1 for q, _ in facs), n
            assert all(e == p ** a for _, e in facs), n
            assert sorted(q.degree for q, _ in facs) == coset_sizes(p, m), n
            keys = [(q.degree, q.coeffs) for q, _ in facs]
            assert keys == sorted(keys), n
            prod = FpPoly.one(p)
            for q, e in facs:
                prod = prod * q ** e
            assert prod == FpPoly.xn_minus_1(n, p), n

    # trial division needs 3^11, 5^8, 5^9 and 5^11 candidates at the points left out
    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in range(1, 25)
                                     if (p, n) not in {(3, 23), (5, 17), (5, 19), (5, 23)}])
    def test_matches_trial_division(self, p, n):
        facs = factor_xn_minus_1(PrimeParams(p, 1, n))
        ref = trial_division_factors(p, n)
        assert [(q.coeffs, e) for q, e in facs] == [(q.coeffs, e) for q, e in ref]

    # Phi_15 splits into two quartics over F_2; dropping one breaks the
    # product, merging them breaks the degree
    @pytest.mark.parametrize("flags", [[], ["-O"]])
    @pytest.mark.parametrize("patch,message", [
        ("fs[:-1]", "do not multiply"),
        ("[fs[0] * fs[1]] + fs[2:]", "does not have degree"),
    ])
    def test_bad_split_is_internal_error(self, flags, patch, message):
        script = ("import sys\n"
                  "from ucyclic import cli, gfp\n"
                  "split = gfp._equal_degree_split\n"
                  f"gfp._equal_degree_split = lambda *args: (lambda fs: {patch})(split(*args))\n"
                  "sys.exit(cli.main(['factor', '--p', '2', '--n', '15']))\n")
        src = str(Path(ucyclic.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("internal error:")
        assert message in proc.stderr

    def test_split_attempts_are_bounded(self, monkeypatch):
        # the element 0 never splits, so the attempt count must end the search
        class Zero(random.Random):
            def randrange(self, *args):
                return 0
        monkeypatch.setattr(gfp.random, "Random", Zero)
        with pytest.raises(InvariantError, match="attempts"):
            factor_xn_minus_1(PrimeParams(2, 1, 15))


class TestDivisors:
    def test_p3_n5(self):
        divs = divisors_xn_minus_1(PrimeParams(3, 1, 5))
        assert divs == [FpPoly.one(3), P([2, 1], 3), P([1, 1, 1, 1, 1], 3),
                        FpPoly.xn_minus_1(5, 3)]

    def test_p2_n1(self):
        assert divisors_xn_minus_1(PrimeParams(2, 1, 1)) == [FpPoly.one(2), P([1, 1], 2)]

    def test_p2_n4_chain(self):
        divs = divisors_xn_minus_1(PrimeParams(2, 1, 4))
        assert divs == [P([1, 1], 2) ** e for e in range(5)]

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 4)])
    def test_lattice_closed_under_gcd_lcm(self, p, n):
        divs = divisors_xn_minus_1(PrimeParams(p, 1, n))
        dset = set(divs)
        for a in divs:
            for b in divs:
                assert poly_gcd(a, b) in dset

    def test_cap(self):
        # 64 | 193 - 1, so x^64 - 1 splits into 64 linear factors: 2^64 divisors
        with pytest.raises(ValueError, match="too large"):
            divisors_xn_minus_1(PrimeParams(193, 1, 64))


# named cyclic codes: (p, n, generator coefficients lowest degree first, d)
NAMED = {
    # x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, the [23, 12, 7] Golay code
    "binary-golay": (2, 23, [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1], 7),
    # x^5 + x^4 - x^3 + x^2 - 1, the [11, 6, 5] Golay code
    "ternary-golay": (3, 11, [2, 0, 1, 2, 1, 1], 5),
    # x^8 + x^7 + x^6 + x^4 + 1, the [15, 7, 5] BCH code
    "bch-15-7": (2, 15, [1, 0, 0, 0, 1, 0, 1, 1, 1], 5),
}


class TestMinWeight:
    def test_g2_full_weight(self):
        assert fp_cyclic_min_weight(P([1, 1, 1, 1, 1], 3), PrimeParams(3, 1, 5)) == 5

    def test_unit_generator(self):
        assert fp_cyclic_min_weight(FpPoly.one(5), PrimeParams(5, 1, 4)) == 1

    def test_x_plus_1_pow4_n8(self):
        # (x+1)^4 = x^4 + 1 over F_2; m + x^4*m has weight 2*wt(m), so min is 2
        params = PrimeParams(2, 1, 8)
        gen = P([1, 1], 2) ** 4
        assert gen == P([1, 0, 0, 0, 1], 2)
        assert fp_cyclic_min_weight(gen, params) == 2
        assert brute_min_weight(gen, params) == 2

    @pytest.mark.parametrize("p,n,coeffs", [
        (3, 9, [2, 1]), (2, 7, [1, 1, 0, 1]), (3, 5, [2, 1]), (5, 4, [4, 1]),
        pytest.param(2, 23, NAMED["binary-golay"][2], id="binary-golay"),
        pytest.param(3, 11, NAMED["ternary-golay"][2], id="ternary-golay"),
        pytest.param(2, 15, NAMED["bch-15-7"][2], id="bch-15-7"),
    ])
    def test_against_independent_oracle(self, p, n, coeffs):
        params = PrimeParams(p, 1, n)
        gen = P(coeffs, p)
        assert (FpPoly.xn_minus_1(n, p) % gen).is_zero
        assert fp_cyclic_min_weight(gen, params) == brute_min_weight(gen, params)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_code_distance(self, name):
        p, n, coeffs, d = NAMED[name]
        assert fp_cyclic_min_weight(P(coeffs, p), PrimeParams(p, 1, n)) == d

    def test_every_divisor_against_generator_matrix(self):
        """The search against the exhaustive `linalg.min_nonzero_weight` on
        the rows x^j g, j < n - deg g, for every divisor g of x^n - 1 with at
        most 2^17 codewords, at fixed lengths and at seeded random ones.
        With dim = n - deg g, m = n // dim windows fit side by side and
        s = n % dim positions are left over; the cases named below are all hit."""
        rng = random.Random(23)
        lengths = [(2, 15), (2, 21), (2, 12), (2, 17), (3, 8), (3, 12), (3, 13),
                   (5, 6), (7, 8), (13, 7), (65521, 3)]
        lengths += [(p, rng.randrange(2, 25)) for p in (2, 2, 3, 5)]
        seen = set()
        for p, n in lengths:
            params = PrimeParams(p, 1, n)
            for g in divisors_xn_minus_1(params)[:-1]:
                dim = n - g.degree
                if p ** dim > 1 << 17:
                    continue
                rows = [[0] * j + list(g.coeffs) + [0] * (dim - 1 - j) for j in range(dim)]
                d = fp_cyclic_min_weight(g, params)
                assert d == linalg.min_nonzero_weight(rows, p), (p, n, g)
                m, s = divmod(n, dim)
                seen.update(case for case, hit in [
                    ("m=1", m == 1), ("m>=2,s=0", m >= 2 and s == 0),
                    ("m>=2,s>0", m >= 2 and s > 0), ("p|n", n % p == 0),
                    ("g=1", g.degree == 0), ("deg g=n-1", dim == 1),
                    ("p=65521,k=1", p == 65521 and dim == 1),
                    ("past info weight 1", (d - 1) * dim // n >= 2)] if hit)
        assert seen == {"m=1", "m>=2,s=0", "m>=2,s>0", "p|n", "g=1", "deg g=n-1",
                        "p=65521,k=1", "past info weight 1"}

    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_search_parts_in_small_batches(self, monkeypatch, p, block):
        """`_span`, `_lead_one` and `_lightest` against itertools references,
        with linalg.BLOCK shrunk so that every batch loop runs many times."""
        rng = np.random.default_rng(block)
        r, dtype = 6, np.min_scalar_type(2 * p - 2)
        rows = rng.integers(0, p, (5, r))
        packed = rows @ (1 << np.arange(r)) if p == 2 else rows
        packed = packed.astype(np.uint64 if p == 2 else dtype)

        def words_of(arr):  # one tuple of residues per word
            if p == 2:
                return [tuple(int(x) >> i & 1 for i in range(r)) for x in arr]
            return [tuple(int(v) for v in col) for col in arr.T]

        def combo(coefs):
            return tuple(int(v) for v in np.array(coefs) @ rows % p)

        monkeypatch.setattr(linalg, "BLOCK", block)
        spanned, info = gfp._span(packed[:3], p)
        every = {c: sum(map(bool, c)) for c in itertools.product(range(p), repeat=3)}
        assert sorted(zip(words_of(spanned), info.tolist())) == sorted(
            (combo(list(c) + [0, 0]), w) for c, w in every.items())
        assert info.tolist() == sorted(info.tolist())
        for w in range(4):
            got = [x for chunk in gfp._lead_one(packed, w, p) for x in words_of(chunk)]
            want = [combo(c) for c in itertools.product(range(p), repeat=5)
                    if sum(map(bool, c)) == w and (w == 0 or next(filter(None, c)) == 1)]
            assert sorted(got) == sorted(want)
            words = np.concatenate(list(gfp._lead_one(packed, w, p)), axis=-1)
            best = min(i + sum(x != y for x, y in zip(a, s))
                       for a in words_of(words) for s, i in zip(words_of(spanned), info.tolist()))
            assert gfp._lightest(words, spanned, info, p) == best

    @pytest.mark.parametrize("block", [1, 2, 7, 40])
    def test_small_batches(self, monkeypatch, block):
        """With linalg.BLOCK shrunk, the spanned half shrinks (to no rows at
        BLOCK < p) and every batch splits; the answers stay the same."""
        codes = [(P(c, p), PrimeParams(p, 1, n)) for p, n, c, _ in NAMED.values()]
        for p, n in [(2, 21), (3, 13), (5, 6), (7, 8)]:
            params = PrimeParams(p, 1, n)
            codes += [(g, params) for g in divisors_xn_minus_1(params)[:-1]]
        expected = [fp_cyclic_min_weight(g, params) for g, params in codes]
        monkeypatch.setattr(linalg, "BLOCK", block)
        assert [fp_cyclic_min_weight(g, params) for g, params in codes] == expected

    def test_zero_code(self):
        with pytest.raises(ValueError, match="zero code"):
            fp_cyclic_min_weight(FpPoly.xn_minus_1(5, 3), PrimeParams(3, 1, 5))
        with pytest.raises(ValueError, match="zero code"):
            fp_cyclic_min_weight(FpPoly.zero(3), PrimeParams(3, 1, 5))

    def test_non_divisor(self):
        with pytest.raises(ValueError, match="divide"):
            fp_cyclic_min_weight(P([1, 1], 3), PrimeParams(3, 1, 5))

    def test_budget(self):
        with pytest.raises(BudgetError) as exc:
            fp_cyclic_min_weight(P([2, 1], 3), PrimeParams(3, 1, 12), budget=100)
        assert exc.value.required == 3 ** 11


class TestPolyBasics:
    def test_degree_sentinel(self):
        z = FpPoly.zero(3)
        assert z.degree < -10 ** 9
        assert z.degree < FpPoly.one(3).degree

    def test_trailing_zeros_stripped(self):
        assert P([1, 2, 0, 0], 5).coeffs == (1, 2)
        assert P([0, 0], 5).is_zero

    def test_mod_xn_minus_1_folding(self):
        # x^5 = x at n = 4
        f = FpPoly.monomial(1, 5, 3).mod_xn_minus_1(4)
        assert f == P([0, 1], 3)

    def test_pow(self):
        assert P([2, 1], 3) ** 3 == P([2, 0, 0, 1], 3)  # (x-1)^3 = x^3 - 1 over F_3


# -- the lean layer against a slow reference ---------------------------------

LEAN_PS = [2, 3, 5, 7, 65521]


def slow_add(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = (out[i] + c) % p
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return out


def slow_sub(a, b, p):
    return slow_add(a, [(-c) % p for c in b], p)


def slow_mul(a, b, p):
    # every term reduced as it is added
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def slow_divmod(a, b, p):
    # textbook long division: lead^-1 by Fermat, every term reduced
    a, b = list(a), list(b)
    while b and b[-1] == 0:
        b.pop()
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - 1, len(b) - 2, -1):
        f = a[i] * inv % p
        q[i - len(b) + 1] = f
        for j, y in enumerate(b):
            a[i - len(b) + 1 + j] = (a[i - len(b) + 1 + j] - f * y) % p
    return q, a[:len(b) - 1]


def slow_mod_xn(a, n, p):
    out = [0] * n
    for i, c in enumerate(a):
        out[i % n] = (out[i % n] + c) % p
    return out


def random_digits(rng, p, length, top=None):
    # length digits in [0, p); the top one is `top` when given
    digits = [rng.randrange(p) for _ in range(length)]
    if length and top is not None:
        digits[-1] = top
    return digits


class TestLeanArithmetic:
    """`FpPoly` reduces each output digit once and builds results through the
    trusted constructor `FpPoly._of`; these compare it with references that
    reduce every term, up to degree 2n - 2 and p = 65521."""

    @pytest.mark.parametrize("p", LEAN_PS)
    def test_ring_operations_match_reference(self, p):
        rng = random.Random(1000 + p)
        for trial in range(60):
            n = 64 if trial < 4 else rng.randint(1, 64)
            la, lb = rng.randint(0, 2 * n - 1), rng.randint(0, 2 * n - 1)
            a = random_digits(rng, p, la, top=p - 1 if trial % 3 == 0 else None)
            b = random_digits(rng, p, lb)
            A, B = FpPoly(a, p), FpPoly(b, p)
            assert A + B == FpPoly(slow_add(a, b, p), p)
            assert A - B == FpPoly(slow_sub(a, b, p), p)
            assert -A == FpPoly(slow_sub([], a, p), p)
            assert A * B == FpPoly(slow_mul(a, b, p), p)
            c = rng.randrange(-2 * p, 2 * p)
            assert A * c == c * A == FpPoly(slow_mul(a, [c % p], p), p)
            assert A.mod_xn_minus_1(n) == FpPoly(slow_mod_xn(a, n, p), p)
            assert A.shift(3) == FpPoly([0, 0, 0] + a, p)

    @pytest.mark.parametrize("p", LEAN_PS)
    def test_divmod_matches_reference(self, p):
        # divisors of every degree, with leads other than 1 for p > 2
        rng = random.Random(2000 + p)
        for trial in range(60):
            n = rng.randint(1, 64)
            a = random_digits(rng, p, rng.randint(0, 2 * n - 1))
            b = random_digits(rng, p, rng.randint(1, n + 1), top=rng.randrange(1, p))
            q, r = divmod(FpPoly(a, p), FpPoly(b, p))
            sq, sr = slow_divmod(a, b, p)
            assert q == FpPoly(sq, p) and r == FpPoly(sr, p)
            assert FpPoly(a, p) // FpPoly(b, p) == q
            assert FpPoly(a, p) % FpPoly(b, p) == r
            assert r.degree < len(b) - 1
            assert FpPoly(b, p) * q + r == FpPoly(a, p)

    def test_divmod_by_a_non_monic_divisor(self):
        # x^2 + 2 = (3x + 1)(2x + 1) + 1 over F_5: the lead 2 needs its inverse 3
        q, r = divmod(FpPoly([2, 0, 1], 5), FpPoly([1, 2], 5))
        assert q == FpPoly([1, 3], 5) and r == FpPoly([1], 5)

    @pytest.mark.parametrize("p", LEAN_PS)
    def test_pow_and_monic_match_reference(self, p):
        rng = random.Random(3000 + p)
        for _ in range(20):
            a = random_digits(rng, p, rng.randint(1, 12), top=rng.randrange(1, p))
            e = rng.randint(0, 5)
            ref = [1]
            for _ in range(e):
                ref = slow_mul(ref, a, p)
            assert FpPoly(a, p) ** e == FpPoly(ref, p)
            inv = pow(a[-1], p - 2, p)
            assert FpPoly(a, p).monic() == FpPoly([c * inv for c in a], p)


class TestTrustedConstructor:
    """The public constructor normalises untrusted digits; its results equal
    and hash like those of the trusted `FpPoly._of`."""

    @pytest.mark.parametrize("p", LEAN_PS)
    def test_public_normalises_to_the_trusted_form(self, p):
        rng = random.Random(4000 + p)
        for _ in range(50):
            digits = random_digits(rng, p, rng.randint(0, 64))
            trusted = FpPoly._of(digits + [0] * rng.randint(0, 3), p)
            wild = [d + p * rng.randint(-3, 3) for d in digits] + [0, p, -2 * p]
            for coeffs in (wild, np.array(wild, dtype=np.int64), tuple(wild)):
                f = FpPoly(coeffs, p)
                assert f == trusted and hash(f) == hash(trusted)
                assert type(f.coeffs) is tuple
                assert all(type(c) is int and 0 <= c < p for c in f.coeffs)
                assert not f.coeffs or f.coeffs[-1] != 0

    def test_numpy_scalars_become_python_ints(self):
        f = FpPoly(np.array([7, -1, 0], dtype=np.int64), 5)
        assert f.coeffs == (2, 4) and all(type(c) is int for c in f.coeffs)
        assert hash(f) == hash(FpPoly._of([2, 4], 5))

    def test_trusted_strips_trailing_zeros(self):
        assert FpPoly._of([1, 0, 0], 3).coeffs == (1,)
        assert FpPoly._of((0, 0), 3).is_zero
        assert FpPoly._of([], 3) == FpPoly.zero(3)
        assert FpPoly._of((2, 1), 3) == FpPoly([-1, 1], 3)

    def test_constants(self):
        for p in LEAN_PS:
            assert FpPoly.xn_minus_1(5, p) == FpPoly([-1, 0, 0, 0, 0, 1], p)
            assert FpPoly.monomial(-1, 2, p) == FpPoly([0, 0, -1], p)
            assert FpPoly.monomial(p, 2, p).is_zero
            assert FpPoly.one(p) == FpPoly([1], p) and FpPoly.x(p) == FpPoly([0, 1], p)
