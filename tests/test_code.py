import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ucyclic
from ucyclic import linalg, structure
from ucyclic.chainring import RkElem, RkPoly
from ucyclic.cli import main
from ucyclic.code import (CyclicCode, code_from_generators, code_from_json,
                          code_from_json_dict, code_to_json)
from ucyclic.gfp import BudgetError, FpPoly, PrimeParams, factor_xn_minus_1
from ucyclic.linalg import InvariantError
from ucyclic.properties import (chain_code, eliminated_code, random_chain, random_code,
                                random_params)
from ucyclic.structure import enumerate_coprime

from test_structure import edge_code, mixed_tower_code

P345 = PrimeParams(3, 4, 5)
G1 = FpPoly([2, 1], 3)
G2 = FpPoly([1, 1, 1, 1, 1], 3)


def gen(poly, params, level=0):
    return RkPoly.from_fp(poly, params, level=level)


def all_ring_polys(params):
    """Every element of R_k[x]/(x^n - 1); only for tiny parameter sets."""
    k, n, p = params.k, params.n, params.p
    for vec in itertools.product(range(p), repeat=k * n):
        yield RkPoly.from_vector(list(vec), params)


def brute_min_weight(code):
    # independent oracle: enumerate all F_p combinations of footprint rows
    p, k, n = code.params.p, code.params.k, code.params.n
    rows = code.footprint.tolist()
    best = None
    for combo in itertools.product(range(p), repeat=len(rows)):
        if not any(combo):
            continue
        vec = [sum(c * row[i] for c, row in zip(combo, rows)) % p
               for i in range(k * n)]
        w = sum(1 for i in range(n) if any(vec[i * k + j] for j in range(k)))
        if best is None or w < best:
            best = w
    return best


def equation_dual(code):
    """The dual the long way (reference only): v is orthogonal to the code iff
    all k u-layers of v . f vanish for every footprint row f, one F_p-linear
    equation per row and layer."""
    p, k, n = code.params.p, code.params.k, code.params.n
    eqs = np.zeros((code.dim * k, k * n), dtype=np.int64)
    for ridx in range(code.dim):
        f = code.footprint[ridx].reshape(n, k)
        for l in range(k):
            eq = np.zeros((n, k), dtype=np.int64)
            for a in range(l + 1):
                eq[:, a] = f[:, l - a]
            eqs[ridx * k + l] = eq.reshape(-1)
    return CyclicCode.from_rows(code.params, linalg.nullspace(*linalg.rref(eqs, p), p))


def random_subcode(rng, pp):
    """A code with 1-2 generators of random u-valuation, each a random
    multiple of 1 or of x^d - 1 for a divisor d of n, so dimensions spread
    from the zero code to the whole ring."""
    gens = []
    for _ in range(rng.randint(1, 2)):
        val = rng.randrange(pp.k)
        layers = [[0] * pp.n] * val + [[rng.randrange(pp.p) for _ in range(pp.n)]
                                       for _ in range(pp.k - val)]
        d = rng.choice([d for d in range(pp.n + 1) if d == 0 or pp.n % d == 0])
        factor = FpPoly.one(pp.p) if d == 0 else FpPoly.xn_minus_1(d, pp.p)
        gens.append(RkPoly(layers, pp) * gen(factor, pp))
    return code_from_generators(pp, gens)


def rk_inner(v, c):
    """R_k-valued Euclidean inner product, by ring arithmetic."""
    acc = RkElem.zero(v.params)
    for i in range(v.params.n):
        acc = acc + v.coefficient(i) * c.coefficient(i)
    return acc


class TestConstruction:
    def test_whole_ring(self):
        code = code_from_generators(P345, [RkPoly.one(P345)])
        assert code.dim == P345.k * P345.n

    def test_top_layer_only(self):
        code = code_from_generators(P345, [gen(FpPoly.one(3), P345, level=3)])
        assert code.dim == P345.n

    def test_free_k2(self):
        pp = PrimeParams(2, 2, 4)
        g = RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp)
        code = code_from_generators(pp, [g])
        assert code.dim == 4  # |C| = 16 = p^(2n-2r) with n=4, r=2

    def test_param_mismatch(self):
        other = PrimeParams(3, 2, 5)
        with pytest.raises(ValueError, match="mismatch"):
            code_from_generators(P345, [RkPoly.one(other)])

    def test_empty_generators_zero_code(self):
        code = code_from_generators(P345, [])
        assert code.dim == 0 and code.is_zero

    def test_footprint_closure_explicit(self):
        code = code_from_generators(P345, [gen(G1, P345)])
        x = RkPoly.from_fp(FpPoly.x(3), P345)
        u = gen(FpPoly.one(3), P345, level=1)
        for row in code.footprint:
            w = RkPoly.from_vector(row.tolist(), P345)
            assert code.contains(w.mul_mod(x))
            assert code.contains(w.mul_mod(u))


class TestInvariants:
    def test_not_closed_under_shift(self):
        with pytest.raises(InvariantError, match="cyclic shift"):
            CyclicCode.from_rows(PrimeParams(2, 1, 3), [[1, 0, 0]])

    def test_not_closed_under_u(self):
        with pytest.raises(InvariantError, match="u-multiplication"):
            CyclicCode.from_rows(PrimeParams(2, 2, 1), [[1, 0]])

    def test_tower_of_bare_subspace(self):
        # the span of 1 alone is no ideal: Tor_0 would be <1>, of dimension 3
        bare = CyclicCode(PrimeParams(2, 1, 3), (), np.array([[1, 0, 0]]), [0])
        with pytest.raises(InvariantError, match="dimension"):
            bare.torsion_tower()

    def test_survives_optimize_flag(self):
        # an ideal that is not closed, and the tower of a bare subspace (the
        # tower checks are the hypotheses the canonical form's theorem needs)
        script = ("import numpy as np\n"
                  "from ucyclic.code import CyclicCode\n"
                  "from ucyclic.gfp import PrimeParams\n"
                  "from ucyclic.linalg import InvariantError\n"
                  "try:\n"
                  "    CyclicCode.from_rows(PrimeParams(2, 1, 3), [[1, 0, 0]])\n"
                  "except InvariantError:\n"
                  "    print('raised')\n"
                  "bare = CyclicCode(PrimeParams(2, 1, 3), (), np.array([[1, 0, 0]]), [0])\n"
                  "try:\n"
                  "    bare.torsion_tower()\n"
                  "except InvariantError:\n"
                  "    print('raised')\n")
        src = str(Path(ucyclic.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["raised", "raised"]


class TestCanonicalFormTheorem:
    """The four conditions that the footprint's column order proves for every
    lifted generator G_i (`structure.canonical_form`), checked directly."""

    @staticmethod
    def _assert_conditions(code):
        cf = structure.canonical_form(code)
        gens = cf.tower.gens
        for i in cf.present_levels:
            w = cf.lifted[i]
            assert w.u_valuation() == i
            assert w.ulayers[i] == gens[i]
            assert all(w.ulayers[j].degree < gens[j].degree
                       for j in range(i + 1, code.params.k))
            assert code.contains(w)

    def test_random_codes_across_the_envelope(self):
        rng = random.Random(53)
        for _ in range(120):
            pp = PrimeParams(rng.choice([2, 3, 5, 7, 65521]), rng.randint(1, 8),
                             rng.randint(1, 64))
            self._assert_conditions(mixed_tower_code(pp, random_chain(rng, pp), rng))

    @pytest.mark.parametrize("n", [64, 63])
    def test_envelope_edge(self, n):
        self._assert_conditions(edge_code(n, seed=5))


class TestContains:
    def test_shift_closure(self):
        code = code_from_generators(P345, [gen(G1, P345)])
        assert code.contains(gen(G1, P345).shift_x(3).mod_xn())

    def test_u_closure(self):
        code = code_from_generators(P345, [gen(G1, P345)])
        assert code.contains(gen(G1, P345, level=1))

    def test_unit_not_in_u(self):
        code = code_from_generators(P345, [gen(FpPoly.one(3), P345, level=1)])
        assert not code.contains(RkPoly.one(P345))


class TestTorsionTower:
    def test_g1_and_u(self):
        code = code_from_generators(P345, [gen(G1, P345), gen(FpPoly.one(3), P345, 1)])
        assert code.torsion_tower().gens == (G1, FpPoly.one(3), FpPoly.one(3), FpPoly.one(3))

    def test_u_squared_only(self):
        pp = PrimeParams(3, 3, 5)
        code = code_from_generators(pp, [gen(FpPoly.one(3), pp, level=2)])
        xn1 = FpPoly.xn_minus_1(5, 3)
        assert code.torsion_tower().gens == (xn1, xn1, FpPoly.one(3))

    def test_coprime_chain_recovered(self):
        chain = [G1 * G2, G1, G1, FpPoly.one(3)]
        gens = [gen(g, P345, level=i) for i, g in enumerate(chain) if g.degree < 5]
        code = code_from_generators(P345, gens)
        assert code.torsion_tower().gens == tuple(g.monic() for g in chain)

    def test_zero_code_convention(self):
        code = code_from_generators(P345, [])
        xn1 = FpPoly.xn_minus_1(5, 3)
        assert code.torsion_tower().gens == (xn1,) * 4

    def test_dim_matches_degrees(self):
        rng = random.Random(7)
        for _ in range(50):
            pp = PrimeParams(rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 6))
            layers = [[rng.randrange(pp.p) for _ in range(pp.n)] for _ in range(pp.k)]
            code = code_from_generators(pp, [RkPoly(layers, pp)])
            tower = code.torsion_tower()
            assert code.dim == tower.dim == sum(pp.n - g.degree for g in tower.gens)


def two_step_footprint(code):
    """The footprint derived in two echelon forms (reference only): the RREF in
    natural column order, then its RREF with the columns ordered layer-major,
    highest degree first.  Returns the second form in the i*k + j layout, its
    pivots as natural columns and, per level i, its last row pivoting in layer
    i (None when there is none)."""
    p, k, n = code.params.p, code.params.k, code.params.n
    R, _ = linalg.rref(code.footprint, p)
    order = [i * k + j for j in range(k) for i in reversed(range(n))]
    E, piv = linalg.rref(R[:, order], p)
    F = np.empty_like(E)
    F[:, order] = E
    last = {c // n: r for r, c in enumerate(piv)}
    levels = tuple(RkPoly.from_vector(F[last[i]].tolist(), code.params) if i in last
                   else None for i in range(k))
    return F, [order[c] for c in piv], levels


class TestSingleEchelon:
    def _assert_matches_two_step(self, code):
        F, piv, levels = two_step_footprint(code)
        assert np.array_equal(code.footprint, F)
        assert code.pivots == piv
        assert code.level_generators() == levels

    def test_random_codes_match_two_step_derivation(self):
        rng = random.Random(41)
        for _ in range(60):
            pp = PrimeParams(rng.choice([2, 3, 5, 7]), rng.randint(1, 6), rng.randint(1, 16))
            code = random_subcode(rng, pp)
            self._assert_matches_two_step(CyclicCode.from_rows(pp, code.footprint[::-1]))
            self._assert_matches_two_step(code)

    @pytest.mark.parametrize("n", [64, 63])
    def test_envelope_edge_matches_two_step_derivation(self, n):
        self._assert_matches_two_step(edge_code(n, seed=5))

    @staticmethod
    def _count_rref(monkeypatch):
        calls = []
        real = linalg.rref

        def counting(mat, p):
            calls.append(np.shape(mat))
            return real(mat, p)
        monkeypatch.setattr(linalg, "rref", counting)
        return calls

    @staticmethod
    def _count_echelon(monkeypatch):
        calls = []
        real = ucyclic.code._echelon

        def counting(params, rows):
            calls.append(len(rows))
            return real(params, rows)
        monkeypatch.setattr(ucyclic.code, "_echelon", counting)
        return calls

    @pytest.mark.parametrize("run, count", [
        (lambda: edge_code(64, seed=5), 0),
        (lambda: ucyclic.code._eliminate(PrimeParams(3, 8, 64),
                                         list(edge_code(64, seed=5).generators)), 6),
        (lambda: main(["analyze", "--p", "3", "--k", "2", "--n", "6", "--gen", "x+2; 1"]), 1)],
        ids=["edge-code-64", "edge-code-64-eliminated", "analyze"])
    def test_every_rref_is_an_echelon_form(self, monkeypatch, capsys, run, count):
        # the doubling loop reduces its stack in the footprint's column order
        # too: eliminating the edge code (kn = 512) reduces its stack once and
        # the remainder of each of the five steps that add pivots; the analyzed
        # code (p | n, kn = 12) doubles unreduced up to one elimination.  The
        # coprime edge code is written down from its tower with none.
        rrefs, echelons = self._count_rref(monkeypatch), self._count_echelon(monkeypatch)
        run()
        assert len(echelons) == count
        assert len(rrefs) == len(echelons)

    def test_no_echelon_form_is_reduced_again(self, monkeypatch):
        # n >= 2: at n = 1 the stack is never doubled, and its one elimination
        # may meet rows that already are an echelon form (the generator 1, say)
        already = []
        real = linalg.rref

        def checking(mat, p):
            R, pivots = real(mat, p)
            already.append(np.array_equal(R, np.asarray(mat) % p))
            return R, pivots
        monkeypatch.setattr(linalg, "rref", checking)
        rng = random.Random(47)
        for _ in range(50):
            random_subcode(rng, PrimeParams(rng.choice([2, 3, 5, 7]), rng.randint(1, 6),
                                            rng.randint(2, 16)))
        edge_code(64, seed=5)
        edge_code(63, seed=5)
        assert already and not any(already)

    def test_one_rref_per_code_through_every_structure_read(self, monkeypatch):
        rng = random.Random(43)
        for pp in [PrimeParams(2, 3, 7), P345, PrimeParams(5, 2, 4), PrimeParams(7, 3, 8),
                   PrimeParams(2, 1, 1)]:
            rows = random_subcode(rng, pp).footprint
            if len(rows) == 0:
                rows = [RkPoly.one(pp).to_vector()]
            calls = self._count_rref(monkeypatch)
            code = CyclicCode.from_rows(pp, rows)
            code.torsion_tower()
            structure.canonical_form(code)
            structure.rank(code)
            structure.minimal_spanning_set(code)
            structure.collapse_coprime(code)
            code.level_generators()
            assert len(calls) == 1
            monkeypatch.undo()

    def test_enumeration_builds_no_code(self, monkeypatch):
        # every field enumerate prints is read off the chain: no RREF, no code
        calls = self._count_rref(monkeypatch)
        built = []
        real_from_rows = CyclicCode.from_rows.__func__

        def counting_from_rows(cls, params, rows, generators=()):
            built.append(params)
            return real_from_rows(cls, params, rows, generators)
        monkeypatch.setattr(CyclicCode, "from_rows", classmethod(counting_from_rows))
        towers = enumerate_coprime(P345)
        assert len(towers) == 25
        assert calls == [] and built == []
        fields = [(t.generator, t.rank, t.dim) for t in towers]
        assert len(set(fields)) == 25
        assert calls == [] and built == []


class TestEquality:
    def test_alias_generators(self):
        # <g1, u*g2> = <g1, u> since gcd(g1, g2) = 1
        a = code_from_generators(P345, [gen(G1, P345), gen(G2, P345, 1)])
        b = code_from_generators(P345, [gen(G1, P345), gen(FpPoly.one(3), P345, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_codes_differ(self):
        a = code_from_generators(P345, [gen(G1, P345)])
        b = code_from_generators(P345, [gen(G2, P345)])
        assert a != b


class TestDual:
    def test_u_code_self_dual(self):
        pp = PrimeParams(2, 2, 2)
        code = code_from_generators(pp, [gen(FpPoly.one(2), pp, level=1)])
        dual = code.dual()
        assert dual == code
        assert code.is_self_dual()
        assert code.dim + dual.dim == pp.k * pp.n
        # independent 16-element orthogonality oracle
        members = []
        for w in all_ring_polys(pp):
            ok = True
            for c in all_ring_polys(pp):
                if not code.contains(c):
                    continue
                if not rk_inner(w, c).is_zero:
                    ok = False
                    break
            if ok:
                members.append(w)
        assert len(members) == 2 ** dual.dim
        for w in members:
            assert dual.contains(w)

    def test_whole_ring_dual_is_zero(self):
        code = code_from_generators(P345, [RkPoly.one(P345)])
        assert code.dual().is_zero

    def test_zero_dual_is_whole_ring(self):
        code = code_from_generators(P345, [])
        assert code.dual().dim == P345.k * P345.n

    def test_invariants_random(self):
        rng = random.Random(19)
        for _ in range(40):
            pp = PrimeParams(rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 5))
            layers = [[rng.randrange(pp.p) for _ in range(pp.n)] for _ in range(pp.k)]
            code = code_from_generators(pp, [RkPoly(layers, pp)])
            dual = code.dual()
            assert code.dim + dual.dim == pp.k * pp.n
            assert dual.dual() == code

    def test_matches_equation_system(self):
        rng = random.Random(31)
        dims = set()
        for _ in range(60):
            pp = PrimeParams(rng.choice([2, 3, 5, 7]), rng.randint(1, 6), rng.randint(1, 16))
            code = random_subcode(rng, pp)
            dims.add((code.dim > 0, code.dim < pp.k * pp.n))
            assert code.dual() == equation_dual(code)
        assert dims == {(True, True), (False, True), (True, False)}

    def test_matches_equation_system_at_envelope_edge(self):
        code = edge_code(64, seed=5)
        assert 0 < code.dim < 8 * 64
        assert code.dual() == equation_dual(code)

    def test_footprint_rows_orthogonal_in_every_layer(self):
        rng = random.Random(37)
        for _ in range(12):
            pp = PrimeParams(rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 5))
            code = random_subcode(rng, pp)
            dual = code.dual()
            for v in dual.footprint.tolist():
                for c in code.footprint.tolist():
                    prod = rk_inner(RkPoly.from_vector(v, pp), RkPoly.from_vector(c, pp))
                    assert prod.is_zero

    def test_self_dual_by_theorem_matches_dual_random(self):
        rng = random.Random(7)
        verdicts = []
        for _ in range(400):
            code = random_code(rng, random_params(rng, ps=(2, 3, 5), kmax=4, nmax=12))
            assert code.is_self_dual() == (code.dual() == code), code.to_json_dict()
            verdicts.append(code.is_self_dual())
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("p,k,n", [(2, 2, 7), (5, 2, 4), (3, 2, 8)])
    def test_self_dual_by_theorem_matches_dual_enumerated(self, p, k, n):
        self_dual = 0
        params = PrimeParams(p, k, n)
        for tower in enumerate_coprime(params):
            code = chain_code(params, tower.gens)
            assert code.is_self_dual() == (code.dual() == code)
            self_dual += code.is_self_dual()
        assert self_dual == 3

    def test_dual_runs_one_elimination(self, monkeypatch):
        # the nullspace is read off the footprint; only the dual's own
        # footprint is eliminated, and the zero dual of the whole space not at all
        rng = random.Random(53)
        codes = [random_subcode(rng, PrimeParams(rng.choice([2, 3, 5]), rng.randint(1, 4),
                                                 rng.randint(1, 8))) for _ in range(10)]
        whole = code_from_generators(P345, [RkPoly.one(P345)])
        for code in codes + [edge_code(64, seed=5), whole]:
            calls = TestSingleEchelon._count_rref(monkeypatch)
            dual = code.dual()
            assert len(calls) == (1 if dual.dim else 0)
            monkeypatch.undo()
        assert whole.dual().is_zero

    def test_nullspace_of_layer_ordered_footprint(self):
        # the footprint's pivots are not ascending, but its pivot columns are
        # unit vectors, which is all the nullspace reads
        rng = random.Random(59)
        codes = [random_subcode(rng, PrimeParams(rng.choice([2, 3, 5, 7]), rng.randint(1, 6),
                                                 rng.randint(1, 16))) for _ in range(40)]
        codes.append(edge_code(64, seed=5))
        for code in codes:
            p, kn = code.params.p, code.params.k * code.params.n
            N = linalg.nullspace(code.footprint, code.pivots, p)
            assert N.shape == (kn - code.dim, kn)
            assert not (code.footprint @ N.T % p).any()
            assert len(linalg.rref(N, p)[1]) == len(N)
        assert any(code.pivots != sorted(code.pivots) for code in codes)

    def test_row_built_code_has_no_generators(self):
        dual = code_from_generators(P345, [gen(G1, P345)]).dual()
        assert dual.generators == ()

    def test_json_round_trip(self):
        rng = random.Random(41)
        for _ in range(10):
            pp = PrimeParams(rng.choice([2, 3, 5]), rng.randint(1, 4), rng.randint(1, 8))
            dual = random_subcode(rng, pp).dual()
            assert code_from_json(code_to_json(dual)) == dual


def every_step_footprint(params, gens):
    """The footprint built with every doubling step, none skipped (reference
    only): the u-multiples of the generators eliminated once, then each of
    the ceil(log2 n) steps inserting the rotated echelon form."""
    k, n = params.k, params.n
    E, piv = ucyclic.code._echelon(params, ucyclic.code._u_multiples(
        np.array([g.mod_xn().to_vector() for g in gens], dtype=np.int64), n, k))
    m = 1
    while m < n:
        E, piv = ucyclic.code._extend(params, E, piv, ucyclic.code._shift_x(E, k, m))
        m *= 2
    return E, piv


class TestExtend:
    @staticmethod
    def _check(params, E, piv, X):
        F, fpiv = ucyclic.code._extend(params, E, piv, X)
        F0, fpiv0 = ucyclic.code._echelon(params, np.concatenate([E, X]))
        assert fpiv == fpiv0
        assert np.array_equal(F, F0)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
    def test_matches_echelon_of_the_stack(self, p):
        # X mixes combinations of E's rows (their remainder is zero) with rows
        # of a random low-rank space, so remainders of every rank occur
        rng = np.random.default_rng(p)
        for trial in range(12):
            k, n = int(rng.integers(1, 9)), 64 if trial < 2 else int(rng.integers(1, 65))
            params, kn = PrimeParams(p, k, n), k * n
            stack = rng.integers(0, p, (rng.integers(min(kn, 60) + 1), kn))
            E, piv = ucyclic.code._echelon(params, stack)
            rows, new = rng.integers(1, 41), rng.integers(0, p, (rng.integers(5), kn))
            X = rng.integers(0, p, (rows, len(E))) @ E + rng.integers(0, p, (rows, len(new))) @ new
            self._check(params, E, piv, X % p)

    def test_at_the_float64_bound(self):
        # p = 65521 at kn = 512, rows with every entry p - 1: the reducing
        # product sums hundreds of terms near 2^32
        p, rng = 65521, np.random.default_rng(61)
        params = PrimeParams(p, 8, 64)
        E, piv = ucyclic.code._echelon(params, rng.integers(0, p, (300, 512)))
        full = np.full((3, 512), p - 1, dtype=np.int64)
        self._check(params, E, piv, full)
        F, fpiv = ucyclic.code._echelon(params, full)
        self._check(params, F, fpiv, full)
        self._check(params, F, fpiv, (p - 1) * rng.integers(0, 2, (200, 512)))


class TestDoublingStops:
    @staticmethod
    def _count_extend(monkeypatch):
        calls = []
        real = ucyclic.code._extend

        def counting(params, E, piv, X):
            calls.append(len(piv))
            return real(params, E, piv, X)
        monkeypatch.setattr(ucyclic.code, "_extend", counting)
        return calls

    def test_first_step_adding_nothing_ends_the_loop(self, monkeypatch):
        # x (1 + x + ... + x^(n-1)) is that same polynomial, so the u-multiples
        # of the generator already span the code and the first step adds nothing
        pp = PrimeParams(5, 4, 32)
        assert pp.k * pp.n > ucyclic.code.DEFER_WIDTH  # the stack is eliminated at once
        g = gen(FpPoly([1] * pp.n, 5), pp)
        calls = self._count_extend(monkeypatch)
        E, epiv = ucyclic.code._eliminate(pp, [g])
        assert calls == [pp.k]
        monkeypatch.undo()
        F, piv = every_step_footprint(pp, [g])
        assert np.array_equal(E, F) and epiv == piv

    def test_stops_after_the_first_step_adding_nothing(self, monkeypatch):
        # every step but the last grows the echelon form, and the last adds
        # nothing unless it is the last of the schedule: with the stack
        # eliminated at once (kn > DEFER_WIDTH), m = 1, 2, 4, ... while m < n
        rng = random.Random(71)
        for _ in range(30):
            pp = PrimeParams(rng.choice([2, 3, 5, 7]), rng.randint(3, 8), rng.randint(9, 64))
            gens = list(random_subcode(rng, pp).generators)
            calls = self._count_extend(monkeypatch)
            E, epiv = ucyclic.code._eliminate(pp, gens)
            monkeypatch.undo()
            steps = calls + [len(epiv)]
            assert all(a < b for a, b in zip(steps[:-2], steps[1:-1]))
            if pp.k * pp.n > ucyclic.code.DEFER_WIDTH:
                assert len(calls) == (pp.n - 1).bit_length() or steps[-2] == steps[-1]
            F, piv = every_step_footprint(pp, gens)
            assert np.array_equal(E, F) and epiv == piv



def random_divisor(rng, pp):
    """A random monic divisor of x^n - 1: each irreducible factor to a random power."""
    g = FpPoly.one(pp.p)
    for q, e in factor_xn_minus_1(pp):
        g = g * q ** rng.randint(0, e)
    return g


def random_layered_generators(rng, pp):
    """0-3 generators whose layers are each zero, 1, random, or (mostly) a
    random multiple of a random divisor of x^n - 1, so the gcd chain skips
    zero layers, reaches 1, and meets factors that only some layers share."""
    p, n = pp.p, pp.n
    gens = []
    for _ in range(rng.choice([0, 1, 1, 1, 2, 2, 3])):
        layers = []
        for _ in range(pp.k):
            kind = rng.randrange(10)
            if kind < 3:
                layers.append(FpPoly.zero(p))
            elif kind == 3:
                layers.append(FpPoly.one(p))
            elif kind == 4:
                layers.append(FpPoly([rng.randrange(p) for _ in range(n)], p))
            else:
                cofactor = FpPoly([rng.randrange(p) for _ in range(3)], p)
                layers.append((random_divisor(rng, pp) * cofactor).mod_xn_minus_1(n))
        gens.append(RkPoly(layers, pp))
    return gens


class TestTabulate:
    """When gcd(n, p) = 1, `code_from_generators` writes the footprint down
    from the gcd tower (`code._tabulate`); `code._eliminate` is the reference."""

    @staticmethod
    def _check(pp, gens):
        code = code_from_generators(pp, gens)
        E, piv = ucyclic.code._eliminate(pp, list(code.generators))
        assert code.pivots == piv, (pp, [g.to_vector() for g in gens])
        assert np.array_equal(code.footprint, E), (pp, [g.to_vector() for g in gens])
        return code

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
    def test_matches_elimination(self, p):
        rng = random.Random(p)
        lengths = [n for n in range(1, 65) if n % p]
        for trial in range(40):
            n = 64 if p == 3 and trial < 2 else rng.choice(lengths[:12] if trial % 2 else lengths)
            pp = PrimeParams(p, 8 if n == 64 and p == 3 else rng.randint(1, 8), n)
            self._check(pp, random_layered_generators(rng, pp))

    @pytest.mark.parametrize("pp", [PrimeParams(2, 3, 1), PrimeParams(3, 8, 64),
                                    PrimeParams(65521, 2, 5)], ids=str)
    def test_no_generators_and_the_generator_one(self, pp):
        assert self._check(pp, []).dim == 0
        zero = RkPoly.zero(pp)
        assert self._check(pp, [zero, zero]).dim == 0
        # g = 1 at every level: one remainder table, of degree 0, in every layer
        whole = self._check(pp, [RkPoly.one(pp)])
        assert whole.dim == pp.k * pp.n
        assert whole.torsion_tower().degrees == (0,) * pp.k
        assert self._check(pp, [gen(FpPoly.one(pp.p), pp, level=pp.k - 1)]).dim == pp.n

    def test_layers_sharing_a_factor_only_at_higher_levels(self):
        # x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1) over F_2.  Layer 1 alone
        # has gcd (x + 1)(x^3 + x^2 + 1) with x^7 - 1; with layer 0 it is x + 1
        pp = PrimeParams(2, 4, 7)
        a, b, c = FpPoly([1, 1], 2), FpPoly([1, 1, 0, 1], 2), FpPoly([1, 0, 1, 1], 2)
        code = self._check(pp, [RkPoly([a * b, a * c, FpPoly.zero(2), c], pp)])
        assert code.torsion_tower().gens == (a * b, a, a, FpPoly.one(2))
        # two generators whose layer-0 gcd is larger than either layer 1
        code = self._check(pp, [RkPoly([a * b * c, b], pp), RkPoly([a * b, c], pp)])
        assert code.torsion_tower().gens == (a * b, FpPoly.one(2), FpPoly.one(2),
                                             FpPoly.one(2))

    def test_makes_no_rref_call(self, monkeypatch):
        def refuse(mat, p):
            raise AssertionError("rref called on a coprime construction")
        monkeypatch.setattr(linalg, "rref", refuse)
        rng = random.Random(83)
        codes = [edge_code(64, seed=5)]
        for p in [2, 3, 5, 7, 65521]:
            pp = PrimeParams(p, rng.randint(1, 8), rng.choice([n for n in range(1, 65) if n % p]))
            codes.append(code_from_generators(pp, random_layered_generators(rng, pp)))
        for code in codes:
            code.torsion_tower()
            code.level_generators()

class TestMinDistance:
    def test_unit_code(self):
        pp = PrimeParams(3, 2, 4)
        code = code_from_generators(pp, [RkPoly.one(pp)])
        assert code.min_distance_bruteforce() == 1

    def test_two_full_weight_words(self):
        code = code_from_generators(P345, [gen(G2, P345, level=3)])
        assert code.dim == 1
        assert code.min_distance_bruteforce() == 5

    def test_repeated_root_weight_two(self):
        pp = PrimeParams(3, 2, 9)
        g = FpPoly([2, 1], 3) ** 2
        code = code_from_generators(pp, [gen(g, pp, level=1)])
        assert code.min_distance_bruteforce() == 2

    def test_torsion_shortcut_g1(self):
        code = code_from_generators(P345, [gen(G1, P345)])
        assert code.min_distance() == 2

    def test_top_layer_weight_one(self):
        code = code_from_generators(P345, [gen(FpPoly.one(3), P345, level=3)])
        assert code.min_distance() == 1

    def test_lifted_power_of_x_minus_1(self):
        # the closed-form law claims 4 here; the exhaustive oracle gives 3
        # ((x-1)^6 = (x^3-1)^2 has weight 3), and the torsion shortcut must agree
        pp = PrimeParams(3, 2, 9)
        code = code_from_generators(pp, [gen(FpPoly([2, 1], 3) ** 4, pp)])
        assert code.min_distance() == 3
        assert code.min_distance_bruteforce() == 3

    def test_zero_code_errors(self):
        code = code_from_generators(P345, [])
        with pytest.raises(ValueError, match="zero code"):
            code.min_distance()
        with pytest.raises(ValueError, match="zero code"):
            code.min_distance_bruteforce()

    def test_budget_error_names_requirement(self):
        code = code_from_generators(P345, [RkPoly.one(P345)])
        with pytest.raises(BudgetError) as exc:
            code.min_distance_bruteforce(budget=10)
        assert exc.value.required == 3 ** 20

    def test_matches_independent_oracle(self):
        rng = random.Random(29)
        done = 0
        while done < 25:
            pp = PrimeParams(rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 4))
            layers = [[rng.randrange(pp.p) for _ in range(pp.n)] for _ in range(pp.k)]
            code = code_from_generators(pp, [RkPoly(layers, pp)])
            if code.dim == 0 or code.dim > 8:
                continue
            done += 1
            expected = brute_min_weight(code)
            assert code.min_distance_bruteforce() == expected
            assert code.min_distance() == expected


class TestJson:
    def test_round_trip(self):
        code = code_from_generators(P345, [gen(G1, P345), gen(FpPoly.one(3), P345, 1)])
        again = code_from_json(code_to_json(code))
        assert again == code

    def test_canonical_bytes_stable(self):
        code = code_from_generators(P345, [gen(G2, P345)])
        assert code_to_json(code) == code_to_json(code)

    def test_document_shape(self):
        pp = PrimeParams(2, 2, 3)
        code = code_from_generators(pp, [gen(FpPoly([1, 1], 2), pp)])
        doc = code.to_json_dict()
        assert list(doc) == ["p", "k", "n", "generators"]
        assert doc["generators"] == [[[1, 0], [1, 0], [0, 0]]]

    def test_reject_extra_fields(self):
        doc = {"p": 3, "k": 2, "n": 2, "generators": [], "note": "hi"}
        with pytest.raises(ValueError, match="exactly"):
            code_from_json_dict(doc)

    def test_reject_missing_fields(self):
        with pytest.raises(ValueError, match="exactly"):
            code_from_json_dict({"p": 3, "k": 2, "n": 2})

    def test_reject_degree_overflow(self):
        doc = {"p": 2, "k": 1, "n": 2, "generators": [[[1], [0], [1]]]}
        with pytest.raises(ValueError, match="reduce"):
            code_from_json_dict(doc)

    def test_allow_zero_padding_beyond_n(self):
        doc = {"p": 2, "k": 1, "n": 2, "generators": [[[1], [1], [0]]]}
        code = code_from_json_dict(doc)
        assert code.dim == 1

    def test_reject_bad_digits(self):
        doc = {"p": 2, "k": 2, "n": 2, "generators": [[[1, 2], [0, 0]]]}
        with pytest.raises(ValueError, match="digit"):
            code_from_json_dict(doc)
        doc = {"p": 2, "k": 2, "n": 2, "generators": [[[1], [0, 0]]]}
        with pytest.raises(ValueError, match="digits"):
            code_from_json_dict(doc)

    def test_short_generator_padded(self):
        doc = {"p": 3, "k": 1, "n": 5, "generators": [[[2], [1]]]}
        code = code_from_json_dict(doc)
        assert code == code_from_generators(PrimeParams(3, 1, 5), [gen(G1, PrimeParams(3, 1, 5))])


class TestClosureByTheorem:
    """`code_from_generators` (both constructions) and `dual` build ideals by
    theorem and check no closure themselves; the check holds for what they
    build across the envelope, and for each code's dual."""

    @staticmethod
    def _codes(rng):
        yield edge_code(64, seed=7)  # coprime, kn = 512
        yield edge_code(63, seed=7)  # 3 | 63, kn = 512
        big = PrimeParams(65521, 8, 64)  # kn = 512
        yield code_from_generators(big, random_layered_generators(rng, big))
        for p in [2, 3, 5, 7, 65521]:
            for coprime in [True, False]:
                lengths = [n for n in range(1, 65) if (n % p != 0) == coprime]
                if not lengths:  # p = 65521 divides no length
                    continue
                for _ in range(3):
                    pp = PrimeParams(p, rng.randint(1, 8), rng.choice(lengths[:16]))
                    gens = random_layered_generators(rng, pp)
                    yield code_from_generators(pp, gens)
                    yield eliminated_code(pp, gens)

    def test_constructions_and_duals_are_closed(self, monkeypatch):
        checked = []
        real = CyclicCode._assert_closed
        monkeypatch.setattr(CyclicCode, "_assert_closed",
                            lambda code: checked.append(code) or real(code))
        codes = list(self._codes(random.Random(97)))
        assert not checked  # the constructions ran no closure check
        for code in codes:
            dual = code.dual()
            assert dual.dim == code.params.k * code.params.n - code.dim
            real(code)
            real(dual)
        assert not checked
        assert any(c.dim == 0 for c in codes) and any(c.params.k * c.params.n == 512 for c in codes)
