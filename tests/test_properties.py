import random

from ucyclic import properties
from ucyclic.chainring import RkElem
from ucyclic.gfp import FpPoly, PrimeParams
from ucyclic.properties import check_distance_sweep, check_rank_and_spanning, run_suite
from ucyclic.structure import SpanningSet


def test_monotone_check_covers_the_sweep():
    # at p = 3, n = 27 the small t exceed the budget; they are skipped, not
    # the end of the run, so both checks visit the same 28 points
    budget = 3 ** 10
    sweep, monotone = check_distance_sweep(random.Random(0), 0, budget)
    assert sweep.name == "distance-closed-form-sweep"
    assert monotone.name == "distance-monotone-in-t"
    assert sweep.total == monotone.total == 28
    assert monotone.ok


def test_suite_expands_the_merged_check_in_order():
    names = [r.name for r in run_suite("distance", 1, 0, 3 ** 10)]
    assert names == ["distance-closed-form-sweep", "distance-monotone-in-t",
                     "torsion-vs-bruteforce-distance", "distance-product-law"]


def test_rank_check_rejects_a_set_that_does_not_span(monkeypatch):
    # u times a minimal spanning set has its size but spans only uC != C
    real = properties.minimal_spanning_set

    def short(code):
        u = RkElem((0, 1)[:code.params.k], code.params)  # u is 0 in R_1
        return SpanningSet(tuple(e.scale(u) for e in real(code).elements))
    assert check_rank_and_spanning(random.Random(0), 10, 1 << 16).ok
    monkeypatch.setattr(properties, "minimal_spanning_set", short)
    res = check_rank_and_spanning(random.Random(0), 10, 1 << 16)
    assert res.total == 10 and not res.ok


def test_random_chain_at_the_envelope_edge():
    params = PrimeParams(3, 8, 64)
    xn1 = FpPoly.xn_minus_1(64, 3)
    for seed in range(3):
        chain = properties.random_chain(random.Random(seed), params)
        assert len(chain) == 8
        assert (xn1 % chain[0]).is_zero
        assert all((a % b).is_zero for a, b in zip(chain, chain[1:]))
