import random

from ucyclic.properties import check_distance_sweep, run_suite


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
