import random

from ucyclic.properties import check_distance_monotone, check_distance_sweep


def test_monotone_check_covers_the_sweep():
    # at p = 3, n = 27 the small t exceed the budget; they are skipped, not
    # the end of the run, so both checks visit the same 28 points
    budget = 3 ** 10
    sweep = check_distance_sweep(random.Random(0), 0, budget)
    monotone = check_distance_monotone(random.Random(0), 0, budget)
    assert sweep.total == monotone.total == 28
    assert monotone.ok
