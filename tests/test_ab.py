"""`tools/ab.py` on synthetic runs: the summary, the verdict and the refusal
of wrong answers, with no subprocess and no git."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import ab  # noqa: E402

END_TO_END = [
    {"name": "requests_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]
BETTER = {m["name"]: m["better"] for m in END_TO_END}


def result(rps, p50, rss, correct=True, failed=0):
    values = {"requests_per_s": rps, "latency_p50_s": p50, "peak_rss_mb": rss}
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def runs(parent_rps, change_rps, change_p50=0.01, change_rss=40.0):
    out = []
    for pair, (a, b) in enumerate(zip(parent_rps, change_rps)):
        out.append({"pair": pair, "side": "parent", "result": result(a, 0.01, 40.0)})
        out.append({"pair": pair, "side": "change", "result": result(b, change_p50, change_rss)})
    return out


def test_summary_counts_wins_and_quartiles():
    summary = ab.summarize(runs([10, 11, 12, 13, 14], [12, 10, 15, 16, 17]), BETTER)
    rps = summary["requests_per_s"]
    assert (rps["change_wins"], rps["pairs"]) == (4, 5)
    assert rps["parent"] == {"q1": 11, "median": 12, "q3": 13}
    assert rps["change"]["median"] == 15


def test_unpaired_run_is_left_out():
    done = runs([10, 11], [12, 13])
    done.append({"pair": 2, "side": "parent", "result": result(99, 0.01, 40.0)})
    assert ab.summarize(done, BETTER)["requests_per_s"]["pairs"] == 2


def test_verdict_of_a_met_claim():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    change = [v + 30 for v in parent]
    summary = ab.summarize(runs(parent, change, change_p50=0.012, change_rss=45.0), BETTER)
    verdict = ab.verdict(summary, END_TO_END, claim="requests_per_s")
    claim = verdict["requests_per_s"]
    assert claim["claimed"] and claim["claim_met"] and claim["beyond_parent_iqr"]
    assert (claim["change_wins"], claim["pairs"], claim["median_gain"]) == (10, 10, 30)
    assert claim["parent_iqr"] == pytest.approx(4.5)
    # latency 0.01 -> 0.012 is 20% worse, inside its 25% bound
    assert verdict["latency_p50_s"]["relative_worsening"] == pytest.approx(0.2)
    assert verdict["latency_p50_s"]["within_bound"]
    # memory 40 -> 45 MB is 12.5% worse, outside its 10% bound
    assert verdict["peak_rss_mb"]["relative_worsening"] == pytest.approx(0.125)
    assert not verdict["peak_rss_mb"]["within_bound"]


def test_verdict_of_a_claim_inside_the_noise():
    parent = [100, 110, 90, 105, 95, 100, 110, 90, 105, 95]
    change = [v + 3 for v in parent]
    claim = ab.verdict(ab.summarize(runs(parent, change), BETTER), END_TO_END,
                       claim="requests_per_s")["requests_per_s"]
    assert claim["change_wins"] == 10
    assert not claim["beyond_parent_iqr"] and not claim["claim_met"]


def test_verdict_without_a_claim_bounds_every_metric():
    summary = ab.summarize(runs([100, 100, 100], [80, 80, 80]), BETTER)
    verdict = ab.verdict(summary, END_TO_END)
    assert not any(entry["claimed"] for entry in verdict.values())
    assert verdict["requests_per_s"]["relative_worsening"] == pytest.approx(0.2)
    assert verdict["requests_per_s"]["within_bound"]
    assert verdict["latency_p50_s"]["relative_worsening"] == 0


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 1), (False, 3)])
def test_wrong_answers_are_refused(correct, failed):
    with pytest.raises(ab.WrongAnswers, match="distance-search seed 41 change"):
        ab.check_result(result(1, 1, 1, correct, failed), "distance-search", 41, "change")


def test_right_answers_pass():
    good = result(1, 1, 1)
    assert ab.check_result(good, "verify-all", 1, "parent") is good
