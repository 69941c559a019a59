"""Alternating A/B pairs of the benchmark on two git revisions.

    python3 tools/ab.py PARENT CHANGE --name 7 --plan verify-all:71-80 \
        --plan analyze-envelope:71-73 --claim verify-all:requests_per_s

Run from the root of a git checkout.  Each revision (anything `git
rev-parse` reads, such as a commit or the output of `git stash create`) is
checked out in a temporary, detached `git worktree`.  For every workload and
seed of the plan, one pair runs

    python3 bench/run.py --workload <workload> --seed <seed> --seconds <s> --trace 0

once from each checkout, where <s> is BENCHMARK.json's run_seconds; the side
that runs first alternates from pair to pair.  The last stdout line of each run is its result.  BENCH_<name>.json, at
the root of this checkout, gets per workload and end-to-end metric the
parent's and the change's q1, median and q3 (inclusive quartiles), the
number of pairs the change won (by the metric's `better` in BENCHMARK.json)
and every run.  The file is rewritten after each pair, so an interrupted
run keeps the pairs it finished.  The worktrees are removed at the end.
Only `bench/run.py` is called; nothing under `bench/` is edited.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def parse_plan(text: str) -> tuple[str, list[int]]:
    """`workload:first-last` or `workload:seed` to (workload, seeds)."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    if not workload or not first.isdigit() or not (last or first).isdigit():
        raise argparse.ArgumentTypeError(f"expected workload:first-last, got {text!r}")
    return workload, list(range(int(first), int(last or first) + 1))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the revision to compare against")
    ap.add_argument("change", help="the revision under test")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("--plan", type=parse_plan, action="append", required=True,
                    help="workload:first-last seeds, one pair per seed; repeatable")
    ap.add_argument("--claim", help="workload:metric that the change claims to improve")
    ap.add_argument("--description", default="")
    return ap.parse_args(argv)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced bench/run.py run in the checkout."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles, the change's wins and the pairs."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [sides for sides in by_pair.values() if len(sides) == 2]
    if not pairs:
        return {}
    summary = {}
    for name, direction in better.items():
        values = {side: [pair[side][name]["value"] for pair in pairs] for side in SIDES}
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        summary[name] = {**{side: quartiles(values[side]) for side in SIDES},
                         "change_wins": wins, "pairs": len(pairs)}
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out_path = ROOT / f"BENCH_{args.name}.json"
    doc = {
        "description": args.description,
        "command": (f"python3 bench/run.py --workload <workload> --seed <seed> "
                    f"--seconds {seconds:g} --trace 0"),
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "claim": None,
        "workloads": {},
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claim"] = {"workload": workload, "metric": metric}
    base = Path(tempfile.mkdtemp(prefix="ab-"))
    checkouts = {side: base / side for side in SIDES}
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", str(checkouts[side]), revs[side])
        for workload, seeds in args.plan:
            runs = []
            entry = doc["workloads"][workload] = {"summary": {}, "runs": runs}
            for pair, seed in enumerate(seeds):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_bench(checkouts[side], workload, seed, seconds)
                    runs.append({"pair": pair, "side": side, "seed": seed,
                                 "run_seconds": seconds, "result": result})
                    value = result["metrics"]["requests_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: {value:.2f} requests/s",
                          file=sys.stderr, flush=True)
                entry["summary"] = summarize(runs, better)
                out_path.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        for side in SIDES:
            if checkouts[side].exists():
                git("worktree", "remove", "--force", str(checkouts[side]))
        git("worktree", "prune")
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
