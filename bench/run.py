"""Closed-loop benchmark of the `ucyclic` CLI.

    python3 bench/run.py --workload analyze-envelope --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One client, one process, no worker
threads: each request is one `ucyclic.cli.main(argv)` call made in-process
with stdout captured, and the next request starts when it returns.  The
request list comes from `workloads.py` and the seed; it is replayed pass after
pass until --seconds have passed (the first pass always completes).  A
request's latency is the median of its repeats; the medians and percentiles
are then taken over the fixed request list, whatever the run's speed.  The
median, not the best time, because the host's speed comes in short fast
bursts: a request's best time depends on whether a burst fell in the run.
After timing, `oracle.py` checks every answer once; `attempted` counts the
distinct requests of the list and `failed` those whose answer is wrong, and
every repeat must print what the first did.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 times
one untraced and one traced pass, with `tracing.py` wrapping the package's
public functions, and prints the per-layer metrics of `layers.json`.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The request list, the result with its environment, and (traced) the spans are
written under bench/out/<workload>-seed<seed>-trace<t>/.
"""

import os

# pinned before numpy loads: one process, no BLAS or OpenMP worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5  # before and again after the timed loop, so setup_s sees the
                # host's speed over the whole run, like the other timings
SETUP_REQUEST = ["factor", "--p", "2", "--n", "3"]
SETUP_CODE = ("import sys; from ucyclic.cli import main; "
              f"sys.exit(main({SETUP_REQUEST!r}))")
WARMUP = [
    SETUP_REQUEST,
    ["analyze", "--p", "2", "--k", "2", "--n", "3", "--gen", "x+1; 1", "--format", "json"],
    ["enumerate", "--p", "2", "--k", "1", "--n", "3", "--format", "json"],
    ["verify", "--suite", "all", "--trials", "1", "--seed", "0", "--budget", "2^8"],
]
TAIL_BEYOND = 10


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(runs):
    """Wall times of `runs` fresh interpreters, each importing ucyclic.cli and
    answering one trivial request."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                       stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return times


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a request
            rc = exc.code
        except Exception:  # what the console script would die of: exit 1
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue()


def run_loop(cli, reqs, seconds, tracer=None):
    """Replay the list until `seconds` pass, never starting a request that
    its first latency says would end after the deadline."""
    lats = [[] for _ in reqs]
    results = [None] * len(reqs)
    stable = True
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while True:
        for i, argv in enumerate(reqs):
            if passes and time.perf_counter() + lats[i][0] > deadline:
                return lats, results, stable, passes
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            rc, out = call(cli, argv)
            lats[i].append(time.perf_counter() - t0)
            if results[i] is None:
                results[i] = (rc, out)
            elif results[i] != (rc, out):
                stable = False
        passes += 1
        if tracer is not None:
            return lats, results, stable, passes


def latency_metrics(lats):
    per_request = sorted(statistics.median(l) for l in lats)
    n = len(per_request)
    return {
        "requests_per_s": n / sum(per_request),
        "latency_p50_s": statistics.median(per_request),
        "latency_tail_s": per_request[n - TAIL_BEYOND - 1],
        "tail_percentile": 100 * (n - TAIL_BEYOND) / n,
        "latency_samples": n,
    }


def judge(oracle, reqs, results):
    verdicts = []
    for argv, (rc, out) in zip(reqs, results):
        correct, failed, note = oracle.check(argv, rc, out)
        verdicts.append({"correct": correct, "failed": failed, "note": note})
    return verdicts


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((SRC / "ucyclic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return commit, digest.hexdigest()


def environment(numpy):
    commit, source = source_identity()
    return {
        "commit": commit,
        "source_sha256": source,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def layer_metrics(tracer, names, traced, untraced, results):
    inclusive, by_name, by_path = tracer.times()
    counts = tracer.counts
    canon = counts["structure.canonical_form.calls"]
    closed = counts["distance.closed_form_distance.calls"]
    weight_s = inclusive["linalg.min_nonzero_weight"]
    special = {
        "linalg.min_nonzero_weight.codewords_per_s":
            counts["linalg.min_nonzero_weight.codewords"] / weight_s if weight_s else 0.0,
        "structure.canonical_form.reuse_frac":
            len(tracer.canonical_codes) / canon if canon else 0.0,
        "distance.closed_form_distance.answered_frac":
            counts["distance.closed_form_distance.answers"] / closed if closed else 0.0,
        "cli.self_s": by_name["cli.main"],
        "cli.exit3.count": sum(1 for rc, _ in results if rc == 3),
        "trace.requests_per_s": traced,
        "trace.overhead_rps": traced - untraced,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".s"):
            out[name] = inclusive.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out, by_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "ucyclic" / "cli.py").is_file():
        fail(f"no package source at {SRC}; run from the root of a ucyclic checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    if [{"name": m["name"], "unit": m["unit"], "better": m["better"]}
            for m in layers["metrics"]] != spec["per_layer"]:
        fail("per_layer in BENCHMARK.json differs from bench/layers.json")

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import numpy
    import oracle
    import workloads
    import ucyclic.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "ucyclic").resolve():
        fail(f"imported ucyclic from {cli.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    reqs = workloads.requests(args.workload, args.seed)
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "requests.txt", "w", encoding="utf-8") as fh:
        for argv in reqs:
            fh.write(shlex.join(["ucyclic"] + argv) + "\n")

    if args.trace == 0:
        measure_setup(1)  # warms the file cache; not counted
        setup_times = measure_setup(SETUP_RUNS)
    for argv in WARMUP:
        call(cli, argv)

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(numpy)}
    if args.trace == 0:
        lats, results, stable, passes = run_loop(cli, reqs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(setup_times + measure_setup(SETUP_RUNS))
        lm = latency_metrics(lats)
        values = {"setup_s": setup_s, "requests_per_s": lm["requests_per_s"],
                  "latency_p50_s": lm["latency_p50_s"],
                  "latency_tail_s": lm["latency_tail_s"], "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
        result.update(passes=passes, tail_percentile=lm["tail_percentile"],
                      latency_samples=lm["latency_samples"], latencies=lats)
    else:
        half = args.seconds / 2
        lats, results, stable, passes = run_loop(cli, reqs, half)
        untraced = latency_metrics(lats)["requests_per_s"]
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_lats, traced_results, _, _ = run_loop(cli, reqs, half, tracer)
        finally:
            tracer.uninstall()
        tracer.write(out_dir / "spans.jsonl")
        if traced_results != results:
            stable = False
        traced = latency_metrics(traced_lats)["requests_per_s"]
        wanted = spec["per_layer"]
        values, by_path = layer_metrics(tracer, [m["name"] for m in wanted],
                                        traced, untraced, traced_results)
        total_self = sum(by_path.values())
        top = sorted(by_path.items(), key=lambda kv: -kv[1])[:8]
        result["top_self_paths"] = [{"path": p, "s": s, "share": s / total_self}
                                    for p, s in top]

    verdicts = judge(oracle, reqs, results)
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if v["failed"])
    correct = stable and all(v["correct"] for v in verdicts)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result.update(correct=correct, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, outputs_stable=stable, metrics=metrics,
                  verdicts=[dict(v, request=i) for i, v in enumerate(verdicts)
                            if v["failed"] or not v["correct"]])
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':48s} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    if args.trace == 0:
        print(f"latency_tail_s is p{result['tail_percentile']:.1f} of "
              f"{result['latency_samples']} requests; {passes} passes")
    else:
        for row in result["top_self_paths"]:
            print(f"self {row['s']:9.4f} s {100 * row['share']:5.1f}%  {row['path']}")
    for v in result["verdicts"]:
        print(f"request {v['request']}: {v['note']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
