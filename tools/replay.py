"""Fingerprint the CLI's answers to the benchmark's request lists.

    python3 tools/replay.py --seeds 1 2 3 > answers.txt

Run from the root of a source checkout.  For each request of the
benchmark's workloads (`workloads.WORKLOADS`, in its order) at each seed, in
order, `ucyclic.cli.main(argv)` is called in-process and one line is printed:

    <workload> <seed> <index> <exit code> <sha256 of stdout> <sha256 of stderr>

Running the script on two checkouts and comparing the outputs with `diff`
shows whether a change kept stdout, stderr and exit codes byte-identical.
The request lists come from `bench/workloads.py`, which is only read.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import traceback
from pathlib import Path

# one process, no BLAS or OpenMP worker threads (set before numpy loads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from ucyclic.cli import main  # noqa: E402


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a request
            rc = exc.code
        except Exception:  # what the console script would die of: exit 1
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    return ap.parse_args(argv)


def replay(argv=None) -> int:
    args = parse_args(argv)
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            for index, request in enumerate(workloads.requests(workload, seed)):
                rc, out, err = run(request)
                print(workload, seed, index, rc, digest(out), digest(err), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(replay())
