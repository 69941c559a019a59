"""Seeded request lists for the benchmark's workloads.

A request is the argv list of one `ucyclic` CLI call.  Each workload is a fixed
list of slots, templates such as (p, k, n, rank) chosen so that every seed
costs about the same; the seed only draws what fills a slot: the polynomials
of a code, a factor point from a band of equal cost, a `verify` seed.
Nothing here imports the package under test, so a change to the package
cannot change the workload.
"""

from __future__ import annotations

import random

import fpoly

BIG_P = 65521  # the largest prime below 2^16; 65520 = 2^4 * 3^2 * 5 * 7 * 13

# analyze-envelope: (p, k, n, r, levels).  r is the top torsion dimension
# n - deg g_(k-1), held small enough that distance stays a minor cost; levels
# is the number of distinct tower entries, one lifted generator each.  Lengths
# mix the coprime case with p | n.  The only n = p^l is 64 at p = 2, where the
# closed form that `auto` takes is exact.
ENVELOPE = [
    (2, 8, 64, 12, 1), (2, 4, 60, 16, 2), (2, 8, 24, 16, 2), (2, 2, 64, 16, 2),
    (2, 6, 40, 16, 2), (2, 4, 45, 16, 1), (2, 3, 63, 16, 1), (2, 4, 48, 16, 2),
    (2, 8, 20, 14, 3),
    (3, 8, 32, 10, 2), (3, 4, 60, 10, 2), (3, 6, 40, 10, 1), (3, 8, 20, 10, 2),
    (3, 5, 30, 10, 2), (3, 4, 32, 10, 2), (3, 2, 64, 10, 1), (3, 3, 48, 10, 2),
    (5, 4, 48, 7, 1), (5, 6, 24, 7, 2), (5, 3, 50, 7, 2), (5, 2, 62, 7, 1),
    (7, 8, 21, 6, 2), (7, 5, 30, 6, 2), (7, 4, 48, 6, 1), (7, 3, 56, 6, 2),
    (2, 4, 32, 12, 2), (3, 4, 35, 9, 2), (5, 8, 16, 6, 2), (5, 5, 30, 6, 2),
    (7, 4, 32, 5, 2),
]

# distance-search: (p, k, n, r, mode).  The top torsion codes hold 2^16 to
# 2^21 codewords, so the exhaustive search dominates, yet one pass over the
# list takes about 5 s and a run times every request several times; p = 3
# with n in {9, 27} takes the closed form.
# p = 65521 lives here, not in analyze-envelope: its smallest nonzero code
# already has 65521 codewords, so the distance kernel dominates its requests.
DISTANCE = [
    (2, 1, 31, 19, "auto"), (2, 2, 24, 17, "auto"), (2, 1, 40, 19, "auto"),
    (2, 2, 45, 18, "auto"), (2, 1, 33, 18, "auto"), (2, 2, 32, 17, "auto"),
    (2, 1, 51, 19, "auto"), (2, 2, 63, 18, "auto"), (2, 1, 28, 19, "auto"),
    (2, 1, 21, 17, "brute-force"), (2, 1, 35, 18, "brute-force"),
    (2, 2, 17, 9, "brute-force"), (2, 1, 43, 17, "brute-force"),
    (3, 1, 26, 12, "auto"), (3, 2, 20, 11, "auto"), (3, 1, 28, 12, "auto"),
    (3, 2, 24, 11, "auto"), (3, 1, 27, 13, "auto"), (3, 2, 27, 14, "auto"),
    (3, 1, 27, 11, "auto"), (3, 2, 9, 5, "auto"), (3, 1, 9, 4, "auto"),
    (3, 1, 16, 11, "brute-force"), (3, 1, 13, 11, "brute-force"),
    (5, 1, 24, 8, "auto"), (5, 2, 12, 7, "auto"), (5, 1, 20, 8, "auto"),
    (5, 1, 26, 8, "auto"), (5, 1, 13, 7, "brute-force"),
    (7, 1, 16, 7, "auto"), (7, 2, 24, 6, "auto"), (7, 1, 12, 7, "auto"),
    (7, 1, 20, 6, "auto"), (7, 1, 8, 6, "brute-force"),
    (BIG_P, 2, 60, 1, "auto"),
    (2, 1, 30, 18, "auto"), (3, 1, 20, 11, "auto"), (5, 2, 21, 7, "auto"),
    (2, 1, 36, 17, "brute-force"), (3, 1, 26, 10, "brute-force"),
]

# enumerate-sweep: fixed (p, k, n) enumerate slots, from 8 to 256 codes each;
# p^n stays far below the budget, as `enumerate` computes every listed code's
# distance.  Then factor slots: the trial-division cliff points p=2 n=45,
# p=5 n=42 and p=11 n=61, and three seeded draws from each band of points
# that cost about the same at the seed (~2, ~7, ~20, ~50 and ~125 ms).
ENUMERATE = [
    (2, 3, 7), (2, 4, 5), (2, 2, 11), (2, 2, 15), (2, 2, 9), (2, 1, 17),
    (3, 3, 5), (3, 2, 8), (3, 2, 7), (3, 3, 4), (5, 3, 4), (5, 3, 3),
    (5, 1, 9), (7, 2, 4), (7, 4, 5), (11, 2, 3), (11, 1, 5), (13, 3, 5),
]
FACTOR_CLIFFS = [(2, 45), (5, 42), (11, 61)]
FACTOR_BANDS = [
    [(2, 13), (2, 21), (2, 26), (2, 31), (2, 42), (3, 16), (3, 20), (5, 7),
     (5, 9), (5, 35), (5, 45), (13, 5)],
    [(2, 17), (2, 34), (2, 63), (3, 22), (3, 42), (5, 13), (7, 10)],
    [(2, 19), (2, 27), (2, 38), (2, 51), (2, 54), (3, 52), (7, 15), (7, 20),
     (7, 57)],
    [(2, 25), (2, 50), (5, 55), (7, 50)],
    [(3, 32), (5, 14), (5, 18), (5, 44)],
] * 3

VERIFY_REQUESTS = 36
VERIFY_TRIALS = 6
VERIFY_BUDGET = "3^10"


def _pick_divisor(rng, units, target):
    """Random sub-multiset of factor units (degree, index) whose degree sum is
    the reachable sum closest to target (the larger one on a tie).

    The sum depends only on the units and the target, never on the seed, so
    every seed gets the same torsion dimension.
    """
    order = units[:]
    rng.shuffle(order)
    reach = [{0}]
    for d, _ in reversed(order):
        reach.append(reach[-1] | {s + d for s in reach[-1]})
    reach.reverse()  # reach[i]: the degree sums reachable with order[i:]
    left = min(reach[0], key=lambda s: (abs(s - target), -s))
    chosen = []
    for i, u in enumerate(order):
        fits = left - u[0] in reach[i + 1]
        if fits and (left not in reach[i + 1] or rng.random() < 0.5):
            chosen.append(u)
            left -= u[0]
    return chosen


def _chain(rng, p, k, n, r, levels):
    """Tower g_0, ..., g_(k-1) of `levels` distinct entries, each dividing the
    one before it.  The entries' degrees and the tower positions they fill
    depend only on (p, k, n, r, levels): the top entry has degree close to
    n - r, and entry i of m has dimension close to r * (m - i) / m."""
    facs = fpoly.factor_xn_minus_1(n, p)
    rest = [(len(q) - 1, j) for j, (q, e) in enumerate(facs) for _ in range(e)]
    levels = min(levels, k)
    entries, deg = [], 0
    for i in range(levels, 0, -1):
        dim = max(1, round(r * i / levels))
        part = _pick_divisor(rng, rest, n - dim - deg)
        for u in part:
            rest.remove(u)
        deg += sum(d for d, _ in part)
        entries.append((entries[-1] if entries else []) + part)
    bounds = [round(k * i / levels) for i in range(levels + 1)]
    chain = []
    for e, lo, hi in zip(reversed(entries), bounds, bounds[1:]):
        chain += [fpoly.product([facs[j][0] for _, j in e], p)] * (hi - lo)
    return chain


def _generators(rng, p, k, n, chain):
    """One generator per distinct tower entry: u^i (g_i + sum_j u^(j-i) m_ij).

    The mixing layers m_ij are random multiples of g_(k-1), so the top
    torsion generator is g_(k-1) by construction while the lower levels must
    be lifted for real.
    """
    top = chain[-1]
    gens = []
    for i, g in enumerate(chain):
        if i and g == chain[i - 1]:
            continue
        layers = [[] for _ in range(i)] + [g]
        for _ in range(i + 1, k):
            r = fpoly.trim([rng.randrange(p) for _ in range(n)])
            layers.append(fpoly.mod_xn_minus_1(fpoly.mul(top, r, p), n, p))
        gens.append("; ".join(fpoly.fmt(l) for l in layers))
    return gens


def _analyze(p, k, n, gens, mode="auto"):
    argv = ["analyze", "--p", str(p), "--k", str(k), "--n", str(n)]
    for g in gens:
        argv += ["--gen", g]
    if mode != "auto":
        argv += ["--distance-mode", mode]
    return argv + ["--format", "json"]


def analyze_envelope(rng):
    out = []
    for p, k, n, r, levels in ENVELOPE:
        chain = _chain(rng, p, k, n, r, levels)
        out.append(_analyze(p, k, n, _generators(rng, p, k, n, chain)))
    return out


def distance_search(rng):
    out = []
    for p, k, n, r, mode in DISTANCE:
        chain = _chain(rng, p, k, n, r, min(k, 2))
        out.append(_analyze(p, k, n, _generators(rng, p, k, n, chain), mode))
    return out


def enumerate_sweep(rng):
    out = [["enumerate", "--p", str(p), "--k", str(k), "--n", str(n), "--format", "json"]
           for p, k, n in ENUMERATE]
    points = FACTOR_CLIFFS + [rng.choice(band) for band in FACTOR_BANDS]
    out += [["factor", "--p", str(p), "--n", str(n), "--format", "json"]
            for p, n in points]
    return out


def verify_all(rng):
    return [["verify", "--suite", "all", "--trials", str(VERIFY_TRIALS),
             "--seed", str(rng.randrange(1 << 30)), "--budget", VERIFY_BUDGET]
            for _ in range(VERIFY_REQUESTS)]


WORKLOADS = {
    "analyze-envelope": analyze_envelope,
    "distance-search": distance_search,
    "enumerate-sweep": enumerate_sweep,
    "verify-all": verify_all,
}


def requests(workload: str, seed: int) -> list[list[str]]:
    """The request list of one run: the same (workload, seed) gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
