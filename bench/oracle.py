"""Independent reference answers for every request the benchmark sends.

The oracle recomputes what it can from first principles with its own code:
one echelon form of the code gives the torsion tower, the dimension and the
minimal number of R_k-generators; an exhaustive search of the top torsion code
gives the distance; cyclotomic cosets give the factor degrees of x^n - 1 and
the number of codes `enumerate` must list.  It never calls the package under
test.

`check` returns (correct, failed, note):
- failed: the answer is not the true one, or the exit code is unexpected.
- correct: the answer is what the command is specified to print.  The two
  differ in one documented place only: `analyze` may answer with the paper's
  closed-form law, which the README marks as the formula's value rather than
  ground truth.  Such an answer is correct when it equals the law and counts
  as failed when it differs from the exhaustive distance.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

import fpoly

DEFAULT_BUDGET = 1 << 24

VERIFY_CHECKS = (
    "coprime-collapse", "canonical-reconstruction", "coprime-tower-roundtrip",
    "free-witness-divides", "rank-spanning-set", "cardinality-formula",
    "distance-closed-form-sweep", "distance-monotone-in-t",
    "torsion-vs-bruteforce-distance", "distance-product-law", "dual-plumbing",
)
# acceptance criteria 6 and 8: the paper's closed-form sweep and product law
# disagree with exhaustive search, so `verify` exits 1 by design
VERIFY_KNOWN_FAILURES = {"distance-closed-form-sweep", "distance-product-law"}


# -- linear algebra over F_p ---------------------------------------------------

def rref(M, p):
    """Reduced row echelon form over F_p: (rows, pivot columns)."""
    M = np.array(M, dtype=np.int64) % p
    nrows, ncols = M.shape
    r, pivots = 0, []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r, c:] = M[r, c:] * pow(int(M[r, c]), -1, p) % p
        hit = np.flatnonzero(M[:, c])
        hit = hit[hit != r]
        if hit.size:
            M[hit, c:] = (M[hit, c:] - np.outer(M[hit, c], M[r, c:])) % p
        pivots.append(c)
        r += 1
    return M[:r], pivots


def _layer_matrix(layers, k, n):
    a = np.zeros((k, n), dtype=np.int64)
    for j, l in enumerate(layers[:k]):
        a[j, :len(l)] = l
    return a


def _row(a):
    # layer-major columns, highest degree first inside each layer: the echelon
    # form then exposes every torsion code by its pivot block
    return a[:, ::-1].reshape(-1)


def _module_rows(layer_mats, k, x_shifts):
    rows = []
    for a in layer_mats:
        for s in range(x_shifts):
            b = np.roll(a, s, axis=1)
            for _ in range(k):
                rows.append(_row(b))
                b = np.vstack([np.zeros((1, b.shape[1]), dtype=np.int64), b[:-1]])
    return rows


class Code:
    """Echelon form of the ideal generated by `gens` (lists of u-layers)."""

    def __init__(self, p, k, n, gens):
        self.p, self.k, self.n = p, k, n
        mats = [_layer_matrix(g, k, n) for g in gens]
        self.basis, self.pivots = rref(np.array(_module_rows(mats, k, n)), p)
        self.dim = len(self.pivots)
        self.tower = []
        for j in range(k):
            block = [i for i, c in enumerate(self.pivots) if j * n <= c < (j + 1) * n]
            if not block:
                self.tower.append(fpoly.xn_minus_1(n, p))
                continue
            part = self.basis[block[-1], j * n:(j + 1) * n][::-1]
            self.tower.append(fpoly.trim([int(c) for c in part]))
        shifted = np.zeros_like(self.basis)
        shifted[:, n:] = self.basis[:, :-n]
        self.dim_u = len(rref(shifted, p)[1]) if self.dim else 0

    def contains_all(self, rows):
        if not len(rows):
            return True
        return len(rref(np.vstack([self.basis, np.array(rows)]), self.p)[1]) == self.dim


# -- distances -------------------------------------------------------------------

@lru_cache(maxsize=None)
def min_weight(gen, n, p, budget=DEFAULT_BUDGET):
    """Exhaustive minimum weight of the cyclic code <gen> of length n over
    F_p, or None when its p^dim codewords exceed the budget."""
    dim = n - (len(gen) - 1)
    if dim <= 0 or p ** dim > budget:
        return None
    G = np.zeros((dim, n), dtype=np.int64)
    for s in range(dim):
        G[s, s:s + len(gen)] = gen
    return _min_weight_binary(G) if p == 2 else _min_weight_projective(G, p)


def _min_weight_binary(G):
    dim, n = G.shape
    words = [int("".join(map(str, row[::-1])), 2) for row in G]
    lo = min(dim, 16)
    table = np.zeros(1, dtype=np.uint64)
    for w in words[:lo]:
        table = np.concatenate([table, table ^ np.uint64(w)])
    best = int(np.bitwise_count(table[1:]).min()) if lo else n + 1
    offset = 0
    for i in range(1, 1 << (dim - lo)):
        offset ^= words[lo + (i & -i).bit_length() - 1]  # Gray-code step
        best = min(best, int(np.bitwise_count(table ^ np.uint64(offset)).min()))
    return best


def _min_weight_projective(G, p):
    """Visits one codeword per line through the origin (weights are scale
    invariant): the last nonzero coefficient of every combination is 1."""
    dim, n = G.shape
    lo = 0
    while lo < dim and p ** (lo + 1) <= 1 << 14:
        lo += 1
    table = np.zeros((1, n), dtype=np.int64)
    for row in G[:lo]:
        table = np.concatenate([(table + c * row) % p for c in range(p)])
    best = int(np.count_nonzero(table[1:], axis=1).min()) if lo else n + 1
    hi = G[lo:]
    for top in range(len(hi)):
        # combinations whose last nonzero high coefficient sits at `top`
        for coeffs in np.ndindex(*([p] * top)):
            offset = (np.array(coeffs, dtype=np.int64) @ hi[:top] + hi[top]) % p \
                if top else hi[0] % p
            w = np.count_nonzero((table + offset) % p, axis=1).min()
            best = min(best, int(w))
    return best


def closed_form_law(p, n, t):
    """The paper's digit-run law for n = p^l and top torsion (x-1)^t, or None
    when it does not apply."""
    l, m = 0, n
    while m % p == 0:
        m //= p
        l += 1
    if m != 1 or l < 1 or not 0 < t < n:
        return None
    if t <= p ** (l - 1):
        return 2
    digits = []
    for _ in range(l):
        digits.append(t % p)
        t //= p
    digits.reverse()
    q = 0
    while q < l and digits[q]:
        q += 1
    d = 1
    for b in digits[:q]:
        d *= b + 1
    return d * 2 if any(digits[q + 1:]) else d


def _power_of_x_minus_1(g, p):
    t, x1 = 0, [p - 1, 1]
    while len(g) > 1:
        q, r = fpoly.divmod_(g, x1, p)
        if r:
            return None
        g, t = q, t + 1
    return t


# -- per-command checks ---------------------------------------------------------

def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _budget(text):
    if "^" in text:
        a, b = text.split("^")
        return int(a) ** int(b)
    return int(text)


def check(argv, rc, out):
    """Judge one request's exit code and stdout; see the module docstring."""
    cmd = argv[0]
    if cmd == "verify":
        return _check_verify(argv, rc, out)
    if rc != 0:
        return False, True, f"exit {rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        return False, True, "stdout is not JSON"
    return {"analyze": _check_analyze, "enumerate": _check_enumerate,
            "factor": _check_factor}[cmd](argv, doc)


def _check_analyze(argv, doc):
    p, k, n = (int(_opt(argv, f)) for f in ("--p", "--k", "--n"))
    gens = [fpoly.parse_layers(argv[i + 1], p, k)
            for i, a in enumerate(argv) if a == "--gen"]
    code = Code(p, k, n, gens)
    top = code.tower[-1]
    rank = n - (len(top) - 1)
    wrong = []
    tower = [fpoly.parse(t["string"], p) for t in doc["tower"]]
    if tower != code.tower:
        wrong.append("tower")
    if doc["log_cardinality"] != code.dim:
        wrong.append("log_cardinality")
    if doc["dual"]["log_cardinality"] != k * n - code.dim:
        wrong.append("dual dimension")
    if doc["dual"]["self_dual"] and 2 * code.dim != k * n:
        wrong.append("self-dual")
    if doc["free"] != all(g == code.tower[0] for g in code.tower):
        wrong.append("free")
    if not doc["rank"] == rank == code.dim - code.dim_u:
        wrong.append("rank")
    span = doc["spanning_set"]
    if span is None or span["size"] != rank or len(span["elements"]) != rank:
        wrong.append("spanning set size")
    else:
        elems = [_layer_matrix(fpoly.parse_layers(e, p, k), k, n) for e in span["elements"]]
        rows = _module_rows(elems, k, 1)
        if len(rref(np.array(rows), p)[1]) != code.dim or not code.contains_all(rows):
            wrong.append("spanning set span")
    if wrong:
        return False, True, "wrong " + ", ".join(wrong)

    dist = doc["distance"]
    truth = min_weight(tuple(top), n, p, _budget(_opt(argv, "--budget", str(DEFAULT_BUDGET))))
    if dist["method"] == "closed-form":
        t = _power_of_x_minus_1(top, p)
        law = None if t is None else closed_form_law(p, n, t)
        if dist["value"] != law:
            return False, True, f"closed form printed {dist['value']}, the law gives {law}"
        if truth is not None and law != truth:
            return True, True, f"closed-form law {law} != exhaustive distance {truth}"
        return True, False, ""
    if truth is not None and dist["value"] != truth:
        return False, True, f"distance {dist['value']} != exhaustive {truth}"
    return True, False, ""


def _check_enumerate(argv, doc):
    p, k, n = (int(_opt(argv, f)) for f in ("--p", "--k", "--n"))
    degs = fpoly.coset_sizes(p, n)
    expected = []
    for thresholds in np.ndindex(*([k + 1] * len(degs))):
        # factor j sits in the tower levels below its threshold t_j
        if all(t == k for t in thresholds):
            continue
        dim = sum(d * (k - t) for d, t in zip(degs, thresholds))
        rank = n - sum(d for d, t in zip(degs, thresholds) if t == k)
        expected.append((dim, rank))
    rows = doc["codes"]
    if doc["nonzero_count"] != (k + 1) ** len(degs) - 1 or len(rows) != len(expected):
        return False, True, "wrong number of codes"
    if sorted((r["log_cardinality"], r["rank"]) for r in rows) != sorted(expected):
        return False, True, "wrong (log_cardinality, rank) multiset"
    for r in rows:
        top = fpoly.monic(fpoly.parse_layers(r["generator"], p, k)[-1], p)
        if not top or r["distance"] != min_weight(tuple(top), n, p):
            return False, True, f"distance of <{r['generator']}>"
    return True, False, ""


def _check_factor(argv, doc):
    p, n = int(_opt(argv, "--p")), int(_opt(argv, "--n"))
    a, m = fpoly.split_power(n, p)
    facs = [(fpoly.parse(f["string"], p), f["multiplicity"]) for f in doc["factors"]]
    # as many monic factors as x^m - 1 has irreducible ones, multiplying to
    # x^n - 1, can only be those irreducible factors
    ok = (sorted(len(q) - 1 for q, _ in facs) == sorted(fpoly.coset_sizes(p, m))
          and all(e == p ** a and q[-1] == 1 for q, e in facs)
          and fpoly.product([q for q, e in facs for _ in range(e)], p)
          == fpoly.xn_minus_1(n, p))
    return (True, False, "") if ok else (False, True, "wrong factorization")


def _check_verify(argv, rc, out):
    trials = int(_opt(argv, "--trials"))
    lines = out.splitlines()
    counts = {}
    for line in lines:
        name, sep, frac = line.partition(": ")
        if sep and name in VERIFY_CHECKS:
            passed, total = (int(x) for x in frac.split("/"))
            counts[name] = (passed, total)
    if set(counts) != set(VERIFY_CHECKS):
        return False, True, "missing checks"
    failing = {name for name, (a, b) in counts.items() if a != b}
    exhaustive = {"distance-closed-form-sweep", "distance-monotone-in-t",
                  "distance-product-law", "torsion-vs-bruteforce-distance"}
    short = [name for name, (_, b) in counts.items()
             if name not in exhaustive and b != trials]
    if rc != 1 or failing != VERIFY_KNOWN_FAILURES or short or lines[-1] != "result: FAIL":
        return False, True, f"exit {rc}, failing {sorted(failing)}, short {short}"
    return True, False, ""
