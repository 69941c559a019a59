"""Command-line workbench: factor, analyze, enumerate, verify.

Polynomial string grammar for human input: terms `c`, `x`, `x^e`, `c x^e`
or `c*x^e` joined by `+`/`-`, coefficients reduced mod p; a polynomial over
R_k is k semicolon-separated F_p polynomial strings in u-layer order, e.g.
`x^2+1; 1` for x^2+1+u.  JSON code files remain the canonical format.

Exit codes: 0 success, 1 property failure, 2 usage or validation error,
3 enumeration budget exceeded, 4 internal invariant violated (a bug).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys

from .chainring import RkPoly
from .code import CyclicCode, code_from_generators, load_code_file
from .distance import closed_form_distance, top_distance
from .gfp import BudgetError, FpPoly, PrimeParams, factor_xn_minus_1
from .linalg import DEFAULT_BUDGET, InvariantError
from .properties import SUITES, run_suite
from .structure import (canonical_form, enumerate_coprime, is_free,
                        minimal_spanning_set, rank, verify_constraints)

__all__ = ["main", "entry", "parse_fp_poly", "format_fp_poly",
           "parse_rk_poly", "format_rk_poly", "parse_budget", "build_report"]


# -- polynomial string grammar -------------------------------------------

# a term is a sign, then a coefficient, an x (with its exponent) or both:
# the groups (sign, coefficient, x, exponent) of _TERM; a polynomial is
# terms joined by signs
_ONE_TERM = r"(?=[\dx])(\d*)(?:(?<=\d)\*(?=x))?(x(?:\^(\d+))?)?"
_TERM = re.compile(rf"([+-]?){_ONE_TERM}")
_POLY = re.compile(rf"[+-]?{_ONE_TERM}(?:[+-]{_ONE_TERM})*\Z")


def parse_fp_poly(text: str, p: int, n: int) -> FpPoly:
    s = re.sub(r"\* *\*", "^", text)
    # spaces are dropped below, so one inside a number would merge its digits
    if re.search(r"[\d^] +\d", s):
        raise ValueError(f"space inside a number or after ^ in {text!r}")
    s = s.replace(" ", "")
    if s in ("", "0"):
        return FpPoly.zero(p)
    if re.search(r"[+-]([+-]|\Z)", s):  # the term split below would drop that sign
        raise ValueError(f"sign without a term in {text!r}")
    if not _POLY.match(s):  # then one of the sign-led parts is not a term
        bad = next(part for part in re.findall(r"[+-]?[^+-]+", s)
                   if not _TERM.fullmatch(part))
        raise ValueError(f"bad polynomial term {bad!r}")
    out = [0] * n  # x^n = 1: exponents fold, so the dense list never outgrows n
    for sign, c, x, e in _TERM.findall(s):
        e = (int(e) if e else 1) % n if x else 0
        out[e] += -int(c or 1) if sign == "-" else int(c or 1)
    return FpPoly(out, p)


def format_fp_poly(f: FpPoly) -> str:
    if f.is_zero:
        return "0"
    terms = []
    for e in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            var = "x" if e == 1 else f"x^{e}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms)


def parse_rk_poly(text: str, params: PrimeParams) -> RkPoly:
    layers = text.split(";")
    if len(layers) > params.k:
        raise ValueError(f"at most {params.k} u-layers expected")
    return RkPoly([parse_fp_poly(l, params.p, params.n) for l in layers], params)


def format_rk_poly(g: RkPoly) -> str:
    return "; ".join(format_fp_poly(l) for l in g.ulayers)


BUDGET_CAP = 1 << 8192  # exceeds every codeword count in the envelope


def parse_budget(text: str) -> int:
    """Positive integer, plain or in `a^b` notation, clamped at BUDGET_CAP:
    no request needs more than p^(kn) <= 65521^512 < 2^8192 codewords.  A
    power past the cap is not computed, as a^b >= 2^((bits(a) - 1) * b)."""
    m = re.fullmatch(r"(\d+)\^(\d+)", text.strip())
    a, b = (int(m.group(1)), int(m.group(2))) if m else (int(text), 1)
    huge = a > 1 and (a.bit_length() - 1) * b >= BUDGET_CAP.bit_length() - 1
    budget = BUDGET_CAP if huge else min(a ** b, BUDGET_CAP)
    if budget < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {budget}")
    return budget


def _trials(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"trials must be non-negative, got {text}")
    return int(text)


# -- analysis report -------------------------------------------------------

def _resolve_distance(code: CyclicCode, mode: str, budget: int) -> dict:
    """The distance entry of the report.  `auto` asks `top_distance`, which
    tries only exact methods, in its order, on the top torsion generator; the
    other modes name one method.  The paper's closed form is refuted at p=3,
    so it answers only when asked for by name.  Brute force never answers
    where torsion ran out of budget (it enumerates at least as many
    codewords), so `auto` does not try it."""
    if code.dim == 0:
        return {"value": None, "method": None, "note": "undefined (zero code)"}
    if mode == "auto":
        value, mode = top_distance(code.torsion_tower().gens[-1], code.params, budget)
    elif mode == "closed-form":
        value = closed_form_distance(code)
    elif mode == "torsion":
        value = code.min_distance(budget=budget)
    else:
        value = code.min_distance_bruteforce(budget=budget)
    return {"value": value, "method": mode}


def build_report(code: CyclicCode, distance_mode: str = "auto",
                 budget: int = DEFAULT_BUDGET) -> dict:
    params = code.params
    tower = code.torsion_tower()
    cf = canonical_form(code)
    free, witness = is_free(code)
    creport = verify_constraints(code)
    if code.dim == 0:
        spanning = None
    else:
        ss = minimal_spanning_set(code)
        spanning = {"size": ss.cardinality,
                    "elements": [format_rk_poly(e) for e in ss.elements]}
    return {
        "p": params.p,
        "k": params.k,
        "n": params.n,
        "zero_code": code.dim == 0,
        "tower": [{"coeffs": list(g.coeffs), "string": format_fp_poly(g)}
                  for g in tower.gens],
        "shape": cf.shape,
        "free": free,
        "witness": None if witness is None else format_rk_poly(witness),
        "rank": rank(code),
        "log_cardinality": code.dim,
        "spanning_set": spanning,
        "distance": _resolve_distance(code, distance_mode, budget),
        # R_k is Frobenius: dim C + dim C^perp = kn
        "dual": {"log_cardinality": params.k * params.n - code.dim, "self_dual": code.is_self_dual()},
        "constraints": [
            {"level": c.level, "layer": c.layer,
             "mixing": format_fp_poly(c.mixing), "vacuous": c.vacuous,
             "chain_cofactors_ok": c.chain_cofactors_ok, "repeated_cofactors_ok": c.repeated_cofactors_ok}
            for c in creport.checks
        ],
        "code": code.to_json_dict(),
    }


def _dumps_report(rep: dict) -> str:
    """`json.dumps(rep, indent=2)`, with the digit lists of the tower and of
    the code's generators filled into format templates.

    An indent makes `json` take its pure-Python encoder, which would visit
    every digit of those lists.  Each list is dumped as a placeholder string
    instead, and the placeholders are replaced in report order.  The
    templates' indents are those of the lists' depth in the report:
    rep["tower"][i]["coeffs"] (never empty, as g_i divides x^n - 1) and
    rep["code"]["generators"].
    """
    code = rep["code"]
    fills = ["[\n        " + ",\n        ".join(map(str, t["coeffs"])) + "\n      ]"
             for t in rep["tower"]]
    tower = [{**t, "coeffs": "\0"} for t in rep["tower"]]
    if code["generators"]:
        digits = "        [\n" + ",\n".join(["          %d"] * code["k"]) + "\n        ]"
        template = "      [\n" + ",\n".join([digits] * code["n"]) + "\n      ]"
        gens = ",\n".join(template % tuple(itertools.chain.from_iterable(g))
                          for g in code["generators"])
        fills.append("[\n" + gens + "\n    ]")
        code = {**code, "generators": "\0"}
    parts = json.dumps({**rep, "tower": tower, "code": code}, indent=2).split('"\\u0000"')
    return "".join(itertools.chain.from_iterable(zip(parts, fills))) + parts[-1]


def _print_report_text(rep: dict, out):
    print(f"code over R_{rep['k']} (p={rep['p']}), length {rep['n']}", file=out)
    print("tower: " + " | ".join(t["string"] for t in rep["tower"]), file=out)
    print(f"shape: {rep['shape']}", file=out)
    print(f"free: {'yes, witness ' + rep['witness'] if rep['free'] and rep['witness'] else ('yes' if rep['free'] else 'no')}", file=out)
    print(f"rank: {rep['rank']}", file=out)
    print(f"log_p|C|: {rep['log_cardinality']}", file=out)
    if rep["spanning_set"] is not None:
        print(f"minimal spanning set ({rep['spanning_set']['size']}):", file=out)
        for e in rep["spanning_set"]["elements"]:
            print(f"  {e}", file=out)
    d = rep["distance"]
    if d["value"] is None:
        print(f"distance: {d['note']}", file=out)
    else:
        print(f"distance: {d['value']} ({d['method']})", file=out)
    print(f"dual: log_p|C~| = {rep['dual']['log_cardinality']}, "
          f"self-dual: {'yes' if rep['dual']['self_dual'] else 'no'}", file=out)
    for c in rep["constraints"]:
        status = "vacuous" if c["vacuous"] else \
            f"chain-cofactors {'ok' if c['chain_cofactors_ok'] else 'FAIL'}, " \
            f"repeated-cofactors {'ok' if c['repeated_cofactors_ok'] else 'FAIL'}"
        print(f"constraint level {c['level']} layer {c['layer']} "
              f"(mixing {c['mixing']}): {status}", file=out)


# -- commands ---------------------------------------------------------------

def cmd_factor(args) -> int:
    params = PrimeParams(args.p, 1, args.n)
    facs = factor_xn_minus_1(params)
    if args.format == "json":
        doc = {"p": params.p, "n": params.n,
               "factors": [{"coeffs": list(q.coeffs), "string": format_fp_poly(q),
                            "multiplicity": e} for q, e in facs]}
        print(json.dumps(doc, indent=2))
    else:
        print(f"x^{params.n} - 1 over F_{params.p}")
        for q, e in facs:
            print(f"({format_fp_poly(q)})^{e}")
    return 0


def _load_analyze_code(args) -> CyclicCode:
    if args.code_file:
        if any(v is not None for v in (args.p, args.k, args.n, args.gen)):
            raise ValueError("--code-file cannot be combined with --p/--k/--n/--gen")
        return load_code_file(args.code_file)
    if args.gen and None not in (args.p, args.k, args.n):
        params = PrimeParams(args.p, args.k, args.n)
        gens = [parse_rk_poly(s, params) for s in args.gen]
        return code_from_generators(params, gens)
    raise ValueError("provide --code-file, or --p/--k/--n with one or more --gen")


def cmd_analyze(args) -> int:
    code = _load_analyze_code(args)
    rep = build_report(code, args.distance_mode, args.budget)
    if args.format == "json":
        print(_dumps_report(rep))
    else:
        _print_report_text(rep, sys.stdout)
    return 0


def cmd_enumerate(args) -> int:
    params = PrimeParams(args.p, args.k, args.n)
    nonzero = [t for t in enumerate_coprime(params) if t.dim > 0]
    rows = []
    distances = {}  # the distance is that of the top torsion code
    for tower in nonzero:
        top = tower.gens[-1]
        if top not in distances:
            distances[top] = top_distance(top, params, args.budget)[0]
        rows.append({"generator": format_rk_poly(tower.generator), "rank": tower.rank,
                     "log_cardinality": tower.dim, "distance": distances[top]})
    if args.include_zero:
        rows.append({"generator": "0", "rank": 0, "log_cardinality": 0,
                     "distance": None, "zero_code": True})
    if args.format == "json":
        print(json.dumps({"p": params.p, "k": params.k, "n": params.n,
                          "codes": rows, "nonzero_count": len(nonzero)}, indent=2))
    else:
        for row in rows:
            d = "-" if row["distance"] is None else row["distance"]
            print(f"<{row['generator']}>  rank={row['rank']}  "
                  f"log|C|={row['log_cardinality']}  d={d}")
        print(f"{len(nonzero)} nonzero codes")
    return 0


def cmd_verify(args) -> int:
    print(f"suite: {args.suite}  trials: {args.trials}  seed: {args.seed}  "
          f"budget: {args.budget}")
    results = run_suite(args.suite, args.trials, args.seed, args.budget)
    failed = False
    for res in results:
        print(f"{res.name}: {res.passed}/{res.total}")
        if not res.ok:
            failed = True
            for repro in res.failures[:5]:
                print(f"  FAIL reproducer: {repro}")
    print("result: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process; parse_args returns
    a fresh namespace on every call."""
    ap = argparse.ArgumentParser(
        prog="ucyclic",
        description="cyclic codes over Z_p + uZ_p + ... + u^(k-1)Z_p")
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factor", help="factor x^n - 1 over F_p")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--format", choices=("text", "json"), default="text")
    f.set_defaults(func=cmd_factor)

    a = sub.add_parser("analyze", help="full structure report for one code")
    a.add_argument("--code-file", help="JSON code document")
    a.add_argument("--p", type=int)
    a.add_argument("--k", type=int)
    a.add_argument("--n", type=int)
    a.add_argument("--gen", action="append",
                   help="generator as semicolon-separated u-layer polynomials; repeatable")
    a.add_argument("--distance-mode", default="auto",
                   choices=("auto", "closed-form", "torsion", "brute-force"))
    a.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET)
    a.add_argument("--format", choices=("text", "json"), default="text")
    a.set_defaults(func=cmd_analyze)

    e = sub.add_parser("enumerate", help="all cyclic codes for gcd(n, p) = 1")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--include-zero", action="store_true")
    e.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET)
    e.add_argument("--format", choices=("text", "json"), default="text")
    e.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="run randomized/exhaustive property suites")
    v.add_argument("--suite", choices=tuple(SUITES), default="all")
    v.add_argument("--trials", type=_trials, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())
