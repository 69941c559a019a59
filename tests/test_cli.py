import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ucyclic
from ucyclic import cli, linalg, structure
from ucyclic.chainring import RkPoly
from ucyclic.cli import (build_report, format_fp_poly, format_rk_poly, main,
                         parse_budget, parse_fp_poly, parse_rk_poly)
from ucyclic.code import (CyclicCode, code_from_generators, code_from_json_dict,
                          code_to_json)
from ucyclic.gfp import FpPoly, PrimeParams, factor_xn_minus_1
from ucyclic.linalg import DEFAULT_BUDGET, InvariantError
from ucyclic.properties import chain_code

from test_structure import mixed_tower_code


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGrammar:
    @pytest.mark.parametrize("text,coeffs", [
        ("x^4+x^3+x^2+x+1", [1, 1, 1, 1, 1]),
        ("2x+1", [1, 2]),
        ("x-1", [-1, 1]),
        ("x^2 + 2", [2, 0, 1]),
        ("0", []),
        ("", []),
        ("5", [5]),
        ("2*x^3", [0, 0, 0, 2]),
        ("-x", [0, -1]),
        ("x+x", [0, 2]),
        ("2 x^3 - 1 ", [-1, 0, 0, 2]),
        ("2 * x**3", [0, 0, 0, 2]),
        ("+x", [0, 1]),
    ])
    def test_parse(self, text, coeffs):
        assert parse_fp_poly(text, 7, 8) == FpPoly(coeffs, 7)

    def test_parse_reduces_mod_p(self):
        assert parse_fp_poly("4x+5", 3, 8) == FpPoly([2, 1], 3)

    def test_parse_64_terms(self):
        # one term per degree below n = 64 in every written form, in random
        # order, some exponents past n (x^n = 1) and repeated degrees summed
        import random
        rng = random.Random(64)
        p, n = 65521, 64
        want = [0] * n
        terms = []
        for e in rng.sample(range(n), n):
            c = rng.randrange(1, 3 * p)
            sign = rng.choice("+-")
            want[e] += c if sign == "+" else -c
            x = rng.choice([f"x^{e}", f"x^{e + n}", f"x**{e}"]) if e > 1 else ["1", "x"][e]
            form = rng.choice(["{c}{x}", "{c}*{x}", "{c} {x}"]) if e else "{c}"
            terms.append(sign + form.format(c=c, x=x))
        terms.append(f"+x^{2 * n + 3}")
        want[3] += 1
        text = " ".join(terms)
        assert len(terms) == 65
        assert parse_fp_poly(text, p, n) == FpPoly(want, p)
        assert parse_fp_poly(text.lstrip("+"), p, n) == FpPoly(want, p)

    @pytest.mark.parametrize("bad", ["x^", "y+1", "x^-2", "++", "2^x", "2*", "*x",
                                     "1 2", "x^1 0", "x^ 2", "x ^ 3",
                                     "x ** 3", "x** 1 0", "x+", "x++1", "x--1",
                                     "--x", "x+-1", "+", "-"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_fp_poly(bad, 3, 8)

    def test_rk_roundtrip(self):
        pp = PrimeParams(2, 2, 4)
        g = parse_rk_poly("x^2+1; 1", pp)
        assert g == RkPoly([FpPoly([1, 0, 1], 2), FpPoly.one(2)], pp)
        assert parse_rk_poly(format_rk_poly(g), pp) == g

    def test_rk_layer_count(self):
        pp = PrimeParams(2, 2, 4)
        with pytest.raises(ValueError, match="layers"):
            parse_rk_poly("1; 1; 1", pp)

    def test_format_fp(self):
        assert format_fp_poly(FpPoly([1, 1, 1, 1, 1], 3)) == "x^4+x^3+x^2+x+1"
        assert format_fp_poly(FpPoly([2, 1], 3)) == "x+2"
        assert format_fp_poly(FpPoly.zero(3)) == "0"
        assert format_fp_poly(FpPoly([0, 2], 5)) == "2x"

    def test_roundtrip_random(self):
        import random
        rng = random.Random(3)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            f = FpPoly([rng.randrange(p) for _ in range(rng.randint(0, 8))], p)
            assert parse_fp_poly(format_fp_poly(f), p, 8) == f


class TestBudget:
    def test_power_notation(self):
        assert parse_budget("2^24") == 1 << 24
        assert parse_budget("3^4") == 81

    def test_plain(self):
        assert parse_budget("1000") == 1000

    def test_power_clamped_at_cap(self):
        assert cli.BUDGET_CAP == 1 << 8192
        assert parse_budget("2^8191") == 1 << 8191
        assert parse_budget("3^5168") == 3 ** 5168  # just below 2^8192
        for text in ("2^8192", "3^5169", "65521^1000", "7^99999999999"):
            assert parse_budget(text) == 1 << 8192
        assert parse_budget(str(1 << 9000)) == 1 << 8192

    def test_bases_zero_and_one_stay_exact(self):
        assert parse_budget("0^0") == 1
        assert parse_budget("1^99999999999") == 1
        with pytest.raises(argparse.ArgumentTypeError, match="at least 1"):
            parse_budget("0^99999999999")

    def test_huge_power_returns_fast(self):
        # the unclamped power has ~2.8e11 bits and never finishes
        src = str(Path(ucyclic.__file__).resolve().parents[1])
        outs = []
        for budget in ("7^99999999999", "2^8192"):
            proc = subprocess.run(
                [sys.executable, "-m", "ucyclic", "analyze", "--p", "2", "--k", "1",
                 "--n", "3", "--gen", "x+1", "--budget", budget],
                capture_output=True, text=True, timeout=30,
                env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0]


class TestFactorCommand:
    def test_text(self, capsys):
        rc, out, err = run_cli(["factor", "--p", "3", "--n", "5"], capsys)
        assert rc == 0
        assert out.splitlines() == ["x^5 - 1 over F_3", "(x+2)^1", "(x^4+x^3+x^2+x+1)^1"]

    def test_frobenius(self, capsys):
        rc, out, _ = run_cli(["factor", "--p", "3", "--n", "9"], capsys)
        assert rc == 0
        assert "(x+2)^9" in out

    def test_invalid_p(self, capsys):
        rc, out, err = run_cli(["factor", "--p", "4", "--n", "5"], capsys)
        assert rc == 2
        assert "p must be a prime" in err

    def test_json(self, capsys):
        rc, out, _ = run_cli(["factor", "--p", "3", "--n", "5", "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["factors"] == [
            {"coeffs": [2, 1], "string": "x+2", "multiplicity": 1},
            {"coeffs": [1, 1, 1, 1, 1], "string": "x^4+x^3+x^2+x+1", "multiplicity": 1},
        ]


def write_code_file(tmp_path, code):
    path = tmp_path / "code.json"
    path.write_text(code_to_json(code))
    return str(path)


def g1_u_code():
    pp = PrimeParams(3, 4, 5)
    return code_from_generators(pp, [
        RkPoly.from_fp(FpPoly([2, 1], 3), pp),
        RkPoly.from_fp(FpPoly.one(3), pp, level=1)])


class TestAnalyzeCommand:
    def test_g1_u_report(self, tmp_path, capsys):
        path = write_code_file(tmp_path, g1_u_code())
        rc, out, _ = run_cli(["analyze", "--code-file", path, "--format", "json"], capsys)
        assert rc == 0
        rep = json.loads(out)
        assert rep["rank"] == 5
        assert rep["log_cardinality"] == 19
        assert rep["distance"] == {"value": 1, "method": "torsion"}
        assert rep["dual"]["log_cardinality"] == 20 - 19

    @pytest.mark.parametrize("extra", [["--p", "3"], ["--gen", "1"],
                                       ["--p", "3", "--k", "4", "--n", "5", "--gen", "x+2"]])
    def test_code_file_with_parameters_is_usage_error(self, tmp_path, capsys, extra):
        # the file fixes the code, so a second description of it is a conflict
        path = write_code_file(tmp_path, g1_u_code())
        rc, out, err = run_cli(["analyze", "--code-file", path] + extra, capsys)
        assert rc == 2
        assert out == ""
        assert "--code-file" in err

    def test_report_code_roundtrips(self, tmp_path, capsys):
        path = write_code_file(tmp_path, g1_u_code())
        rc, out, _ = run_cli(["analyze", "--code-file", path, "--format", "json"], capsys)
        rep = json.loads(out)
        assert code_from_json_dict(rep["code"]) == g1_u_code()

    def test_unit_code(self, capsys):
        rc, out, _ = run_cli(["analyze", "--p", "2", "--k", "2", "--n", "3",
                              "--gen", "1", "--format", "json"], capsys)
        rep = json.loads(out)
        assert rep["rank"] == 3
        assert rep["distance"]["value"] == 1
        assert rep["dual"]["log_cardinality"] == 0

    def test_zero_code_note(self, tmp_path, capsys):
        pp = PrimeParams(3, 2, 4)
        path = write_code_file(tmp_path, code_from_generators(pp, []))
        rc, out, _ = run_cli(["analyze", "--code-file", path, "--format", "json"], capsys)
        assert rc == 0
        rep = json.loads(out)
        assert rep["distance"]["note"] == "undefined (zero code)"
        assert rep["zero_code"] is True

    def test_gen_strings(self, capsys):
        rc, out, _ = run_cli(["analyze", "--p", "2", "--k", "2", "--n", "4",
                              "--gen", "x^2+1; 1"], capsys)
        assert rc == 0
        assert "shape: PrincipalDividing" in out
        assert "free: yes" in out

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, err = run_cli(["analyze", "--code-file", str(path)], capsys)
        assert rc == 2
        assert "error" in err

    def test_budget_exceeded_exit_3(self, tmp_path, capsys):
        path = write_code_file(tmp_path, g1_u_code())
        rc, _, err = run_cli(["analyze", "--code-file", path,
                              "--distance-mode", "brute-force", "--budget", "4"], capsys)
        assert rc == 3
        assert "budget" in err

    def test_auto_over_budget_names_torsion_requirement(self, tmp_path, capsys):
        # n = 5 is not a power of 3, so auto skips the repeated-root distance; the top
        # torsion code is all of F_3^5, 3^5 codewords (brute force would need 3^19)
        path = write_code_file(tmp_path, g1_u_code())
        rc, out, err = run_cli(["analyze", "--code-file", path, "--budget", "4"], capsys)
        assert rc == 3
        assert out == ""
        assert "243 codewords required, budget is 4" in err

    def test_auto_takes_exact_repeated_root_distance(self, capsys):
        # top torsion (x-1)^4 at n = 9: the paper's law says 4, the code has
        # a weight-3 word, and auto answers with the exact method
        base = ["analyze", "--p", "3", "--k", "2", "--n", "9",
                "--gen", "x^4+2x^3+2x+1; 0"]
        rc, out, _ = run_cli(base, capsys)
        assert rc == 0 and "distance: 3 (repeated-root)" in out
        rc, out, _ = run_cli(base + ["--distance-mode", "closed-form"], capsys)
        assert rc == 0 and "distance: 4 (closed-form)" in out
        rc, out, _ = run_cli(base + ["--distance-mode", "brute-force"], capsys)
        assert rc == 0 and "distance: 3 (brute-force)" in out

    def test_budget_defaults_are_one_constant(self):
        parser = cli.build_parser()
        for command in (["analyze"], ["enumerate", "--p", "2", "--k", "1", "--n", "1"],
                        ["verify"]):
            assert parser.parse_args(command).budget == DEFAULT_BUDGET

    @pytest.mark.parametrize("field, value", [
        ("generators", 5), ("p", "2"), ("p", 2.0), ("k", 1.0)])
    def test_malformed_code_file_exit_2(self, tmp_path, capsys, field, value):
        doc = {"p": 2, "k": 1, "n": 3, "generators": []}
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run_cli(["analyze", "--code-file", str(path)], capsys)
        assert rc == 2
        assert err.startswith("error:")

    def test_huge_exponent_folds_modulo_n(self, capsys):
        # x^(10^12) = x modulo x^3 - 1; the exponent is never expanded densely
        for fmt in ("text", "json"):
            base = ["analyze", "--p", "2", "--k", "1", "--n", "3", "--format", fmt, "--gen"]
            rc, out, err = run_cli(base + ["x^1000000000000+1"], capsys)
            assert rc == 0, err
            assert (rc, out, err) == run_cli(base + ["x+1"], capsys)

    def test_missing_input_exit_2(self, capsys):
        rc, _, err = run_cli(["analyze"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("budget", ["0", "-5", "0^3"])
    def test_nonpositive_budget_is_usage_error(self, budget, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--p", "2", "--k", "1", "--n", "3", "--gen", "x+1",
                  "--budget", budget])
        assert exc.value.code == 2
        assert "budget must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field,message", [("--p", "p must be a prime"),
                                               ("--k", "k must be in"),
                                               ("--n", "n must be in")])
    def test_zero_parameter_reports_real_error(self, field, message, capsys):
        args = {"--p": "2", "--k": "1", "--n": "3", field: "0"}
        argv = ["analyze", "--gen", "x+1"] + [s for kv in args.items() for s in kv]
        rc, _, err = run_cli(argv, capsys)
        assert rc == 2
        assert message in err

    def test_invariant_error_exit_4(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InvariantError("lifted generators do not reconstruct the code")
        monkeypatch.setattr(cli, "build_report", broken)
        rc, out, err = run_cli(["analyze", "--p", "2", "--k", "1", "--n", "3",
                                "--gen", "x+1"], capsys)
        assert rc == 4
        assert out == ""
        assert "reconstruct" in err

    def test_report_reconstructs_once(self, monkeypatch):
        # three present levels; the canonical form is read off the footprint
        # by theorem, not checked or rebuilt, the shape, freeness, constraints
        # and spanning set follow from it, and the dual fields are read by
        # theorem, so the report constructs no code, canonical_form reduces
        # nothing against the footprint, and the level generators are read
        # once per code, not once per use of the canonical form or the tower
        pp = PrimeParams(2, 3, 4)
        code = code_from_generators(pp, [
            RkPoly([FpPoly([1, 1, 1, 1], 2), FpPoly([0, 1], 2)], pp),
            RkPoly([[], FpPoly([1, 0, 1], 2)], pp),
            RkPoly([[], [], FpPoly([1, 1], 2)], pp)])
        assert structure.canonical_form(code).present_levels == (0, 1, 2)
        fresh = code_from_generators(pp, list(code.generators))
        built = []
        real_from_rows = CyclicCode.from_rows.__func__

        def counting_from_rows(cls, params, rows, generators=()):
            built.append(params)
            return real_from_rows(cls, params, rows, generators)
        monkeypatch.setattr(CyclicCode, "from_rows", classmethod(counting_from_rows))
        in_canonical = []
        real_reduce = linalg.reduce_vector

        def counting_reduce(R, pivots, v, p):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not canonical_code:
                frame = frame.f_back
            in_canonical.append(frame is not None)
            return real_reduce(R, pivots, v, p)
        canonical_code = structure.canonical_form.__code__
        monkeypatch.setattr(linalg, "reduce_vector", counting_reduce)
        read = []
        real_levels = CyclicCode.level_generators

        def counting_levels(self):
            read.append(self)
            return real_levels(self)
        monkeypatch.setattr(CyclicCode, "level_generators", counting_levels)
        build_report(fresh)
        build_report(fresh)
        assert built == []
        assert not any(in_canonical)
        assert len(read) == 1 and read[0] is fresh


def small_top_chain(rng, pp, top_dim):
    """A random divisor chain g_(k-1) | ... | g_0 of x^n - 1 whose top torsion
    code <g_(k-1)> has dimension between 1 and top_dim, so its distance is cheap."""
    facs = factor_xn_minus_1(pp)
    rng.shuffle(facs)
    exps = []
    while not any(exps):  # the exponents of the factors of (x^n - 1) / g_(k-1)
        exps, room = [], top_dim
        for q, e in facs:
            exps.append(rng.randint(0, min(e, room // q.degree)))
            room -= exps[-1] * q.degree
    start = [rng.randrange(pp.k) for _ in facs]  # the level each one starts at
    chain = []
    for i in range(pp.k):
        g = FpPoly.one(pp.p)
        for (q, e), t, s in zip(facs, exps, start):
            g = g * q ** (e - t if i >= s else e)
        chain.append(g)
    return chain


class TestJsonReport:
    def test_writer_matches_json_dumps(self):
        # reports across the envelope (p | n included, up to p = 3, k = 8,
        # n = 64), the zero code and codes built from rows, which have no
        # generators and print their footprint rows instead
        rng = random.Random(89)
        top = {2: 12, 3: 8, 5: 5, 7: 4}
        params = [PrimeParams(3, 8, 64), PrimeParams(2, 8, 63), PrimeParams(2, 4, 48),
                  PrimeParams(5, 1, 1), PrimeParams(7, 3, 14)]
        params += [PrimeParams(rng.choice([2, 3, 5, 7]), rng.randint(1, 8), rng.randint(1, 64))
                   for _ in range(6)]
        codes = [code_from_generators(params[0], [])]
        for pp in params:
            code = mixed_tower_code(pp, small_top_chain(rng, pp, top[pp.p]), rng)
            codes += [code, CyclicCode.from_rows(pp, code.footprint)]
        pp = PrimeParams(3, 2, 6)
        small = code_from_generators(pp, [parse_rk_poly("x+2; 1", pp)])
        codes += [small.dual(), CyclicCode.from_rows(pp, small.footprint[:0])]
        assert any(not c.generators and c.dim for c in codes)
        for code in codes:
            rep = build_report(code)
            assert cli._dumps_report(rep) == json.dumps(rep, indent=2), code


class TestEnumerateCommand:
    def test_p3_k4_n5(self, capsys):
        rc, out, _ = run_cli(["enumerate", "--p", "3", "--k", "4", "--n", "5"], capsys)
        assert rc == 0
        assert out.strip().endswith("24 nonzero codes")
        assert len(out.strip().splitlines()) == 25

    def test_small_ring(self, capsys):
        rc, out, _ = run_cli(["enumerate", "--p", "2", "--k", "2", "--n", "1"], capsys)
        assert rc == 0
        assert "2 nonzero codes" in out

    def test_non_coprime_exit_2(self, capsys):
        rc, _, err = run_cli(["enumerate", "--p", "3", "--k", "2", "--n", "3"], capsys)
        assert rc == 2
        assert "coprime" in err

    def test_include_zero(self, capsys):
        rc, out, _ = run_cli(["enumerate", "--p", "2", "--k", "2", "--n", "1",
                              "--include-zero", "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["nonzero_count"] == 2
        assert len(doc["codes"]) == 3

    def test_one_distance_per_top_generator(self, capsys, monkeypatch):
        # x^7 - 1 has 3 factors over F_2: 26 nonzero codes, 7 distinct tops
        params = PrimeParams(2, 2, 7)
        codes = [chain_code(params, t.gens)
                 for t in structure.enumerate_coprime(params) if t.dim]
        tops = []
        real = cli.top_distance

        def counting(gen, params, budget):
            tops.append(gen)
            return real(gen, params, budget)
        monkeypatch.setattr(cli, "top_distance", counting)
        rc, out, _ = run_cli(["enumerate", "--p", "2", "--k", "2", "--n", "7",
                              "--format", "json"], capsys)
        assert rc == 0
        assert len(tops) == len(set(tops)) == 7
        assert ([row["distance"] for row in json.loads(out)["codes"]]
                == [c.min_distance_bruteforce() for c in codes])

    def test_rows_in_chain_order_zero_last(self, capsys):
        # one row per chain, in enumerate_coprime's key order, the zero code last
        params = PrimeParams(3, 2, 4)
        towers = structure.enumerate_coprime(params)
        rc, out, _ = run_cli(["enumerate", "--p", "3", "--k", "2", "--n", "4",
                              "--include-zero", "--format", "json"], capsys)
        rows = json.loads(out)["codes"]
        assert rc == 0 and len(rows) == len(towers) == 27
        assert [(r["generator"], r["rank"], r["log_cardinality"]) for r in rows[:-1]] == [
            (format_rk_poly(t.generator), t.rank, t.dim) for t in towers[:-1]]
        assert rows[-1]["zero_code"] and towers[-1].dim == 0

    def test_budget_exceeded_exit_3(self, capsys):
        rc, _, err = run_cli(["enumerate", "--p", "2", "--k", "2", "--n", "7",
                              "--budget", "4"], capsys)
        assert rc == 3
        assert "budget" in err


class TestVerifyCommand:
    def test_generators_suite_passes(self, capsys):
        rc, out, _ = run_cli(["verify", "--suite", "generators",
                              "--trials", "20", "--seed", "7"], capsys)
        assert rc == 0
        assert "result: PASS" in out
        assert "seed: 7" in out

    def test_dual_suite_passes(self, capsys):
        rc, out, _ = run_cli(["verify", "--suite", "dual",
                              "--trials", "20", "--seed", "1"], capsys)
        assert rc == 0

    def test_negative_trials_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "dual", "--trials", "-3"])
        assert exc.value.code == 2
        assert "trials must be non-negative" in capsys.readouterr().err

    def test_distance_suite_below_3_to_the_6(self, capsys):
        # points whose codes exceed the budget are skipped, not fatal: every
        # distance check still reports (the closed-form sweep fails by design)
        rc, out, _ = run_cli(["verify", "--suite", "distance",
                              "--trials", "2", "--budget", "2^8"], capsys)
        assert rc == 1
        for name in ("distance-closed-form-sweep", "distance-monotone-in-t",
                     "torsion-vs-bruteforce-distance", "distance-product-law"):
            assert f"{name}: " in out

    def test_distance_suite_reports_formula_defect(self, capsys):
        # the closed-form sweep honestly disagrees with the oracle at the
        # cataloged p=3 points, so this suite exits 1 with reproducers
        rc, out, _ = run_cli(["verify", "--suite", "distance",
                              "--trials", "10", "--seed", "7",
                              "--budget", "2^16"], capsys)
        assert rc == 1
        assert '"t_k": 4' in out
        assert "torsion-vs-bruteforce-distance: 10/10" in out


class TestDeterminism:
    def _run(self, args):
        # the child imports the same package as this process, installed or not
        src = str(Path(ucyclic.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "ucyclic", *args],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        return proc.returncode, proc.stdout

    @pytest.mark.parametrize("args", [
        ["factor", "--p", "3", "--n", "5", "--format", "json"],
        ["enumerate", "--p", "3", "--k", "4", "--n", "5"],
        ["verify", "--suite", "generators", "--trials", "10", "--seed", "3"],
    ])
    def test_byte_identical_runs(self, args):
        rc1, out1 = self._run(args)
        rc2, out2 = self._run(args)
        assert rc1 == rc2
        assert out1 == out2
        assert out1
