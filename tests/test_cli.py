import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filterderiv
from filterderiv import LimitConfig
from filterderiv import filterbase as fb

GOLDEN = Path(__file__).parent / "golden"
TOP_KEYS = {"command", "params", "status", "value", "trace_file", "oracle", "notes"}


def run_cli(*argv, cwd=None):
    """python -m filterderiv; in cwd if given, importing this test run's package."""
    env = cwd and {**os.environ, "PYTHONPATH": str(Path(filterderiv.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "filterderiv", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


GOLDEN_CASES = [
    ("derive_abs_right.json", 0,
     ["derive", "--expr", "abs(x)", "--x0", "0",
      "--base", "right:delta0=1,ratio=0.5", "--oracle"]),
    ("derive_abs_punctured.json", 2,
     ["derive", "--expr", "abs(x)", "--x0", "0",
      "--base", "punctured:delta0=1,ratio=0.5"]),
    ("derive_x2cos_converged.json", 0,
     ["derive", "--expr", "x^2*cos(x)", "--x0", "1.5", "--base", "punctured:",
      "--tol-osc", "1e-4", "--tol-step", "3e-7", "--trace", "derive_x2cos_converged.csv"]),
    ("derive_sqrt_cos_domain_error.json", 4,
     ["derive", "--expr", "sqrt(cos(x*1000)+0.999)", "--x0", "0.5", "--base", "punctured:"]),
    ("derive_sin_unmoved.json", 3,
     ["derive", "--expr", "sin(x)", "--x0", "1e16", "--base", "punctured:"]),
    ("check_quotient_right.json", 0,
     ["check", "quotient", "--f", "x", "--g", "1+abs(x)", "--x0", "0",
      "--base", "right:delta0=1,ratio=0.5",
      "--tol-osc", "1e-4", "--tol-step", "1e-7"]),
    ("verify_base_pass.json", 0,
     ["verify-base", "--base", "punctured:delta0=1,ratio=0.5",
      "--levels", "64"]),
    ("parse_error.json", 4,
     ["derive", "--expr", "abs(x", "--x0", "0",
      "--base", "right:delta0=1,ratio=0.5"]),
    ("continuity_sign_right.json", 2,
     ["continuity", "--expr", "sign(x)", "--a", "0",
      "--base", "right:delta0=1,ratio=0.5"]),
    ("limit_h_right.json", 0,
     ["limit", "--expr", "h", "--base", "right:delta0=1,ratio=0.5"]),
    ("limit_h_right_5_levels.json", 3,
     ["limit", "--expr", "h", "--base", "right:delta0=1,ratio=0.5",
      "--levels", "5"]),
    ("continuity_square_right.json", 0,
     ["continuity", "--expr", "x^2", "--a", "1",
      "--base", "right:delta0=1,ratio=0.5"]),
    ("check_linearity_right.json", 0,
     ["check", "linearity", "--f", "x", "--g", "1+abs(x)", "--x0", "0",
      "--base", "right:delta0=1,ratio=0.5",
      "--tol-osc", "1e-4", "--tol-step", "1e-7"]),
    ("check_product_right.json", 0,
     ["check", "product", "--f", "x", "--g", "1+abs(x)", "--x0", "0",
      "--base", "right:delta0=1,ratio=0.5",
      "--tol-osc", "1e-4", "--tol-step", "1e-7"]),
    ("check_linearity_sign_right.json", 3,
     ["check", "linearity", "--f", "sign(x)", "--g", "x^2", "--x0", "0",
      "--base", "right:delta0=1,ratio=0.5",
      "--tol-osc", "1e-4", "--tol-step", "1e-7"]),
    ("check_product_sign_right.json", 3,
     ["check", "product", "--f", "sign(x)", "--g", "x^2", "--x0", "0",
      "--base", "right:delta0=1,ratio=0.5",
      "--tol-osc", "1e-4", "--tol-step", "1e-7"]),
    ("limit_two_vars.json", 4,
     ["limit", "--expr", "h*y", "--base", "right:delta0=1,ratio=0.5"]),
    ("verify_base_seq_geo_alternating.json", 0,
     ["verify-base", "--base", "seq:kind=geo,c=-1,q=-0.5", "--levels", "20"]),
    ("verify_base_seq_piovern_2000.json", 0,
     ["verify-base", "--base", "seq:kind=piovern", "--levels", "2000"]),
    # f fails on level 2: the rule's level loop raises and the row path answers
    ("check_product_fallback_right.json", 3,
     ["check", "product", "--f", "sqrt(cos(x*1000)+0.999)", "--g", "x+1", "--x0", "0",
      "--base", "right:delta0=1,ratio=0.5"]),
]


class TestGoldenFiles:
    @pytest.mark.parametrize("golden,code,argv",
                             GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_output_matches_golden(self, golden, code, argv, tmp_path):
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == code
        assert res.stdout == (GOLDEN / golden).read_text()
        if "--trace" in argv:  # a trace file is golden too, under the name given
            trace = argv[argv.index("--trace") + 1]
            assert (tmp_path / trace).read_bytes() == (GOLDEN / trace).read_bytes()

    @pytest.mark.parametrize("golden,code,argv",
                             GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_schema_keys_stable(self, golden, code, argv):
        payload = json.loads((GOLDEN / golden).read_text())
        assert set(payload) == TOP_KEYS


class TestExitCodes:
    def test_undecided_is_3(self):
        # x*sin(1/x) quotient oscillates but with oscillation under the
        # default no-limit floor it stays undecided at a tiny level budget
        res = run_cli("limit", "--expr", "sin(1/h)*1e-9",
                      "--base", "punctured:delta0=1,ratio=0.5",
                      "--levels", "5")
        assert res.returncode == 3
        assert json.loads(res.stdout)["status"] == "undecided"

    def test_bad_base_spec_is_4(self):
        res = run_cli("derive", "--expr", "abs(x)", "--x0", "0",
                      "--base", "cofinite:delta0=1")
        assert res.returncode == 4
        payload = json.loads(res.stdout)
        assert payload["status"] == "input-error"
        assert "unknown base family" in payload["notes"][0]

    @pytest.mark.parametrize("base,note", [
        ("right:delta0", "malformed base option 'delta0' in 'right:delta0'"),
        ("right:ratio=0.5,ratio=0.25",
         "duplicate base option 'ratio' in 'right:ratio=0.5,ratio=0.25'"),
        ("right:ratio=half", "base option 'ratio' is not a number"),
        ("right:q=0.5", "unknown base options ['q'] in 'right:q=0.5'"),
        ("seq:c=1", "base spec 'seq:c=1' is missing 'kind'"),
        ("seq:kind=geo,p=2", "unknown base options ['p'] in 'seq:kind=geo,p=2'"),
        ("seq:kind=cubic", "unknown sequence kind 'cubic' (expected powinv, geo, or piovern)"),
    ])
    def test_bad_base_option_is_4_with_one_note(self, capsys, base, note):
        code, payload = main_json(capsys, "derive", "--expr", "x", "--x0", "0",
                                  "--base", base)
        assert code == 4
        assert payload["status"] == "input-error"
        assert payload["notes"] == [note]

    def test_negative_check_tol_is_4_with_one_note(self, capsys):
        code, payload = main_json(capsys, "check", "product", "--f", "x", "--g", "x",
                                  "--x0", "1", "--base", "punctured:", "--tol-osc", "1e-4",
                                  "--tol-step", "1e-7", "--check-tol", "-1")
        assert code == 4
        assert payload["status"] == "input-error"
        assert payload["notes"] == ["check_tol must be a finite real >= 0"]

    def test_non_finite_rhs_is_inconclusive_3(self, capsys):
        # f' and g' converge near 1e155, but g(x0)^2 = 4e310 overflows
        code, payload = main_json(capsys, "check", "quotient", "--f", "1e155*x",
                                  "--g", "1e155*(1+x)", "--x0", "1", "--base", "punctured:",
                                  "--tol-osc", "1e150", "--tol-step", "1e-6")
        assert code == 3
        assert payload["status"] == "inconclusive"
        assert payload["notes"][:3] == ["rhs_value=None", "abs_error=None", "rel_error=None"]
        assert "right-hand side is not a finite real (rhs=nan)" in payload["notes"]

    def test_unknown_flag_is_4(self):
        res = run_cli("derive", "--expr", "abs(x)", "--x0", "0",
                      "--base", "right:delta0=1,ratio=0.5", "--frobnicate")
        assert res.returncode == 4

    def test_quotient_zero_denominator_is_4(self):
        res = run_cli("check", "quotient", "--f", "x", "--g", "x", "--x0", "0",
                      "--base", "right:delta0=1,ratio=0.5")
        assert res.returncode == 4

    @pytest.mark.parametrize("argv", [
        ["limit", "--expr", "h", "--base", "right:delta0=1,ratio=0.5", "--json"],
        ["derive", "--expr", "x", "--x0", "0", "--base", "right:delta0=1,ratio=0.5",
         "--json"],
    ])
    def test_json_flag_is_a_usage_error(self, capsys, argv):
        code, payload = main_json(capsys, *argv)
        assert code == 4
        assert payload["status"] == "input-error"
        assert payload["notes"] == ["unrecognized arguments: --json"]

    @pytest.mark.parametrize("argv,command", [
        (["derive", "--expr", "x", "--base", "right:delta0=1,ratio=0.5"], "derive"),
        (["check", "linearity", "--f", "x", "--g", "x", "--x0", "0.5", "--alpha", "inf",
          "--base", "punctured:delta0=1,ratio=0.5"], "check"),
        (["verify-base"], "verify-base"),
        (["limit", "--expr", "h"], "limit"),
        (["continuity", "--expr", "x", "--base", "right:delta0=1,ratio=0.5"], "continuity"),
        (["frobnicate", "--expr", "x"], "unknown"),
        (["--expr", "x", "derive"], "unknown"),
        ([], "unknown"),
    ])
    def test_usage_error_names_its_command(self, capsys, argv, command):
        code, payload = main_json(capsys, *argv)
        assert code == 4
        assert payload["status"] == "input-error"
        assert payload["command"] == command
        assert payload["params"] == {"argv": argv}

    def test_two_free_variables_is_4(self):
        res = run_cli("derive", "--expr", "x*y", "--x0", "0",
                      "--base", "right:delta0=1,ratio=0.5")
        assert res.returncode == 4


class TestTraceOutput:
    def test_trace_written_regardless_of_status(self, tmp_path):
        trace = tmp_path / "trace.csv"
        res = run_cli("derive", "--expr", "abs(x)", "--x0", "0",
                      "--base", "punctured:delta0=1,ratio=0.5",
                      "--trace", str(trace))
        assert res.returncode == 2
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "k,scale,min,max,mean,osc"
        assert len(lines) == 50  # header + levels 0..48
        assert json.loads(res.stdout)["trace_file"] == str(trace)

    def test_check_traces_combined_estimate(self, tmp_path):
        trace = tmp_path / "lhs.csv"
        res = run_cli("check", "linearity", "--f", "abs(x)", "--g", "x",
                      "--alpha", "2", "--beta", "3", "--x0", "0",
                      "--base", "right:delta0=1,ratio=0.5",
                      "--trace", str(trace))
        assert res.returncode == 0
        rows = trace.read_text().strip().split("\n")[1:]
        # quotient of 2*abs+3*x is 5 on (0, delta) up to rounding in 3*h
        assert all(abs(float(row.split(",")[2]) - 5.0) <= 1e-12 for row in rows)


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["derive", "--expr", "sin(x)*exp(x/3)", "--x0", "0.4",
                "--base", "punctured:delta0=1,ratio=0.5",
                "--tol-osc", "1e-4", "--tol-step", "3e-7", "--seed", "9"]
        r1 = run_cli(*argv, "--trace", str(t1))
        r2 = run_cli(*argv, "--trace", str(t2))
        assert r1.stdout.replace(str(t1), "T") == r2.stdout.replace(str(t2), "T")
        assert r1.returncode == r2.returncode
        assert t1.read_bytes() == t2.read_bytes()


class TestOracleFlag:
    def test_one_sided_oracle_matches(self):
        res = run_cli("derive", "--expr", "abs(x)", "--x0", "0",
                      "--base", "left:delta0=1,ratio=0.5", "--oracle")
        payload = json.loads(res.stdout)
        assert payload["value"] == -1.0
        oracle = payload["oracle"]
        assert oracle["richardson_left"]["value"] == -1.0
        assert oracle["richardson_right"] is None
        assert "kink" in oracle["symbolic_note"]

    def test_symbolic_domain_error_is_a_note(self, capsys):
        _, payload = main_json(capsys, "derive", "--expr", "sqrt(x)", "--x0", "0",
                               "--base", "right:", "--oracle")
        oracle = payload["oracle"]
        assert oracle["symbolic"] is None
        assert oracle["symbolic_note"] == (
            "domain error: division by zero in 1.0/(2.0*sqrt(x)) (argument 0.0)")

    def test_symbolic_where_f_is_undefined_is_a_note(self, capsys):
        code, payload = main_json(capsys, "derive", "--expr", "log(x)", "--x0", "-1000",
                                  "--base", "punctured:", "--oracle")
        oracle = payload["oracle"]
        assert (code, payload["status"], oracle["symbolic"]) == (4, "domain-error", None)
        assert oracle["symbolic_note"].startswith("domain error:")

    def test_smooth_point_symbolic_agrees(self):
        res = run_cli("derive", "--expr", "x^2", "--x0", "1.5",
                      "--base", "punctured:delta0=1,ratio=0.5",
                      "--tol-osc", "1e-4", "--tol-step", "3e-7", "--oracle")
        payload = json.loads(res.stdout)
        oracle = payload["oracle"]
        assert oracle["symbolic"]["value"] == 3.0
        assert abs(payload["value"] - 3.0) <= 1e-5
        assert abs(oracle["richardson_right"]["value"] - 3.0) <= 1e-8

    @pytest.mark.parametrize("base,sides", [
        ("seq:kind=powinv,c=1", {"right"}),
        ("seq:kind=piovern,c=-2", {"left"}),
        ("seq:kind=geo,c=1,q=-0.5", {"right", "left"}),
    ])
    def test_richardson_sides_are_the_sides_the_base_approaches_from(
            self, capsys, base, sides):
        _, payload = main_json(capsys, "derive", "--expr", "abs(x)", "--x0", "0",
                               "--base", base, "--oracle")
        oracle = payload["oracle"]
        got = {side for side in ("right", "left") if oracle[f"richardson_{side}"]}
        assert got == sides
        for side in sides:
            assert oracle[f"richardson_{side}"]["value"] == (1.0 if side == "right" else -1.0)


class TestUnmovedSamples:
    """Levels whose samples can leave x0 where it is cannot make an estimate
    converge: the first such level ends it undecided. Each of these
    converged on them at an earlier version."""

    @pytest.mark.parametrize("argv,status", [
        (["derive", "--expr", "sin(x)", "--x0", "1e16", "--base", "punctured:"], "undecided"),
        (["derive", "--expr", "sin(x)", "--x0", "1e16", "--base", "punctured:",
          "--tol-osc", "1e-4", "--tol-step", "3e-7", "--oracle"], "undecided"),
        (["check", "product", "--f", "sin(x)", "--g", "cos(x)", "--x0", "1e16",
          "--base", "punctured:", "--tol-osc", "1e-4", "--tol-step", "1e-7"], "inconclusive"),
        (["continuity", "--expr", "sign(x-1e16)", "--a", "1e16", "--base", "punctured:"],
         "undecided"),
    ])
    def test_exits_3(self, capsys, argv, status):
        code, payload = main_json(capsys, *argv)
        assert (code, payload["status"], payload["value"]) == (3, status, None)

    def test_rule_check_names_the_unmoved_level(self, capsys):
        # level 0 of the check can leave 1e16 unmoved, so f' is undecided as
        # derive's estimate of it is, which names the level
        argv = ["--x0", "1e16", "--base", "punctured:", "--tol-osc", "1e-4", "--tol-step", "1e-7"]
        _, payload = main_json(capsys, "check", "product", "--f", "sin(x)", "--g", "cos(x)",
                               *argv)
        assert "f_prime=None (undecided)" in payload["notes"]
        _, payload = main_json(capsys, "derive", "--expr", "sin(x)", *argv)
        assert payload["notes"] == [
            "resolution exhausted at level 0: |h| down to 0.5 <= ulp(x0) / 2 = 1.0, "
            "where x0 + h can equal x0"]


def test_huge_sequence_budget_is_an_input_error(capsys, monkeypatch):
    # a 401-digit --levels reaches sequence_base, whose last term underflows:
    # exit 4 without building the terms (a long range of them fails the test)
    def short(*args):
        if (r := range(*args)).stop - r.start > 10**6:
            raise AssertionError(f"builds terms up to {r.stop}")
        return r
    monkeypatch.setattr(fb, "range", short, raising=False)
    code, payload = main_json(capsys, "limit", "--expr", "h", "--base", "seq:kind=piovern",
                              "--levels", "1" + "0" * 400)
    assert (code, payload["status"]) == (4, "input-error")
    assert payload["notes"] == [
        "sequence term underflowed to 0 or overflowed; shorten the tail or change parameters"]


@pytest.mark.parametrize("base", ["seq:kind=piovern,c=1e308", "seq:kind=powinv,p=0.001"])
def test_huge_budget_of_lasting_terms_is_an_input_error(base, capsys, monkeypatch):
    # the last term stays above underflow, but past n = 2**53 two indices are
    # one double and their terms equal: exit 4 without building the terms
    def short(*args):
        if (r := range(*args)).stop - r.start > 10**6:
            raise AssertionError(f"builds terms up to {r.stop}")
        return r
    monkeypatch.setattr(fb, "range", short, raising=False)
    code, payload = main_json(capsys, "limit", "--expr", "h", "--base", base,
                              "--levels", "1" + "0" * 400)
    assert (code, payload["status"]) == (4, "input-error")
    assert payload["notes"] == ["sequence is not strictly decreasing in magnitude"]


class TestRuleChecksAtAnUndefinedX0:
    """check_linearity needs no value at x0 beyond the quotients': f undefined
    there is f's domain-error estimate. check_product_rule needs f(x0) for
    its right-hand side and raises a DomainError before any estimate."""

    def test_linearity_is_inconclusive(self, capsys):
        code, payload = main_json(capsys, "check", "linearity", "--f", "log(x)", "--g", "x",
                                  "--x0", "0", "--base", "punctured:")
        assert (code, payload["status"]) == (3, "inconclusive")
        assert "derivative of f did not converge (status: domain-error)" in payload["notes"]

    def test_product_is_an_input_error(self, capsys):
        code, payload = main_json(capsys, "check", "product", "--f", "log(x)", "--g", "x",
                                  "--x0", "0", "--base", "punctured:")
        assert (code, payload["status"]) == (4, "input-error")
        assert payload["notes"] == ["log applied outside its domain in log(x) (argument 0.0)"]


class TestParamsEcho:
    def test_defaults_echoed(self):
        res = run_cli("limit", "--expr", "h", "--base", "right:delta0=1,ratio=0.5")
        params = json.loads(res.stdout)["params"]
        for key in ("levels", "samples", "tol_osc", "tol_step", "stable",
                    "seed", "no_limit_floor", "base_id", "base_params"):
            assert key in params
        assert params["levels"] == 48
        assert params["seed"] == 0
        # a flag-free run echoes the library's defaults
        d = LimitConfig()
        assert {k: params[k] for k in ("levels", "samples", "tol_osc", "tol_step",
                                       "stable", "no_limit_floor", "seed")} == {
            "levels": d.max_level, "samples": d.samples_per_level,
            "tol_osc": d.tol_osc, "tol_step": d.tol_step,
            "stable": d.stable_levels, "no_limit_floor": d.no_limit_floor,
            "seed": d.seed}

    def test_sequence_tail_echoed(self, capsys):
        _, payload = main_json(capsys, "limit", "--expr", "h",
                               "--base", "seq:kind=geo", "--levels", "8")
        assert payload["params"]["base_params"]["tail_points"] == 256


class TestBaseSpecs:
    """A chain's id is the base spec that builds it again."""

    @pytest.mark.parametrize("make,chain_id,params", [
        (lambda: fb.punctured_base(1.0, 0.5, max_level=48),
         "punctured:delta0=1.0,ratio=0.5",
         {"kind": "punctured", "delta0": 1.0, "ratio": 0.5, "max_level": 48}),
        (lambda: fb.right_base(1e-05, 0.25, max_level=40),
         "right:delta0=1e-05,ratio=0.25",
         {"kind": "right", "delta0": 1e-05, "ratio": 0.25, "max_level": 40}),
        (lambda: fb.left_base(3.0, 0.9, max_level=12),
         "left:delta0=3.0,ratio=0.9",
         {"kind": "left", "delta0": 3.0, "ratio": 0.9, "max_level": 12}),
        (lambda: fb.sequence_base(fb.SequenceSpec("powinv", c=1.0, p=1.0), max_level=48),
         "seq:kind=powinv,c=1.0,p=1.0",
         {"kind": "seq", "seq_kind": "powinv", "c": 1.0, "p": 1.0,
          "max_level": 48, "tail_points": 256}),
        (lambda: fb.sequence_base(fb.SequenceSpec("powinv", c=-2.5, p=0.5), max_level=8),
         "seq:kind=powinv,c=-2.5,p=0.5",
         {"kind": "seq", "seq_kind": "powinv", "c": -2.5, "p": 0.5,
          "max_level": 8, "tail_points": 256}),
        (lambda: fb.sequence_base(fb.SequenceSpec("geo", c=1.0, q=0.5), max_level=48),
         "seq:kind=geo,c=1.0,q=0.5",
         {"kind": "seq", "seq_kind": "geo", "c": 1.0, "q": 0.5,
          "max_level": 48, "tail_points": 256}),
        (lambda: fb.sequence_base(fb.SequenceSpec("geo", c=-1.0, q=-0.5), max_level=20),
         "seq:kind=geo,c=-1.0,q=-0.5",
         {"kind": "seq", "seq_kind": "geo", "c": -1.0, "q": -0.5,
          "max_level": 20, "tail_points": 256}),
        (lambda: fb.sequence_base(fb.SequenceSpec("piovern", c=1.0), max_level=48),
         "seq:kind=piovern,c=1.0",
         {"kind": "seq", "seq_kind": "piovern", "c": 1.0,
          "max_level": 48, "tail_points": 256}),
        (lambda: fb.sequence_base(fb.SequenceSpec("piovern", c=-2.0), max_level=8),
         "seq:kind=piovern,c=-2.0",
         {"kind": "seq", "seq_kind": "piovern", "c": -2.0,
          "max_level": 8, "tail_points": 256}),
    ], ids=["punctured", "right-delta0-1e-05", "left", "powinv", "powinv-c<0", "geo",
            "geo-c<0-q<0", "piovern", "piovern-c<0"])
    def test_id_parses_back(self, make, chain_id, params):
        """The id and params of each kind of chain, pinned, so that a change
        to both sides of the round trip is still seen."""
        from filterderiv.cli import parse_base_spec
        b = make()
        again = parse_base_spec(b.id, max_level=b.max_level)
        assert (b.id, b.params) == (chain_id, params)
        assert (again.id, again.params) == (b.id, b.params)


class TestSamplesAndStable:
    """--samples and --stable reach LimitConfig and the echo like the other
    limit flags."""

    def test_run_matches_library(self, capsys, tmp_path):
        from filterderiv import estimate_limit, format_trace_csv, right_base
        trace = tmp_path / "t.csv"
        code, payload = main_json(capsys, "limit", "--expr", "h", "--base", "right:",
                                  "--samples", "8", "--stable", "2", "--levels", "6",
                                  "--trace", str(trace))
        cfg = LimitConfig(max_level=6, samples_per_level=8, stable_levels=2)
        est = estimate_limit(lambda h: h, right_base(1.0, 0.5, max_level=6), cfg)
        assert trace.read_text() == format_trace_csv(est)
        # the oscillation of h halves with the scale: the budget leaves it undecided
        assert code == 3 and payload["status"] == est.status == "undecided"
        assert payload["params"]["samples"] == 8 and payload["params"]["stable"] == 2

    @pytest.mark.parametrize("flags,message", [
        (["--samples", "1"], "samples_per_level must be >= 2"),
        (["--stable", "0"], "stable_levels must be >= 1"),
        (["--stable", "9", "--levels", "8"], "max_level must be >= stable_levels"),
    ], ids=["samples-1", "stable-0", "stable-above-levels"])
    def test_invalid_value_is_input_error(self, capsys, flags, message):
        code, payload = main_json(capsys, "limit", "--expr", "h", "--base", "right:",
                                  *flags)
        assert code == 4
        assert payload["status"] == "input-error"
        assert payload["notes"] == [message]


class TestHelp:
    """--help is the one output that is not a JSON object: argparse's usage
    text on stdout, exit 0."""

    @pytest.mark.parametrize("argv,usage", [
        (["--help"], "usage: filterderiv "),
        (["derive", "--help"], "usage: filterderiv derive "),
    ], ids=["top", "derive"])
    def test_help_prints_usage_and_exits_0(self, argv, usage):
        res = run_cli(*argv)
        assert res.returncode == 0
        assert res.stdout.startswith(usage)
        assert res.stderr == ""


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Start-up cost: a fresh interpreter importing the CLI loads none of
    these heavy stdlib modules. -S keeps site-packages' .pth files, which
    may import typing themselves, out of the measurement."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import filterderiv, filterderiv.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'decimal', 'fractions', 'numbers'}"
            " & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-S", "-c", code,
                          str(Path(filterderiv.__file__).parents[1])],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def strict_json(text):
    """Parse stdout as strict JSON: Infinity, -Infinity and NaN are errors."""
    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in stdout")
    return json.loads(text, parse_constant=reject)


def main_json(capsys, *argv):
    """Run cli.main in-process; return its exit code and its one JSON object."""
    from filterderiv import cli
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)   # raises unless stdout is exactly one object


class TestCheckNotes:
    CHECK = ["--x0", "0", "--base", "right:delta0=1,ratio=0.5",
             "--tol-osc", "1e-4", "--tol-step", "1e-7"]

    @pytest.mark.parametrize("rule,f,g,code,named", [
        ("product", "sign(x)", "x^2", 3, [("f", "not continuous"), ("g", "continuous")]),
        ("product", "x^2", "sign(x)", 3, [("f", "continuous"), ("g", "not continuous")]),
        ("quotient", "x", "1+abs(x)", 0, [("g", "continuous")]),
        ("linearity", "sign(x)", "x^2", 3, []),
    ])
    def test_continuity_notes_name_their_function(self, capsys, rule, f, g, code, named):
        rc, out = main_json(capsys, "check", rule, "--f", f, "--g", g, *self.CHECK)
        assert rc == code
        notes = [n for n in out["notes"] if n.startswith("f_continuity(")]
        assert [(n[len("f_continuity("):].split(",")[0], n.rsplit(": ", 1)[1])
                for n in notes] == named

    def test_ingredient_notes_follow_rel_error(self, capsys):
        rc, out = main_json(capsys, "check", "product", "--f", "sign(x)", "--g", "x^2",
                            *self.CHECK)
        assert rc == 3
        notes = out["notes"]
        i = notes.index("rel_error=None")
        assert notes[i + 1] == "f_prime=None (no-limit)"
        value, status = notes[i + 2].removeprefix("g_prime=").split(" ")
        assert status == "(converged)" and abs(float(value)) <= 1e-6
        assert "derivative of f did not converge (status: no-limit)" in notes


class TestHostileExpressions:
    def test_overflowing_literal_is_input_error(self):
        res = run_cli("derive", "--expr", "1e999*x", "--x0", "0",
                      "--base", "right:delta0=1,ratio=0.5")
        assert res.returncode == 4
        payload = json.loads(res.stdout)
        assert payload["status"] == "input-error"
        assert "finite number" in payload["notes"][0]
        assert res.stderr == ""

    @pytest.mark.parametrize("expr", ["(" * 1000 + "x" + ")" * 1000, "-" * 1000 + "x"],
                             ids=["brackets", "signs"])
    def test_deep_nesting_is_input_error(self, capsys, expr):
        code, payload = main_json(capsys, "derive", f"--expr={expr}", "--x0", "0",
                                  "--base", "right:delta0=1,ratio=0.5")
        assert code == 4
        assert payload["status"] == "input-error"
        assert "levels of nesting" in payload["notes"][0]

    def test_deep_nesting_in_a_child_process(self):
        res = run_cli("check", "product", "--f", "(" * 1000 + "x" + ")" * 1000,
                      "--g", "x", "--x0", "0", "--base", "right:delta0=1,ratio=0.5")
        assert res.returncode == 4
        assert json.loads(res.stdout)["status"] == "input-error"
        assert res.stderr == ""

    @pytest.mark.parametrize("expr,a", [("x^x", "-inf"), ("(0-2)^x", "nan"),
                                        ("1/x", "inf")])
    def test_non_finite_point_is_input_error(self, capsys, expr, a):
        code, payload = main_json(capsys, "continuity", "--expr", expr, f"--a={a}",
                                  "--base", "right:delta0=1,ratio=0.5")
        assert code == 4
        assert payload["status"] == "input-error"
        assert "finite real" in payload["notes"][0]

    @pytest.mark.parametrize("flag", ["--x0", "--alpha", "--beta", "--check-tol",
                                      "--tol-osc", "--tol-step"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_number_flag_is_strict_json_input_error(self, capsys, flag, value):
        argv = ["check", "linearity", "--f", "x", "--g", "x", "--x0", "0.5",
                "--base", "punctured:delta0=1,ratio=0.5", f"{flag}={value}"]
        from filterderiv import cli
        code = cli.main(argv)
        payload = strict_json(capsys.readouterr().out)
        assert code == 4
        assert payload["status"] == "input-error"
        assert payload["notes"] == [f"argument {flag}: {value!r} is not a finite real number"]

    def test_non_finite_alpha_in_a_child_process(self):
        res = run_cli("check", "linearity", "--f", "x", "--g", "x", "--x0", "0.5",
                      "--alpha", "inf", "--base", "punctured:delta0=1,ratio=0.5")
        assert res.returncode == 4
        assert strict_json(res.stdout)["status"] == "input-error"
        assert res.stderr == ""

    def test_malformed_number_message_unchanged(self, capsys):
        code, payload = main_json(capsys, "derive", "--expr", "x", "--x0", "abc",
                                  "--base", "right:delta0=1,ratio=0.5")
        assert code == 4
        assert payload["notes"] == ["argument --x0: invalid float value: 'abc'"]

    @pytest.mark.parametrize("argv,code,note", [
        (["derive", "--expr", "x²", "--x0", "1", "--base", "right:"], 4,
         "syntax error at offset 1: expected a token, found '²'"),
        (["derive", "--expr", "x+٣", "--x0", "1", "--base", "right:"], 4,
         "syntax error at offset 2: expected a token, found '٣'"),
        (["limit", "--expr", "1e308+h", "--base", "right:"], 0, None),
        (["derive", "--expr", "x", "--x0", "1", "--base", "punctured:delta0=1e308"], 4,
         "level 0 is too wide to sample 32 points"),
        (["check", "quotient", "--f", "x", "--g", "x", "--x0", "1e-200",
          "--base", "right:"], 4,
         "quotient rule requires g(x0)^2 != 0, but g(1e-200) = 1e-200 squares to 0"),
        (["derive", "--expr", "x", "--x0", "1", "--base", "right:", "--levels", "10000000"],
         4, "delta0*ratio**997 = 7.466108948025751e-301 is below 1e-300; reduce max_level"),
    ], ids=["superscript", "non-ascii-digit", "huge-mean", "huge-width",
            "tiny-denominator", "too-deep"])
    def test_float_range_edges_keep_the_contract(self, capsys, argv, code, note):
        got, payload = main_json(capsys, *argv)
        assert got == code
        if note is None:
            assert payload["value"] == 1e308
        else:
            assert payload["notes"] == [note]

    @pytest.mark.parametrize("expr,symbolic", [
        ("(" * 99 + "x" + ")" * 99, 1.0),
        ("-" * 99 + "x", -1.0),
        ("+".join(["x"] * 100), 100.0),
        ("1/(" * 49 + "x" + ")" * 49, -4.0),
    ], ids=["brackets", "signs", "sum", "reciprocals"])
    def test_deepest_accepted_input_runs_oracle(self, capsys, expr, symbolic):
        code, payload = main_json(capsys, "derive", f"--expr={expr}", "--x0", "0.5",
                                  "--base", "right:delta0=1,ratio=0.5", "--oracle")
        assert code in (0, 2, 3)
        assert payload["oracle"]["symbolic"]["value"] == symbolic


# Inputs of the contract property: ordinary ones, and ones at the edges of
# the grammar and of the float range.
CONTRACT_EXPRS = ["x", "h", "abs(x)", "sign(x)", "1/x", "log(x)", "x^2", "sin(1/x)",
                  "x*y", "x²", "x⁰", "1e308+h", "1e308*x"]
CONTRACT_BASES = ["right:", "left:", "punctured:", "right:delta0=2,ratio=0.25",
                  "seq:kind=piovern", "seq:kind=geo,q=-0.5", "punctured:delta0=1e308",
                  "seq:kind=powinv,c=1e308,p=1e-3"]
CONTRACT_NUMBERS = ["0", "1", "-0.5", "1e-200", "1e308", "-1e308"]


@st.composite
def contract_argv(draw):
    def expr():
        return draw(st.sampled_from(CONTRACT_EXPRS))

    def number():
        return draw(st.sampled_from(CONTRACT_NUMBERS))

    command = draw(st.sampled_from(["derive", "limit", "continuity", "check",
                                    "verify-base"]))
    if command == "derive":
        argv = ["derive", "--expr", expr(), "--x0", number()]
        argv += ["--oracle"] if draw(st.booleans()) else []
    elif command == "limit":
        argv = ["limit", "--expr", expr()]
    elif command == "continuity":
        argv = ["continuity", "--expr", expr(), "--a", number()]
    elif command == "check":
        argv = ["check", draw(st.sampled_from(["linearity", "product", "quotient"])),
                "--f", expr(), "--g", expr(), "--x0", number(), "--alpha", number()]
    else:
        argv = ["verify-base"]
    return argv + ["--base", draw(st.sampled_from(CONTRACT_BASES)),
                   "--levels", str(draw(st.integers(min_value=0, max_value=8)))]


class TestContractProperty:
    # Derandomized with a fixed example count, so a failure in CI replays
    # with the same argv on any machine.
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(contract_argv())
    def test_exit_code_and_one_json_object(self, argv):
        from filterderiv import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        assert isinstance(strict_json(out.getvalue()), dict)
