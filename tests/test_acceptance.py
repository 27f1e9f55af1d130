"""Acceptance suite: every criterion in one module, one printed PASS/FAIL
line per criterion, each at its stated tolerance.

Criteria 1, 2, 4 and 9 run at the library's default LimitConfig; the
classical-equivalence corpus and the rule suites run at the configs in
corpus.py, whose tolerances respect the rounding-noise floor of difference
quotients (the acceptance tolerances themselves are unchanged).
"""

import json
import subprocess
import sys
from pathlib import Path

import filterderiv as fd
from corpus import PQ_CFG, SMOOTH_CASES, SMOOTH_CFG, rule_draws

DEFAULT_CFG = fd.LimitConfig()


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "filterderiv", *argv],
                          capture_output=True, text=True, timeout=120)


def test_criterion_1_one_sided_abs_exact():
    f = fd.as_function(fd.parse("abs(x)"))
    right = fd.derivative(f, 0.0, fd.right_base(1.0, 0.5), DEFAULT_CFG)
    left = fd.derivative(f, 0.0, fd.left_base(1.0, 0.5), DEFAULT_CFG)
    ok = (right.status == fd.CONVERGED and right.value == 1.0
          and left.status == fd.CONVERGED and left.value == -1.0)
    report(1, ok, f"abs at 0: right={right.value!r}, left={left.value!r} "
                  "(exact one-sided values)")


def test_criterion_2_no_limit_at_kink():
    f = fd.as_function(fd.parse("abs(x)"))
    res = fd.derivative(f, 0.0, fd.punctured_base(1.0, 0.5), DEFAULT_CFG)
    oscs = [r.oscillation for r in res.estimate.trace]
    cli = run_cli("derive", "--expr", "abs(x)", "--x0", "0",
                  "--base", "punctured:delta0=1,ratio=0.5")
    ok = (res.status == fd.NO_LIMIT
          and all(1.9 <= o <= 2.0 for o in oscs)
          and cli.returncode == 2)
    report(2, ok, f"abs at 0 across 0: {res.status}, "
                  f"osc range [{min(oscs)}, {max(oscs)}], CLI exit {cli.returncode}")


def test_criterion_3_classical_equivalence():
    passed = 0
    total = 0
    worst = 0.0
    for text, pts in SMOOTH_CASES:
        e = fd.parse(text)
        f = fd.as_function(e)
        for x0 in pts:
            total += 1
            res = fd.classical_derivative(f, x0, SMOOTH_CFG)
            truth = fd.symbolic_derivative_value(e, "x", x0).value
            if res.converged and abs(res.value - truth) <= 1e-6 * abs(truth):
                passed += 1
                worst = max(worst, abs(res.value - truth) / abs(truth))
    report(3, passed == total == 50,
           f"classical vs symbolic within 1e-6 relative: {passed}/{total} "
           f"(worst rel err {worst:.2e})")


def test_criterion_4_sequence_filter_beats_punctured():
    f = fd.as_function(fd.parse("x*sin(1/x)"))
    fext = lambda x: 0.0 if x == 0.0 else f(x)
    across = fd.derivative(fext, 0.0, fd.punctured_base(1.0, 0.5), DEFAULT_CFG)
    seq = fd.sequence_base(fd.SequenceSpec(kind="piovern", c=1.0))
    along = fd.derivative(fext, 0.0, seq, DEFAULT_CFG)
    ok = (across.status == fd.NO_LIMIT
          and along.status == fd.CONVERGED and abs(along.value) <= 1e-9)
    report(4, ok, f"x*sin(1/x) at 0: punctured={across.status}, "
                  f"seq 1/(pi*n) -> {along.value!r} (|value| <= 1e-9)")


def test_criterion_5_linearity_suite():
    failures = []
    worst = 0.0
    for i, (tf, tg, run) in enumerate(rule_draws("linearity")):
        rep = run(SMOOTH_CFG, 1e-5)
        if rep.verdict != fd.HOLDS:
            failures.append((i, tf, tg, rep.verdict))
        else:
            worst = max(worst, rep.rel_error)
    report(5, not failures,
           f"linearity holds on 200/200 instances at check_tol 1e-5 "
           f"(worst rel err {worst:.2e}; failures: {failures[:3]})")


def test_criterion_6_product_suite():
    failures = []
    worst = 0.0
    for i, (tf, tg, run) in enumerate(rule_draws("product")):
        rep = run(PQ_CFG, 1e-5)
        if rep.verdict != fd.HOLDS:
            failures.append((i, tf, tg, rep.verdict))
        else:
            worst = max(worst, rep.rel_error)

    # pinned instance: both factors kinked, one-sided base
    absf = fd.as_function(fd.parse("abs(x)"))
    pinned = fd.check_product_rule(absf, absf, 0.0, fd.right_base(1.0, 0.5),
                                   PQ_CFG, 1e-5)
    pinned_ok = (pinned.verdict == fd.HOLDS and pinned.rhs_value == 0.0
                 and abs(pinned.lhs.value) <= 1e-5)

    # hypothesis violation: sign is not F-continuous at 0
    sign = fd.as_function(fd.parse("sign(x)"))
    ident = fd.as_function(fd.parse("x"))
    violations = [
        fd.check_product_rule(ident, sign, 0.0, base, PQ_CFG, 1e-5).verdict
        for base in (fd.punctured_base(1.0, 0.5), fd.right_base(1.0, 0.5))]
    violations_ok = all(v == fd.INCONCLUSIVE for v in violations)

    held = 99 - len(failures) + (1 if pinned_ok else 0)
    report(6, not failures and pinned_ok and violations_ok,
           f"product rule holds on {held}/100 instances "
           f"(worst rel err {worst:.2e}); abs*abs lhs={pinned.lhs.value:.2e}; "
           f"g=sign verdicts {violations} (inconclusive, never violated)")


def test_criterion_7_quotient_suite():
    failures = []
    missing_note = 0
    worst = 0.0
    for i, (tf, tg, run) in enumerate(rule_draws("quotient")):
        rep = run(PQ_CFG, 1e-5)
        if rep.verdict != fd.HOLDS:
            failures.append((i, tf, tg, rep.verdict))
        else:
            worst = max(worst, rep.rel_error)
        if fd.QUOTIENT_RULE_NOTE not in rep.notes:
            missing_note += 1

    ident = fd.as_function(fd.parse("x"))
    g1abs = fd.as_function(fd.parse("1+abs(x)"))
    pinned = fd.check_quotient_rule(ident, g1abs, 0.0, fd.right_base(1.0, 0.5),
                                    PQ_CFG, 1e-5)
    pinned_ok = (pinned.verdict == fd.HOLDS and pinned.rhs_value == 1.0
                 and abs(pinned.lhs.value - 1.0) <= 1e-6
                 and fd.QUOTIENT_RULE_NOTE in pinned.notes)

    held = 99 - len(failures) + (1 if pinned_ok else 0)
    report(7, not failures and missing_note == 0 and pinned_ok,
           f"quotient rule holds on {held}/100 instances "
           f"(worst rel err {worst:.2e}); erratum note on every report; "
           f"x/(1+abs) at 0: lhs={pinned.lhs.value!r}, rhs={pinned.rhs_value!r}")


def test_criterion_8_axiom_suite():
    bad = []
    for maker in (fd.punctured_base, fd.right_base, fd.left_base):
        for delta0 in (0.1, 1.0, 10.0):
            for ratio in (0.25, 0.5, 0.9):
                rep = fd.verify_base_axioms(maker(delta0, ratio), 64)
                if not rep.passed:
                    bad.append((maker.__name__, delta0, ratio))
    for spec in (fd.SequenceSpec(kind="powinv", c=1.0, p=1.0),
                 fd.SequenceSpec(kind="geo", c=1.0, q=0.5),
                 fd.SequenceSpec(kind="piovern", c=1.0)):
        rep = fd.verify_base_axioms(fd.sequence_base(spec), 64)
        if not rep.passed:
            bad.append(spec.kind)

    S = fd.SetDescriptor
    broken_nest = fd.chain_from_elements("broken-nest", [
        S(intervals=((-1.0, 1.0),)),
        S(intervals=((-0.25, 0.25),)),
        S(intervals=((-0.5, 0.5),))])
    nest_rep = fd.verify_base_axioms(broken_nest, 2)
    nest_ok = (not nest_rep.passed and nest_rep.axiom1_ok
               and nest_rep.nesting_failures == ((1, 2),))

    broken_empty = fd.chain_from_elements("broken-empty", [
        S(intervals=((-1.0, 1.0),)),
        S(points=(0.5,), excluded=(0.5,))])
    empty_rep = fd.verify_base_axioms(broken_empty, 1)
    empty_ok = (not empty_rep.passed and empty_rep.axiom2_ok
                and empty_rep.empty_levels == (1,))

    report(8, not bad and nest_ok and empty_ok,
           f"axioms pass on 9-point grid x 3 constructors + 3 sequence kinds "
           f"at K=64 (failures: {bad}); broken chains named correctly "
           f"(axiom2 pair {nest_rep.nesting_failures}, "
           f"axiom1 level {empty_rep.empty_levels})")


def test_criterion_9_cli_determinism(tmp_path):
    trace = tmp_path / "trace.csv"
    argv = ["derive", "--expr", "x*sin(x)", "--x0", "0.8",
            "--base", "punctured:delta0=1,ratio=0.5",
            "--tol-osc", "1e-4", "--tol-step", "3e-7", "--seed", "5",
            "--trace", str(trace)]
    first = run_cli(*argv)
    csv_first = trace.read_bytes()
    second = run_cli(*argv)
    csv_second = trace.read_bytes()
    ok = (first.stdout == second.stdout and csv_first == csv_second
          and first.returncode == second.returncode == 0)
    report(9, ok, "repeated CLI invocation is byte-identical (JSON and CSV)")


def test_criterion_10_refinement_consistency():
    worst = 0.0
    checked = 0
    bad = []
    parent = fd.punctured_base(1.0, 0.5, max_level=96)
    sub = parent.subchain(2)
    for text, pts in SMOOTH_CASES:
        f = fd.as_function(fd.parse(text))
        for x0 in pts:
            full = fd.derivative(f, x0, parent, SMOOTH_CFG)
            if not full.converged:
                continue
            checked += 1
            halved = fd.derivative(f, x0, sub, SMOOTH_CFG)
            if not halved.converged:
                bad.append((text, x0, halved.status))
                continue
            gap = abs(full.value - halved.value)
            worst = max(worst, gap)
            if gap > 10 * SMOOTH_CFG.tol_step:
                bad.append((text, x0, gap))
    report(10, checked == 50 and not bad,
           f"level-doubled subchain agrees within 10*tol_step on "
           f"{checked - len(bad)}/{checked} converged cases "
           f"(worst gap {worst:.2e}, budget {10 * SMOOTH_CFG.tol_step:.1e})")
