"""Shared test corpus: smooth expressions with evaluation points chosen so
the derivative is bounded away from 0 (keeping relative-error targets
meaningful), kink functions for one-sided bases at 0, denominators bounded
away from 0 for quotient checks, and the LimitConfigs the suites run under.

The suite configs back off tol_osc/tol_step from the library defaults: a
difference quotient computed in doubles carries rounding noise of order
eps * |f(x0)| / h, which these tolerances stay above. The estimator now
widens its tests to that noise itself (its rounding radius), so the
defaults certify these derivatives too; the suites keep their configs
until they move to the defaults together. The acceptance tolerances
themselves (1e-6 classical agreement, 1e-5 rule tolerance, ...) are
unchanged.
"""

from __future__ import annotations

import random
from functools import partial

from filterderiv import (LimitConfig, as_function, check_linearity, check_product_rule,
                         check_quotient_rule, left_base, parse, punctured_base, right_base)

# (expression, points); |f'| >= 0.16 at every listed point
SMOOTH_CASES = [
    ("x^2", [-2.0, -0.5, 0.5, 1.0, 1.7]),
    ("x^3-2*x", [-2.0, -1.5, 1.2, 1.5, 2.0]),
    ("sin(x)", [-1.0, -0.3, 0.2, 0.5, 0.9]),
    ("cos(2*x)", [0.3, 0.7, 1.0, 1.2, 2.0]),
    ("exp(x/2)", [-2.0, -1.0, 0.0, 1.0, 2.0]),
    ("x*sin(x)", [-1.2, -0.8, 0.5, 0.8, 1.2]),
    ("1/(1+x^2)", [-1.0, 0.5, 1.0, 1.5, 2.0]),
    ("sqrt(1+x^2)", [-2.0, -1.0, 0.5, 1.0, 2.0]),
    ("exp(0-x^2)", [-1.5, -1.0, 0.5, 1.0, 1.5]),
    ("x^2*cos(x)", [-0.5, 0.5, 1.0, 1.5, 2.5]),
]

SMOOTH_TEXTS = [t for t, _ in SMOOTH_CASES]

# kinked at 0 but with well-defined one-sided derivatives there
KINK_TEXTS = ["abs(x)", "2*abs(x)", "abs(x)+x^2", "min(x,2*x)", "max(x,0-x)+x"]

# strictly positive near every corpus point: safe quotient denominators
POSITIVE_TEXTS = ["1+abs(x)", "2+sin(x)", "1+x^2", "exp(x/2)", "2+cos(x)"]

RULE_POINTS = [-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]

# |x0| large against the bases' scales, where a sampled h can leave x0 unmoved;
# 92 of the 99 points have an oracle value (log and sqrt at the negative points
# and exp(x/1e6) from 1e9 up have none), so 276 on the 3 bases
GRID_TEXTS = ["x", "x^2", "sin(x)", "exp(x/1e6)", "x^3", "1/x", "log(x)", "sqrt(x)",
              "cos(x)*x"]
GRID_POINTS = [1e3, -1e3, 1e2, 3e2, 3e3, 1e4, 1e6, 1e9, -1e9, 1e12, 1e15]
GRID_BASES = (punctured_base(1, 0.5), right_base(1, 0.5), punctured_base(0.7, 0.6))

SMOOTH_CFG = LimitConfig(tol_osc=1e-4, tol_step=3e-7, no_limit_floor=1e-2)
PQ_CFG = LimitConfig(tol_osc=1e-4, tol_step=1e-7, no_limit_floor=1e-2)


def named_functions(texts):
    return [(t, as_function(parse(t))) for t in texts]


def two_sided_bases():
    return [punctured_base(1.0, 0.5), punctured_base(0.7, 0.6)]


def one_sided_bases():
    return [right_base(1.0, 0.5), left_base(0.9, 0.5)]


def pick_rule_instance(rng: random.Random, smooth, kinks, bases_two, bases_one):
    """One (base, x0, candidate pool) draw for the rule-check suites. Kinked
    functions only show up at x0 = 0 under one-sided bases, where their
    filter derivatives exist."""
    if rng.random() < 0.4:
        b = rng.choice(bases_one)
        if rng.random() < 0.5:
            return b, 0.0, smooth + kinks
        return b, rng.choice(RULE_POINTS), smooth
    return rng.choice(bases_two), rng.choice(RULE_POINTS), smooth


# RNG seed and number of draws of each rule suite (acceptance criteria 5-7)
RULE_DRAWS = {"linearity": (20240501, 200), "product": (20240502, 99),
              "quotient": (20240503, 99)}


def rule_draws(rule: str):
    """The draws of one rule suite, in order, as (f's text, g's text, run),
    where run(cfg, check_tol) runs the drawn check. Linearity and product
    draw from pick_rule_instance's pools, linearity then alpha and beta in
    [-10, 10]; quotient draws any base, a RULE_POINTS point, a smooth f and
    a POSITIVE_TEXTS g."""
    seed, count = RULE_DRAWS[rule]
    rng = random.Random(seed)
    smooth, kinks = named_functions(SMOOTH_TEXTS), named_functions(KINK_TEXTS)
    positive = named_functions(POSITIVE_TEXTS)
    two, one = two_sided_bases(), one_sided_bases()
    for _ in range(count):
        if rule == "quotient":
            b, x0 = rng.choice(two + one), rng.choice(RULE_POINTS)
            (tf, f), (tg, g) = rng.choice(smooth), rng.choice(positive)
            run = partial(check_quotient_rule, f, g, x0, b)
        else:
            b, x0, pool = pick_rule_instance(rng, smooth, kinks, two, one)
            (tf, f), (tg, g) = rng.choice(pool), rng.choice(pool)
            run = partial(check_product_rule, f, g, x0, b)
            if rule == "linearity":  # alpha, then beta
                run = partial(check_linearity, f, g, rng.uniform(-10, 10),
                              rng.uniform(-10, 10), x0, b)
        yield tf, tg, run
