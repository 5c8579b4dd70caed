"""Randomized behavioral properties of the monitor and its value domain."""

import math
import random

from mtlmon import (
    Monitor,
    Predicate,
    StateSample,
    boolean_eval,
    compile_formula,
    offline_robustness,
    offline_robustness_series,
)

from helpers import (
    agreed_series,
    column_trace,
    perfect_series,
    random_core_text,
    random_past_text,
    random_predicates,
    random_trace,
)


def scaled(predicates, factor):
    return {
        name: Predicate(p.name, p.variable, p.lo, p.hi, p.gain * factor)
        for name, p in predicates.items()
    }


def make_case(rng, max_depth=3, max_bound=6, max_len=25):
    while True:
        formula = compile_formula(random_core_text(rng, max_depth=max_depth, max_bound=max_bound))
        if formula.horizon <= max_len - 1:
            break
    predicates = random_predicates(rng, formula.atom_names)
    variables = sorted({p.variable for p in predicates.values()})
    trace = random_trace(rng, variables, rng.randint(formula.horizon + 1, max_len))
    return formula, predicates, trace


def test_negation_duality():
    rng = random.Random(61)
    for _ in range(200):
        while True:
            text = random_core_text(rng, max_depth=3)
            plain = compile_formula(text)
            if plain.horizon <= 20:
                break
        negated = compile_formula(f"not ({text})")
        predicates = random_predicates(rng, plain.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        trace = random_trace(rng, variables, rng.randint(plain.horizon + 1, 25))
        outs, _ = perfect_series(plain, predicates, trace)
        neg_outs, _ = perfect_series(negated, predicates, trace)
        assert neg_outs == [-v for v in outs]


def test_eventually_always_duality():
    rng = random.Random(67)
    for _ in range(200):
        body = random_core_text(rng, max_depth=2, max_bound=4)
        lo = rng.randint(0, 4)
        up = rng.randint(lo, 6)
        always = compile_formula(f"always[{lo},{up}] ({body})")
        dual = compile_formula(f"eventually[{lo},{up}] (not ({body}))")
        predicates = random_predicates(rng, always.atom_names | dual.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        trace = random_trace(rng, variables, rng.randint(always.horizon + 1, 30))
        outs, _ = perfect_series(always, predicates, trace)
        dual_outs, _ = perfect_series(dual, predicates, trace)
        assert outs == [-v for v in dual_outs]


def test_past_only_purity():
    rng = random.Random(71)
    for _ in range(200):
        formula = compile_formula(random_past_text(rng))
        assert formula.horizon == 0
        predicates = random_predicates(rng, formula.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        prefix = random_trace(rng, variables, rng.randint(1, 15))
        outs = []
        for suffix_seed in (1, 2):
            suffix_rng = random.Random(suffix_seed)
            mon = Monitor(formula, predicates)
            run = [mon.step(s) for s in prefix.samples]
            for k in range(5):
                mon.step(
                    StateSample(
                        {v: suffix_rng.uniform(-10, 10) for v in variables},
                        (len(prefix.samples) + k) * 0.1,
                    )
                )
            outs.append(run)
        assert outs[0] == outs[1]


def test_positive_homogeneity():
    rng = random.Random(73)
    for case in range(200):
        factor = (0.5, 2.0, 10.0)[case % 3]
        formula, predicates, trace = make_case(rng)
        base, _ = perfect_series(formula, predicates, trace)
        boosted, _ = perfect_series(formula, scaled(predicates, factor), trace)
        assert boosted == [factor * v for v in base]


def test_sign_soundness():
    rng = random.Random(79)
    checked = 0
    for _ in range(200):
        formula, predicates, trace = make_case(rng, max_len=18)
        series = offline_robustness_series(formula, predicates, trace)
        for i, value in enumerate(series):
            verdict = boolean_eval(formula, predicates, trace, i)
            if value > 0:
                assert verdict is True
                checked += 1
            elif value < 0:
                assert verdict is False
                checked += 1
    assert checked > 500


def test_extrema_de_morgan_and_empty_conventions():
    """Window min and max over the extended reals, through the monitor and
    the oracle: historically p is minus once over the negated signal, it is
    at most once p, and before a window's first step exists the two are
    +inf and -inf."""
    rng = random.Random(83)
    predicates = {name: Predicate(name, var, lo=0.0, gain=10.0) for name, var in (("p", "x"), ("q", "y"))}
    for _ in range(200):
        n = rng.randint(1, 8)
        xs = [rng.choice((rng.uniform(-5, 5), 1e308, -1e308)) for _ in range(n)]  # 10 * 1e308 is inf
        trace = column_trace(x=xs, y=[-x for x in xs])
        lo = rng.randint(0, n)
        up = rng.randint(lo, n + 2)
        low, high, dual = (
            agreed_series(compile_formula(text), predicates, trace)
            for text in (f"historically[{lo},{up}] p", f"once[{lo},{up}] p", f"once[{lo},{up}] q")
        )
        assert low == [-v for v in dual]
        for i in range(n):
            if i < lo:
                assert (low[i], high[i]) == (math.inf, -math.inf)
            else:
                assert low[i] <= high[i]


def test_hold_equals_perfect_on_past_only_formulas():
    rng = random.Random(89)
    for _ in range(60):
        formula = compile_formula(random_past_text(rng))
        predicates = random_predicates(rng, formula.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        trace = random_trace(rng, variables, rng.randint(1, 15))
        outs, _ = perfect_series(formula, predicates, trace)
        mon = Monitor(formula, predicates)
        held = [mon.step(s) for s in trace.samples]
        assert outs == held


def test_online_matches_reference_for_every_defined_cell():
    # cross-checks intermediate storage, not just the root output
    rng = random.Random(97)
    from mtlmon.oracle import Trace

    for _ in range(25):
        formula, predicates, trace = make_case(rng, max_depth=3, max_bound=5, max_len=15)
        mon = Monitor(formula, predicates)
        for i in range(len(trace.samples) - formula.horizon):
            mon.step(trace.samples[i], list(trace.samples[i + 1 : i + 1 + formula.horizon]))
            prefix = Trace(trace.samples[: i + formula.horizon + 1], trace.delta_t)
            for k in range(len(formula.nodes)):
                for j in range(-formula.history, formula.horizon + 1):
                    value = mon.cell(k, j)
                    if value is not None:
                        assert value == offline_robustness(formula, predicates, prefix, i + j, node=k)
