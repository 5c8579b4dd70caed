"""Randomized behavioral properties of the monitor and its value domain.

The six property suites live in helpers, which criterion 6 runs as well;
each runs here under a seed of its own."""

import random

from mtlmon import Monitor, compile_formula

from helpers import (
    box_diamond_duality,
    extrema_conventions,
    negation_duality,
    past_only_purity,
    perfect_series,
    positive_homogeneity,
    random_past_text,
    random_predicates,
    random_trace,
    sign_soundness,
)


def test_negation_duality():
    negation_duality(random.Random(61))


def test_eventually_always_duality():
    box_diamond_duality(random.Random(67))


def test_past_only_purity():
    past_only_purity(random.Random(71))


def test_positive_homogeneity():
    positive_homogeneity(random.Random(73))


def test_sign_soundness():
    sign_soundness(random.Random(79))


def test_extrema_de_morgan_and_empty_conventions():
    extrema_conventions(random.Random(83))


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
