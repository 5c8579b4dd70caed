"""End-to-end acceptance gates.

Each test prints a PASS/FAIL line for its criterion; run with ``pytest -s
tests/test_acceptance.py`` to see them.  Tolerances are fixed here, not
calibrated elsewhere.
"""

import math
import random
import resource
import time

from mtlmon import (
    Monitor,
    Predicate,
    StateSample,
    boolean_eval,
    compile_formula,
    emax,
    emin,
    offline_robustness_series,
)
from mtlmon.cli import case_study_formula, case_study_predicates, gen_template, run_bench_sweep, run_case_study
from mtlmon.formula import UNTIL
from mtlmon.traceio import gen_case_study_trace

from helpers import (
    contains_unbounded_since,
    perfect_series,
    random_core_text,
    random_past_text,
    random_predicates,
    random_trace,
)


def report(name, ok, detail=""):
    tail = f": {detail}" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


def test_criterion_1_online_equals_reference_on_500_fuzzed_pairs():
    rng = random.Random(2024)
    began = time.perf_counter()
    unbounded = 0
    warmup_steps = 0
    for case in range(500):
        while True:
            formula = compile_formula(random_core_text(rng, max_depth=4, max_bound=8))
            if formula.horizon > 40:
                continue
            if case % 3 == 0 and not contains_unbounded_since(formula):
                continue
            break
        unbounded += contains_unbounded_since(formula)
        predicates = random_predicates(rng, formula.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        trace = random_trace(rng, variables, rng.randint(formula.horizon + 1, 60))
        expect = offline_robustness_series(formula, predicates, trace)
        outs, _ = perfect_series(formula, predicates, trace)
        for i, value in enumerate(outs):
            if i < formula.history:
                warmup_steps += 1
            assert value == expect[i], (
                f"case {case}: step {i} online {value!r} != reference {expect[i]!r}"
            )
    elapsed = time.perf_counter() - began
    report(
        "criterion 1 (online equals reference, 500 fuzzed pairs)",
        unbounded >= 100 and warmup_steps > 0,
        f"{unbounded} pairs with unbounded since, {warmup_steps} warm-up steps checked, {elapsed:.1f}s",
    )


def test_criterion_2_worked_example():
    formula = compile_formula("historically[0,inf) p and always[1,2] q")
    mon = Monitor(formula, {"p": Predicate("p", "u", lo=0.0), "q": Predicate("q", "y", lo=0.0)})
    dims_ok = formula.horizon == 2 and formula.history == 2 and mon.width == 5

    box = compile_formula("always[1,2] q")
    box_mon = Monitor(box, {"q": Predicate("q", "y", lo=0.0)})
    q0, q1, q2 = 5.0, 1.0, 7.0
    box_mon.step(
        StateSample({"y": q0}, 0.0),
        [StateSample({"y": q1}, 0.1), StateSample({"y": q2}, 0.2)],
    )
    until_row = next(k for k, n in enumerate(box.nodes) if n.kind == UNTIL)
    beyond_ok = box_mon.cr(0, 2) == math.inf and box_mon.cr(until_row, 2) == -math.inf
    window_ok = box_mon.cr(0, 0) == min(q1, q2)
    report(
        "criterion 2 (worked example dimensions and box-row cells)",
        dims_ok and beyond_ok and window_ok,
        f"Hrz=2 Hst=2 width=5, row value at j=0 is {box_mon.cr(0, 0)!r}, at j=2 is {box_mon.cr(0, 2)!r}",
    )


def test_criterion_3_template_horizons():
    import pytest

    from mtlmon import ConfigError

    exact = 0
    rejected = 0
    for kind in ("E", "U"):
        for n in (1, 3, 5, 7, 9):
            for horizon in (1000, 2000):
                if horizon % n:
                    # the template is only defined when n divides H; the
                    # generator must say so rather than round
                    with pytest.raises(ConfigError, match="divide"):
                        gen_template(kind, n, horizon)
                    rejected += 1
                    continue
                got = compile_formula(gen_template(kind, n, horizon)).horizon
                assert got == horizon, f"{kind} n={n} H={horizon}: got {got}"
                exact += 1
    # the same arithmetic across every depth that divides the window
    for kind in ("E", "U"):
        for n in range(1, 10):
            assert compile_formula(gen_template(kind, n, 2520)).horizon == 2520
            exact += 1
    report(
        "criterion 3 (template horizons exact)",
        exact == 26 and rejected == 12,
        f"{exact} horizons exact, {rejected} non-dividing pairs rejected as specified",
    )


def test_criterion_4_quadratic_scaling_sweep():
    reports, slope = run_bench_sweep("E", 1, steps=100)
    mean_2000 = next(r.mean_ms for r in reports if r.horizon == 2000)
    detail = ", ".join(f"H={r.horizon}: {r.mean_ms:.2f}ms" for r in reports)
    report(
        "criterion 4 (per-step cost scales quadratically)",
        1.5 <= slope <= 2.5 and mean_2000 < 1000.0,
        f"slope={slope:.2f}, {detail}",
    )


def test_criterion_5_bounded_memory_over_10000_steps():
    formula = compile_formula(case_study_formula("pt", 0.01))
    mon = Monitor(formula, case_study_predicates())
    rng = random.Random(5)

    def feed(count, base):
        for k in range(count):
            value = 1.0 + rng.uniform(-0.05, 0.05) if k % 7 else 1.2
            mon.step(StateSample({"lambda": value}, (base + k) * 0.01))

    feed(1000, 0)
    shape = mon.table.shape
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    feed(9000, 1000)
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    growth_kb = rss_after - rss_before  # ru_maxrss is KiB on Linux
    report(
        "criterion 5 (bounded memory over 10000 steps)",
        mon.table.shape == shape and growth_kb < 1024,
        f"table {shape}, resident growth {growth_kb} KiB",
    )


def _suite_negation_duality(rng):
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
        neg, _ = perfect_series(negated, predicates, trace)
        assert neg == [-v for v in outs]


def _suite_box_diamond_duality(rng):
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


def _suite_past_only_purity(rng):
    for _ in range(200):
        formula = compile_formula(random_past_text(rng))
        assert formula.horizon == 0
        predicates = random_predicates(rng, formula.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        prefix = random_trace(rng, variables, rng.randint(1, 12))
        runs = []
        for seed in (1, 2):
            suffix_rng = random.Random(seed)
            mon = Monitor(formula, predicates)
            runs.append([mon.step(s) for s in prefix.samples])
            for k in range(4):
                mon.step(StateSample({v: suffix_rng.uniform(-10, 10) for v in variables},
                                     (len(prefix.samples) + k) * 0.1))
        assert runs[0] == runs[1]


def _suite_positive_homogeneity(rng):
    for case in range(200):
        factor = (0.5, 2.0, 10.0)[case % 3]
        while True:
            formula = compile_formula(random_core_text(rng, max_depth=3))
            if formula.horizon <= 20:
                break
        predicates = random_predicates(rng, formula.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        trace = random_trace(rng, variables, rng.randint(formula.horizon + 1, 22))
        boosted = {
            name: Predicate(p.name, p.variable, p.lo, p.hi, p.gain * factor)
            for name, p in predicates.items()
        }
        base, _ = perfect_series(formula, predicates, trace)
        scaled_outs, _ = perfect_series(formula, boosted, trace)
        assert scaled_outs == [factor * v for v in base]


def _suite_sign_soundness(rng):
    for _ in range(200):
        while True:
            formula = compile_formula(random_core_text(rng, max_depth=3, max_bound=6))
            if formula.horizon <= 15:
                break
        predicates = random_predicates(rng, formula.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        trace = random_trace(rng, variables, rng.randint(1, 16))
        series = offline_robustness_series(formula, predicates, trace)
        for i, value in enumerate(series):
            if value > 0:
                assert boolean_eval(formula, predicates, trace, i) is True
            elif value < 0:
                assert boolean_eval(formula, predicates, trace, i) is False


def _suite_extrema_conventions(rng):
    assert emax([]) == -math.inf and emin([]) == math.inf
    for _ in range(200):
        n = rng.randint(0, 8)
        values = [rng.choice((rng.uniform(-5, 5), math.inf, -math.inf)) for _ in range(n)]
        assert emin(values) == -emax([-v for v in values])


def test_criterion_6_property_suites():
    suites = (
        ("negation duality", _suite_negation_duality),
        ("box/diamond duality", _suite_box_diamond_duality),
        ("past-only purity", _suite_past_only_purity),
        ("positive homogeneity", _suite_positive_homogeneity),
        ("sign soundness", _suite_sign_soundness),
        ("extrema conventions", _suite_extrema_conventions),
    )
    for seed, (name, suite) in enumerate(suites, start=600):
        suite(random.Random(seed))
    report("criterion 6 (six property suites, 200 cases each)", True,
           ", ".join(name for name, _ in suites))


def test_criterion_7_case_study_scenarios():
    short = run_case_study("pt", 0.01, 2.0, 0.3, 6.0)
    short_ok = all(value >= 0 for _, _, value in short)

    long_pt = run_case_study("pt", 0.01, 2.0, 2.5, 6.0)
    long_ok = any(value < 0 for _, _, value in long_pt)

    # the past-only variant needs no predictions, so the streamed outputs
    # must equal the full-trace reference at every step
    formula = compile_formula(case_study_formula("pt", 0.01))
    trace_short = gen_case_study_trace(2.0, 0.3, 6.0, 0.01)
    trace_long = gen_case_study_trace(2.0, 2.5, 6.0, 0.01)
    ref_short = offline_robustness_series(formula, case_study_predicates(), trace_short)
    ref_long = offline_robustness_series(formula, case_study_predicates(), trace_long)
    oracle_ok = [v for _, _, v in short] == ref_short and [v for _, _, v in long_pt] == ref_long

    long_ft = run_case_study("ft", 0.01, 2.0, 2.5, 6.0)
    excursion = [
        i for i, s in enumerate(trace_long.samples) if s.values["lambda"] == 1.2
    ]
    held_le = all(long_ft[i][2] <= long_pt[i][2] for i in excursion)

    report(
        "criterion 7 (settling-time scenarios)",
        short_ok and long_ok and oracle_ok and held_le,
        f"short min {min(v for _, _, v in short):+.3f}, "
        f"long negatives {sum(v < 0 for _, _, v in long_pt)}, "
        f"held-prediction variant below past variant on all {len(excursion)} excursion steps",
    )
