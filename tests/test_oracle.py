import math
import random

import numpy as np
import pytest

from mtlmon import (
    Monitor,
    Predicate,
    StateSample,
    Trace,
    TraceError,
    boolean_eval,
    compile_formula,
    desugar,
    load_trace,
    offline_robustness,
    offline_robustness_series,
)

from helpers import (
    PQ,
    REFUSALS,
    assert_refused_everywhere,
    has_unbounded,
    mirror,
    random_core_text,
    random_predicates,
    random_surface_tree,
    random_trace,
)


def xy_trace(points):
    return Trace(
        tuple(StateSample({"x": x, "y": y}, k * 0.1) for k, (x, y) in enumerate(points)),
        0.1 if len(points) >= 2 else None,
    )


XY_PREDS = {
    "p": Predicate("p", "x", hi=10.0),
    "q": Predicate("q", "y", lo=4.0),
}


def test_until_hand_expansion():
    # max(-4, min(10, 1), min(10, 9, -4)) = 1
    trace = xy_trace([(0.0, 0.0), (1.0, 5.0), (2.0, 0.0)])
    f = compile_formula("p U[0,2] q")
    assert offline_robustness(f, XY_PREDS, trace, 0) == 1.0


def test_predicate_base_case():
    trace = xy_trace([(0.0, 0.0)])
    f = compile_formula("p")
    assert offline_robustness(f, XY_PREDS, trace, 0) == 10.0


def test_true_is_pos_inf():
    trace = xy_trace([(0.0, 0.0)])
    f = compile_formula("true")
    assert offline_robustness(f, XY_PREDS, trace, 0) == math.inf


def test_until_window_truncates_at_trace_end():
    trace = xy_trace([(0.0, 0.0), (1.0, 5.0)])
    f = compile_formula("p U[0,9] q")
    # window clipped to the two available samples
    assert offline_robustness(f, XY_PREDS, trace, 0) == max(-4.0, min(10.0, 1.0))


def test_until_empty_window_is_neg_inf():
    trace = xy_trace([(0.0, 9.0)])
    f = compile_formula("p U[1,3] q")
    assert offline_robustness(f, XY_PREDS, trace, 0) == -math.inf


def test_since_clamps_at_trace_start():
    trace = xy_trace([(0.0, 9.0), (1.0, 5.0), (2.0, 6.0)])
    f = compile_formula("p S[1,5] q")
    # i=2: windows at times 1 and 0, left operand over the suffix
    expect = max(min(5.0 - 4.0, 10.0 - 2.0), min(9.0 - 4.0, 10.0 - 1.0, 10.0 - 2.0))
    assert offline_robustness(f, XY_PREDS, trace, 2) == expect


def test_since_empty_window_is_neg_inf():
    trace = xy_trace([(0.0, 9.0), (1.0, 5.0)])
    f = compile_formula("p S[2,4] q")
    assert offline_robustness(f, XY_PREDS, trace, 1) == -math.inf


def test_index_out_of_range():
    trace = xy_trace([(0.0, 0.0)])
    f = compile_formula("p")
    with pytest.raises(IndexError):
        offline_robustness(f, XY_PREDS, trace, 1)
    with pytest.raises(IndexError):
        boolean_eval(f, XY_PREDS, trace, -1)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda f, trace, k: offline_robustness(f, XY_PREDS, trace, 0, k),
        lambda f, trace, k: boolean_eval(f, XY_PREDS, trace, 0, k),
        lambda f, trace, k: offline_robustness_series(f, XY_PREDS, trace, k),
    ],
    ids=["offline_robustness", "boolean_eval", "offline_robustness_series"],
)
def test_rejects_subformulas_outside_the_formula(evaluate):
    # a negative node used to wrap around to another subformula's value
    trace = xy_trace([(0.0, 5.0), (1.0, 5.0)])
    f = compile_formula("p since[0,3] q")
    count = len(f.nodes)
    for k in (-1, -count, count):
        with pytest.raises(IndexError, match=rf"subformula {k} outside the formula's {count} nodes"):
            evaluate(f, trace, k)


def brute_force(nodes, preds, samples, k, i):
    """Literal triple-loop expansion of the defining semantics."""
    node = nodes[k]
    if node.kind == "true":
        return math.inf
    if node.kind == "atom":
        p = preds[node.name]
        x = samples[i].values[p.variable]
        return p.gain * min(x - p.lo, p.hi - x)
    if node.kind == "not":
        return -brute_force(nodes, preds, samples, node.left, i)
    if node.kind == "or":
        return max(
            brute_force(nodes, preds, samples, node.left, i),
            brute_force(nodes, preds, samples, node.right, i),
        )
    lo, up = node.interval.lower, node.interval.upper
    if node.kind == "until":
        hi = min(i + int(up), len(samples) - 1)
        cands = []
        for j in range(i + lo, hi + 1):
            inner = [brute_force(nodes, preds, samples, node.left, r) for r in range(i, j)]
            cands.append(min([brute_force(nodes, preds, samples, node.right, j), *inner]))
        return max(cands, default=-math.inf)
    first = 0 if up == math.inf else max(0, i - int(up))
    cands = []
    for j in range(first, i - lo + 1):
        inner = [brute_force(nodes, preds, samples, node.left, r) for r in range(j + 1, i + 1)]
        cands.append(min([brute_force(nodes, preds, samples, node.right, j), *inner]))
    return max(cands, default=-math.inf)


def test_oracle_matches_brute_force_expansion():
    rng = random.Random(23)
    for _ in range(120):
        f = compile_formula(random_core_text(rng, max_depth=3, max_bound=4))
        preds = random_predicates(rng, f.atom_names)
        trace = random_trace(rng, [p.variable for p in preds.values()], rng.randint(1, 10))
        series = offline_robustness_series(f, preds, trace)
        for i in range(len(trace.samples)):
            assert series[i] == brute_force(f.nodes, preds, trace.samples, 0, i)


def test_time_mirror_reverses_robustness_and_truth():
    # since is until mirrored in time: a tree's values on a trace are its
    # mirror's values on the reversed trace, read backwards
    rng = random.Random(29)
    trees = [t for t in (random_surface_tree(rng) for _ in range(1000)) if not has_unbounded(t)]
    assert len(trees) >= 600
    for tree in trees:
        f, g = desugar(tree), desugar(mirror(tree))
        preds = random_predicates(rng, f.atom_names)
        trace = random_trace(rng, [p.variable for p in preds.values()], rng.randint(1, 16))
        n = len(trace)
        back = Trace(tuple(StateSample(s.values, k * 0.1) for k, s in enumerate(trace.samples[::-1])), trace.delta_t)
        assert offline_robustness_series(g, preds, back)[::-1] == offline_robustness_series(f, preds, trace)
        truth = [boolean_eval(f, preds, trace, i) for i in range(n)]
        assert [boolean_eval(g, preds, back, n - 1 - i) for i in range(n)] == truth


def test_negation_clause():
    rng = random.Random(29)
    for _ in range(80):
        text = random_core_text(rng, max_depth=3)
        f = compile_formula(f"not ({text})")
        g = compile_formula(text)
        preds = random_predicates(rng, f.atom_names | g.atom_names)
        trace = random_trace(rng, [p.variable for p in preds.values()], rng.randint(1, 15))
        i = rng.randrange(len(trace.samples))
        assert offline_robustness(f, preds, trace, i) == -offline_robustness(g, preds, trace, i)


def test_disjunction_clause():
    rng = random.Random(31)
    for _ in range(80):
        left = random_core_text(rng, max_depth=2)
        right = random_core_text(rng, max_depth=2)
        both = compile_formula(f"({left}) or ({right})")
        fl, fr = compile_formula(left), compile_formula(right)
        preds = random_predicates(rng, both.atom_names | fl.atom_names | fr.atom_names)
        trace = random_trace(rng, [p.variable for p in preds.values()], rng.randint(1, 15))
        i = rng.randrange(len(trace.samples))
        assert offline_robustness(both, preds, trace, i) == max(
            offline_robustness(fl, preds, trace, i),
            offline_robustness(fr, preds, trace, i),
        )


def test_boolean_eval_basics():
    trace = xy_trace([(0.0, 4.0)])
    assert boolean_eval(compile_formula("true"), XY_PREDS, trace, 0) is True
    # boundary point of a closed set counts as satisfaction
    assert boolean_eval(compile_formula("q"), XY_PREDS, trace, 0) is True
    assert boolean_eval(compile_formula("not q"), XY_PREDS, trace, 0) is False


def test_trace_rejects_non_uniform_times():
    samples = (
        StateSample({"x": 0.0}, 0.0),
        StateSample({"x": 0.0}, 0.1),
        StateSample({"x": 0.0}, 0.25),
    )
    with pytest.raises(ValueError, match="non-uniform"):
        Trace(samples, 0.1)


@pytest.mark.parametrize(
    "times, delta_t, message",
    [
        ([math.nan], None, "non-finite time nan at row 0"),
        ([0.0, math.nan, 0.2], 0.1, "non-finite time nan at row 1"),
        ([0.0, -math.inf], 0.1, "non-finite time -inf at row 1"),
        ([0.0, 0.1], math.inf, "sampling period must be positive and finite, got inf"),
        ([0.0, "0.1"], 0.1, "non-finite time '0.1' at row 1"),
        ([None], None, "non-finite time None at row 0"),
        ([10**400], None, "non-finite time 10+ at row 0"),
        ([True], None, "non-finite time True at row 0"),
        ([0.0, 1.0], True, "sampling period must be positive and finite, got True"),
        ([0.0, 1.0], "1.0", "sampling period must be positive and finite, got '1.0'"),
        ([0.0, 1.0], 10**400, "sampling period must be positive and finite, got 10+$"),
    ],
    ids=[
        "nan-single", "nan-middle", "inf-time", "inf-period", "str", "none", "int-over-float-range", "bool",
        "bool-period", "str-period", "int-period-over-float-range",
    ],
)
def test_trace_rejects_non_finite_times_and_period(tmp_path, times, delta_t, message):
    with pytest.raises(ValueError, match=message):
        Trace(tuple(StateSample({"x": 0.0}, t) for t in times), delta_t)
    if message.startswith("non-finite time") and all(type(t) is float for t in times):
        # a file's time that parses but is not finite gets the same message
        path = tmp_path / "trace.csv"
        path.write_text("time,x\n" + "".join(f"{t!r},0.0\n" for t in times))
        with pytest.raises(TraceError) as loaded:
            load_trace(str(path))
        assert type(loaded.value) is TraceError and str(loaded.value) == message


def test_trace_requires_period_for_several_samples():
    samples = (StateSample({"x": 0.0}, 0.0), StateSample({"x": 0.0}, 7.0))
    with pytest.raises(ValueError, match="sampling period missing"):
        Trace(samples)
    assert len(Trace(samples[:1])) == 1


def test_oracle_refuses_what_the_monitor_refuses():
    """One binding rule and one sample rule: the oracle checks every
    binding up front, also that of an atom it never reads."""
    for key in REFUSALS:
        if key.startswith(("mapping-", "unbound-never-read", "sample-")):
            assert_refused_everywhere(key)


def test_oracle_refuses_a_non_sample_as_the_monitor_does():
    # Trace reads only the time of its samples
    assert_refused_everywhere("non-sample")


def test_oracle_and_monitor_take_other_reals():
    f = compile_formula("q since[0,2] p")
    trace = Trace((StateSample({"x": 3, "y": np.float32(0.0)}, 0.0),))
    assert offline_robustness(f, PQ, trace, 0) == Monitor(f, PQ).step(trace.samples[0]) == 3.0
    assert boolean_eval(f, PQ, trace, 0) is True


@pytest.mark.parametrize(
    "text, steps", [("p", [0]), ("eventually[0,1] p", [0]), ("historically[0,1] p", [0, 1])]
)
def test_nan_sample_raises_wherever_it_is_read(text, steps):
    # min and max over a NaN give nan, +inf or -inf by the order of their
    # operands, so every read of one raises instead
    f = compile_formula(text)
    trace = Trace((StateSample({"x": math.nan}, 0.0), StateSample({"x": 1.0}, 0.1)), 0.1)
    message = "value nan of variable 'x' in sample at t=0.0 is not a finite real number"
    for i in steps:
        for call in (offline_robustness, boolean_eval):
            with pytest.raises(ValueError, match=message):
                call(f, PQ, trace, i)
    with pytest.raises(ValueError, match=message):
        offline_robustness_series(f, PQ, trace)
