import itertools
import math
import random
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from mtlmon import (
    Monitor,
    Predicate,
    PredicateError,
    StateSample,
    compile_formula,
    load_trace,
    offline_robustness,
    offline_robustness_series,
    predict,
)
from mtlmon import monitor as monitor_module
from mtlmon.formula import ATOM, NOT, OR, SINCE, TRUE, UNTIL, CoreNode, Formula, Interval
from mtlmon.oracle import Trace
from mtlmon.semantics import RowValues

from helpers import (
    BAD_VALUES,
    contains_unbounded_since,
    perfect_series,
    random_core_text,
    random_past_text,
    random_predicates,
    random_trace,
)

INF = math.inf


def x_sample(value, t=0.0):
    return StateSample({"x": value}, t)


X_GE_0 = {"p": Predicate("p", "x", lo=0.0)}
Y_GE_4 = {"q": Predicate("q", "y", lo=4.0)}


def test_init_worked_example_dimensions():
    f = compile_formula("historically[0,inf) p and always[1,2] q")
    mon = Monitor(f, {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)})
    assert mon.width == 5
    assert mon.table.shape == (9, 8)


def test_init_single_atom_dimensions():
    mon = Monitor(compile_formula("p"), X_GE_0)
    assert mon.width == 1
    assert mon.table.shape == (1, 2)


def test_init_eventually_dimensions():
    f = compile_formula("eventually[0,1] p")
    assert f.horizon == 1 and f.history == 1
    mon = Monitor(f, X_GE_0)
    assert mon.width == 3


def test_init_rejects_unbound_atoms():
    f = compile_formula("p and q and r")
    with pytest.raises(PredicateError, match="unbound atoms: q, r"):
        Monitor(f, X_GE_0)


@pytest.mark.parametrize("formula", ["p", None, 1.0], ids=["text", "None", "float"])
def test_init_refuses_a_formula_that_is_not_compiled(formula):
    with pytest.raises(TypeError) as err:
        Monitor(formula, X_GE_0)
    assert str(err.value) == f"formula must be a compiled Formula, got {formula!r}"


@pytest.mark.parametrize("bound", [1, "x >= 0", None], ids=["int", "text", "None"])
def test_init_refuses_an_atom_bound_to_a_non_predicate(bound):
    """The error names the atom, where a non-Predicate used to leak an
    AttributeError on its missing `variable`."""
    f = compile_formula("p or q")
    with pytest.raises(PredicateError) as err:
        Monitor(f, {**X_GE_0, "q": bound})
    assert str(err.value) == f"atom 'q' is bound to {bound!r}, not a Predicate"


def test_init_refuses_table_larger_than_memory():
    # 3 rows x 3e12 columns of float64: refused before np.full touches a page
    f = compile_formula("eventually[0,1000000000000] p")
    with pytest.raises(MemoryError, match=r"monitor table 3 x 3000000000002 needs"):
        Monitor(f, X_GE_0)


def test_init_all_cells_undefined():
    f = compile_formula("eventually[0,2] p")
    mon = Monitor(f, X_GE_0)
    assert all(mon.cell(k, j) is None for k in range(len(f.nodes)) for j in range(-f.history, f.horizon + 1))
    assert (mon.table == -INF).all()
    assert mon.i == 0


def test_step_eventually_uses_prediction():
    mon = Monitor(compile_formula("eventually[0,1] p"), X_GE_0)
    out = mon.step(x_sample(-1.0), [x_sample(2.0, 0.1)])
    assert out == 2.0


def test_step_once_unbounded_is_running_max():
    mon = Monitor(compile_formula("once[0,inf) q"), {"q": Predicate("q", "y", lo=4.0)})
    outs = [mon.step(StateSample({"y": y}, k * 0.1)) for k, y in enumerate([3.0, 7.0, 1.0])]
    assert outs == [-1.0, 3.0, 3.0]


def test_step_true_returns_pos_inf():
    mon = Monitor(compile_formula("true"), {})
    assert [mon.step(StateSample({}, k * 0.1)) for k in range(3)] == [INF, INF, INF]


def test_step_rejects_wrong_prediction_length():
    mon = Monitor(compile_formula("eventually[0,2] p"), X_GE_0)
    with pytest.raises(ValueError, match="prediction length mismatch"):
        mon.step(x_sample(0.0), [x_sample(0.0)])
    mon2 = Monitor(compile_formula("p"), X_GE_0)
    with pytest.raises(ValueError, match="prediction length mismatch"):
        mon2.step(x_sample(0.0), [x_sample(0.0)])


def test_step_counter_advances():
    mon = Monitor(compile_formula("p"), X_GE_0)
    mon.step(x_sample(1.0))
    mon.step(x_sample(2.0))
    assert mon.i == 2


def always_monitor_after_one_step(q_values):
    """always[1,2] q monitored with perfect predictions q1, q2."""
    mon = Monitor(compile_formula("always[1,2] q"), {"q": Predicate("q", "y", lo=0.0)})
    q0, q1, q2 = q_values
    mon.step(
        StateSample({"y": q0}, 0.0),
        [StateSample({"y": q1}, 0.1), StateSample({"y": q2}, 0.2)],
    )
    return mon


def test_cr_always_row_is_min_of_next_two():
    mon = always_monitor_after_one_step([5.0, 1.0, 7.0])
    assert mon.cr(0, 0) == min(1.0, 7.0)
    mon = always_monitor_after_one_step([5.0, 8.0, 2.0])
    assert mon.cr(0, 0) == min(8.0, 2.0)


def test_cr_always_row_beyond_horizon_is_pos_inf():
    mon = always_monitor_after_one_step([5.0, 1.0, 7.0])
    until_row = next(k for k, n in enumerate(mon.formula.nodes) if n.kind == UNTIL)
    assert mon.cr(until_row, 2) == -INF
    assert mon.cr(0, 2) == INF


def test_cr_always_row_truncated_window():
    # at j=1 only the sample at offset 2 is inside the horizon
    mon = always_monitor_after_one_step([5.0, 1.0, 7.0])
    assert mon.cr(0, 1) == 7.0


def test_cr_unbounded_since_reads_table_index_0_at_its_leftmost_column():
    f = compile_formula("historically[0,inf) p")
    mon = Monitor(f, X_GE_0)
    since_row = next(k for k, n in enumerate(f.nodes) if n.kind == SINCE)
    mon.step(x_sample(3.0))
    mon.step(x_sample(5.0))
    start = mon.formula.nodes[since_row].history - mon.history
    assert start == -mon.history
    # the recurrence at the leftmost maintained column reads the column
    # left of the window
    assert mon.cr(since_row, start) == max(-5.0, float(mon.table[since_row, 0]))
    mon.table[since_row, 0] = 123.0
    assert mon.cr(since_row, start) == 123.0


def test_cr_rejects_columns_the_row_does_not_maintain():
    # history 3, but the since root maintains column 0 only: its window
    # at column -3 or further left would start before table index 0
    f = compile_formula("a since[0,3] b")
    preds = {"a": Predicate("a", "x", lo=0.0), "b": Predicate("b", "y", lo=0.0)}
    mon = Monitor(f, preds)
    for k in range(5):
        mon.step(StateSample({"x": 1.0 + k, "y": -1.0 - k}, k * 0.1))
    assert f.history == 3 and mon._rows[0].start == 0
    for j in (-1, -3, -4, -6, 1):
        with pytest.raises(IndexError):
            mon.cr(0, j)
    assert mon.cell(0, -3) is None
    assert mon.cr(0, 0) == mon.cell(0, 0)
    atom = next(k for k, n in enumerate(f.nodes) if n.kind == "atom")
    assert mon.cr(atom, -3) == mon.cell(atom, -3)


@pytest.mark.parametrize("entry", ["cell", "cr"])
def test_rejects_subformulas_outside_the_formula(entry):
    # a negative k used to wrap around to another row's value
    f = compile_formula("p since[0,3] q")
    mon = Monitor(f, {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)})
    mon.step(StateSample({"x": 1.0, "y": 1.0}, 0.0))
    count = len(f.nodes)
    for k in (-1, -count, count):
        with pytest.raises(IndexError, match=rf"subformula {k} outside the formula's {count} nodes"):
            getattr(mon, entry)(k, 0)


def test_previous_running_value_shifted_into_table_index_0():
    f = compile_formula("once[0,inf) q")
    mon = Monitor(f, Y_GE_4)
    mon.step(StateSample({"y": 9.0}, 0.0))
    assert float(mon.table[0, 0]) == -INF  # nothing defined before the first step
    mon.step(StateSample({"y": 1.0}, 0.1))
    assert float(mon.table[0, 0]) == 5.0  # previous step's running max


def test_cell_reports_undefined_during_warmup():
    f = compile_formula("always[1,2] q")
    mon = Monitor(f, {"q": Predicate("q", "y", lo=0.0)})
    atom_row = next(k for k, n in enumerate(f.nodes) if n.kind == "atom")
    mon.step(StateSample({"y": 1.0}, 0.0), [StateSample({"y": 2.0}, 0.1), StateSample({"y": 3.0}, 0.2)])
    assert mon.cell(atom_row, -1) is None  # atom history before the stream start
    assert mon.cell(atom_row, 0) == 1.0
    mon.step(StateSample({"y": 4.0}, 0.1), [StateSample({"y": 5.0}, 0.2), StateSample({"y": 6.0}, 0.3)])
    assert mon.cell(atom_row, -1) == 1.0  # actual sample, not a stale prediction
    assert mon.cell(atom_row, -2) is None
    with pytest.raises(IndexError):
        mon.cell(0, 3)


def test_shifted_atom_history_holds_actual_samples_not_predictions():
    f = compile_formula("eventually[0,1] p")
    mon = Monitor(f, X_GE_0)
    mon.step(x_sample(1.0, 0.0), [x_sample(99.0, 0.1)])
    mon.step(x_sample(2.0, 0.1), [x_sample(98.0, 0.2)])
    atom_row = next(k for k, n in enumerate(f.nodes) if n.kind == "atom")
    assert mon.cell(atom_row, -1) == 1.0  # the actual sample, 99.0 was discarded


def test_storage_never_grows():
    f = compile_formula("once[0,inf) q and historically[0,3] q")
    mon = Monitor(f, Y_GE_4)
    shape = mon.table.shape
    rng = random.Random(0)
    for k in range(500):
        mon.step(StateSample({"y": rng.uniform(-5, 5)}, k * 0.1))
    assert mon.table.shape == shape


def monitor_on(path, f, preds):
    """A monitor whose rows take one path on every step: "numpy" sends every
    row but an unbounded since through the numpy kernels, "cr" fills every
    row cell by cell through cr(), and "auto" keeps the monitor's per-step
    choice.  A step whose first recomputed column is row.cr_from or later
    takes cr(), and no step recomputes from beyond the horizon or from left
    of row.start."""
    mon = Monitor(f, preds)
    if path != "auto":
        for row in mon._rows:
            row.cr_from = mon.horizon + 1 if path == "numpy" and not row.unbounded else row.start
    return mon


def rows_on_numpy(mon, sample, ahead):
    """Take one step and return the rows it filled through numpy: those for
    which it made no cr() call."""
    called = set()
    cr = mon._cr

    def spy(k, j):
        called.add(k)
        return cr(k, j)

    mon._cr = spy
    try:
        mon.step(sample, ahead)
    finally:
        del mon._cr
    return set(range(len(mon._rows))) - called


ELEMENTWISE = frozenset({ATOM, NOT, OR, TRUE})


def rows_on_numpy_each_step(f, preds, variables, mode):
    """Run a fresh monitor from step 1 to two past the formula's history
    under the `mode` predictor and yield, for each step, the set of rows
    that step filled through numpy."""
    steps = f.history + 3
    trace = random_trace(random.Random(83), variables, steps + f.horizon)
    mon = Monitor(f, preds)
    for i in range(steps):
        yield rows_on_numpy(mon, trace.samples[i], predict(mode, trace, i, f.horizon))


@pytest.mark.parametrize(
    "text, vector",
    [
        ("p or historically[0,300] q", False),  # past-only: one cell per row and step
        ("eventually[0,3] p", True),  # held predictions: 4 cells per elementwise row and step
    ],
)
def test_elementwise_rows_take_numpy_when_a_step_recomputes_several_cells(text, vector):
    f = compile_formula(text)
    preds = {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)}
    elementwise = [k for k, node in enumerate(f.nodes) if node.kind in ELEMENTWISE]
    assert len(elementwise) >= 2
    for i, numpy in enumerate(rows_on_numpy_each_step(f, preds, ["x", "y"], "hold")):
        assert {k in numpy for k in elementwise} == {vector}, i


# The four benchmark specifications (perfbench/reference.py), copied as
# text, each under held predictions, where every step from step 1 on
# recomputes the same cells, so each row keeps one path: the windowed rows
# by kind, window and whether they took numpy, and the path every
# elementwise row took.  The benchmark's peak_rss_mb grows with run length,
# so a routing change that makes a workload's steps faster also moves its
# memory reading (ROADMAP item 1): this pins each row's path, so that a
# change of routing has to change this test on purpose.
@pytest.mark.parametrize(
    "text, windowed, elementwise",
    [
        (  # past-settle: past-only, one cell per row and step, under 4096 / window
            "(not lam_ok -> once[0,100] historically[0,100] lam_ok)"
            " and historically[0,200] (lam_ok since[0,inf) idle)",
            [(SINCE, 0, 100, False), (SINCE, 0, 100, False), (SINCE, 0, 200, False), (SINCE, 0, INF, False)],
            False,
        ),
        (  # mixed-hold: 11 or more cells per row and step, windowed rows at most 21 x 31
            "historically[0,30] (a -> eventually[0,10] b) and (c until[0,5] d) and once[0,8] d",
            [(SINCE, 0, 8, False), (SINCE, 0, 30, False), (UNTIL, 0, 5, False), (UNTIL, 0, 10, False)],
            True,
        ),
        ("p0 -> eventually[0,500] p1", [(UNTIL, 0, 500, True)], True),  # template-E under hold
        (  # wide-log: past-only
            "historically[0,4] (a_ok or b_ok) and once[0,3] c_ok",
            [(SINCE, 0, 3, False), (SINCE, 0, 4, False)],
            False,
        ),
    ],
)
def test_benchmark_specifications_keep_their_row_routing(text, windowed, elementwise):
    f = compile_formula(text)
    preds = {name: Predicate(name, name, lo=0.0) for name in f.atom_names}
    for i, numpy in enumerate(rows_on_numpy_each_step(f, preds, sorted(f.atom_names), "hold")):
        rows = list(enumerate(f.nodes))
        assert sorted(
            (node.kind, node.interval.lower, node.interval.upper, k in numpy)
            for k, node in rows
            if node.kind in (UNTIL, SINCE)
        ) == windowed, i
        assert {k in numpy for k, node in rows if node.kind not in (UNTIL, SINCE)} == {elementwise}, i


# Rows whose path changes after step 1: template E under its own predictor,
# perfect, and one until row whose recomputed cells x window reach
# _VECTOR_CELLS = 4096 exactly on its second step (128 x 32; 127 x 32 on the
# first).  Which rows take numpy on step 1, and on every later step up to
# two past the formula's history, by kind.
@pytest.mark.parametrize(
    "text, mode, first, later",
    [
        (  # after step 1 the atom, not and true rows recompute their horizon column alone
            "p0 -> eventually[0,500] p1", "perfect", ELEMENTWISE | {UNTIL}, {UNTIL, OR},
        ),
        ("a until[95,126] b", "hold", ELEMENTWISE, ELEMENTWISE | {UNTIL}),
    ],
    ids=["template-E", "until-at-4096"],
)
def test_each_step_routes_rows_by_the_cells_it_recomputes(text, mode, first, later):
    f = compile_formula(text)
    preds = {name: Predicate(name, name, lo=0.0) for name in f.atom_names}
    for i, numpy in enumerate(rows_on_numpy_each_step(f, preds, sorted(f.atom_names), mode)):
        kinds = first if i == 0 else later
        assert numpy == {k for k, node in enumerate(f.nodes) if node.kind in kinds}, i


def assert_recomputed_cells_equal_cr(mon):
    """Every cell the last step recomputed equals cr() over the table as
    it stands: the numpy kernels against the per-cell definition."""
    off = mon.history + 1
    for k, row in enumerate(mon._rows):
        for j in range(max(row.start, 1 - mon.i, -row.horizon), mon.horizon + 1):
            assert mon.table[k, j + off] == mon.cr(k, j), (k, j)


def test_numpy_rows_agree_with_cr_cell_for_cell():
    rng = random.Random(37)
    for _ in range(60):
        f = compile_formula(random_core_text(rng, max_depth=3, max_bound=6))
        if f.horizon > 25:
            continue
        preds = random_predicates(rng, f.atom_names)
        trace = random_trace(rng, [p.variable for p in preds.values()], rng.randint(f.horizon + 1, 25))
        vector = monitor_on("numpy", f, preds)
        plain = monitor_on("cr", f, preds)
        assert all((row.cr_from > f.horizon) != row.unbounded for row in vector._rows)
        assert all(row.cr_from == row.start for row in plain._rows)
        for i in range(len(trace.samples) - f.horizon):
            ahead = list(trace.samples[i + 1 : i + 1 + f.horizon])
            assert vector.step(trace.samples[i], ahead) == plain.step(trace.samples[i], ahead)
            assert np.array_equal(vector.table, plain.table)
            assert_recomputed_cells_equal_cr(vector)


@pytest.mark.parametrize("block", [3, 8, 25, 40])
@pytest.mark.parametrize(
    "text",
    [
        "a until[0,5] b",  # lo = 0, count 11 > window 6
        "a until[2,5] b",  # 0 < lo < up
        "a until[3,3] b",  # lo = up
        "a since[0,5] b",  # count 1
        "a since[2,5] b",
        "a since[4,4] b",
        "eventually[0,9] (a since[0,3] b)",  # since rows with count 10 > window 4
        "eventually[0,9] (a since[1,3] b)",
        "eventually[0,9] (a since[3,3] b)",
        "(a until[4,4] a) until[1,1] c",  # the inner window runs 4 columns into the pad
    ],
)
def test_kernel_blocks_match_plain_rows(monkeypatch, text, block):
    # every row on numpy, each recomputed cell held to cr().  _BLOCK
    # elements per running-minimum block: with these, an update of more
    # than a few cells spans several blocks, which the 1 << 20 default
    # never does at the bounds of the other tests.  A block with at least as
    # many cells as window offsets is filled one offset at a time, a taller
    # one by accumulate: 3 and 8 give only tall blocks, 25 gives until[0,5]
    # two wide blocks of 5 cells and a last one of 1, and 40 puts every
    # window of 3 in one wide block.  A wide block holds _CHUNK // cells
    # offsets at a time (at least one), each chunk continuing from the last
    # one's final row: 1 gives one-row chunks; with 16, 5-cell blocks take
    # chunks of 3 offsets, which do not divide until[0,5]'s window and hold
    # until[2,5]'s first disjunct inside the first chunk, and until[3,3]'s
    # 7 cells take chunks of 2, the second starting at its one disjunct;
    # with 25, the 10-cell since rows take chunks of 2, so since[3,3]'s
    # disjunct starts the second.  The default puts every window in one chunk
    monkeypatch.setattr(monitor_module, "_BLOCK", block)
    f = compile_formula(text)
    for chunk in (1, 16, 25, monitor_module._CHUNK):
        monkeypatch.setattr(monitor_module, "_CHUNK", chunk)
        rng = random.Random(block)
        preds = random_predicates(rng, f.atom_names)
        trace = random_trace(rng, sorted({p.variable for p in preds.values()}), f.history + f.horizon + 12)
        mon = monitor_on("numpy", f, preds)
        assert all(row.cr_from > f.horizon for row in mon._rows)
        for i in range(len(trace.samples) - f.horizon):
            mon.step(trace.samples[i], list(trace.samples[i + 1 : i + 1 + f.horizon]))
            assert_recomputed_cells_equal_cr(mon)
            assert (mon.table[:, mon.width + 1 :] == -INF).all()  # the pad is never written


def test_wide_until_step_holds_one_chunk_of_running_minima():
    # template E at H = 500 under perfect predictions: a steady step
    # recomputes 501 until cells over 500 offsets, a 2 MB block of running
    # minima if it were held at once
    f = compile_formula("p0 -> eventually[0,500] p1")
    preds = {p: Predicate(p, p, lo=-5.0, hi=5.0) for p in ("p0", "p1")}
    rng = random.Random(11)
    samples = [StateSample({"p0": rng.uniform(-6, 6), "p1": rng.uniform(-6, 6)}, k * 0.01) for k in range(1002)]
    mon = Monitor(f, preds)
    for i in range(f.history + 1):
        mon.step(samples[i], samples[i + 1 : i + 501])
    tracemalloc.start()
    try:
        mon.step(samples[f.history + 1], samples[f.history + 2 : f.history + 502])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_defined_cells_match_reference_per_subformula():
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        f = compile_formula(random_core_text(rng, max_depth=3, max_bound=5))
        if f.horizon > 15:
            continue
        preds = random_predicates(rng, f.atom_names)
        trace = random_trace(rng, [p.variable for p in preds.values()], rng.randint(f.horizon + 1, 18))
        mon = Monitor(f, preds)
        for i in range(len(trace.samples) - f.horizon):
            mon.step(trace.samples[i], list(trace.samples[i + 1 : i + 1 + f.horizon]))
            prefix = Trace(trace.samples[: i + f.horizon + 1], trace.delta_t)
            for k in range(len(f.nodes)):
                for j in range(-f.history, f.horizon + 1):
                    got = mon.cell(k, j)
                    if got is None:
                        continue
                    assert got == offline_robustness(f, preds, prefix, i + j, node=k)
                    checked += 1
    assert checked > 2000


@pytest.mark.parametrize(
    "text, nodes",
    [
        ("(p S[1,inf) q) S[0,0] r", [(SINCE, 1, 4, Interval(0, 0)), (SINCE, 2, 3, Interval(1, INF)), "p", "q", "r"]),
        ("(a until[4,4] a) until[0,0] c", [(UNTIL, 1, 3, Interval(0, 0)), (UNTIL, 2, 2, Interval(4, 4)), "a", "c"]),
    ],
    ids=["since", "until"],
)
def test_zero_window_compiles_to_its_trigger(text, nodes):
    # a [0,0] window reads only its trigger at the current step
    f = compile_formula(text)
    assert f == compile_formula(nodes[-1])
    # the oracle on a formula that keeps the [0,0] node agrees (it reads
    # no horizon or history annotation, so none is given)
    kept = Formula(
        tuple(CoreNode(ATOM, name=n) if isinstance(n, str) else CoreNode(*n) for n in nodes),
        frozenset(n for n in nodes if isinstance(n, str)),
    )
    rng = random.Random(67)
    for _ in range(5):
        preds = random_predicates(rng, kept.atom_names)
        trace = random_trace(rng, sorted({p.variable for p in preds.values()}), 40)
        mon = Monitor(f, preds)
        assert [mon.step(sample) for sample in trace.samples] == offline_robustness_series(kept, preds, trace)


def test_single_sample_stream():
    f = compile_formula("p and once[0,inf) p")
    mon = Monitor(f, X_GE_0)
    assert mon.step(x_sample(2.0)) == 2.0


def test_monitor_output_matches_oracle_smoke():
    rng = random.Random(43)
    f = compile_formula("(a until[0,3] b) or (a since[1,inf) b)")
    preds = random_predicates(rng, f.atom_names)
    trace = random_trace(rng, [p.variable for p in preds.values()], 20)
    outs, _ = perfect_series(f, preds, trace)
    expect = offline_robustness_series(f, preds, trace)
    assert outs == expect[: len(outs)]


def test_rejected_step_leaves_monitor_unchanged():
    f = compile_formula("prev p or (q and false)")
    preds = {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)}
    mon = Monitor(f, preds)
    mon.step(StateSample({"x": 1.0, "y": 0.0}, 0.0))
    before = (mon.table.tobytes(), mon.i)
    with pytest.raises(KeyError, match="unknown variable 'y'"):
        mon.step(StateSample({"x": 8.0}, 0.1))
    for bad in BAD_VALUES:
        with pytest.raises(ValueError, match=re.escape(f"value {bad!r} of variable 'x' in sample at t=0.1 is not")):
            mon.step(StateSample({"x": bad, "y": 0.0}, 0.1))
        assert (mon.table.tobytes(), mon.i) == before
    for bad in ({"x": 8.0, "y": 0.0}, None):  # a dict's values is a method, None has none
        with pytest.raises(TypeError, match=f"^sample must be a StateSample, got {re.escape(repr(bad))}$"):
            mon.step(bad)
        assert (mon.table.tobytes(), mon.i) == before
    with pytest.raises(TypeError, match="^predictions must be an iterable of StateSample, got 5$"):
        mon.step(StateSample({"x": 8.0, "y": 0.0}, 0.1), 5)
    assert (mon.table.tobytes(), mon.i) == before
    ahead = Monitor(compile_formula("eventually[0,2] p"), preds)
    ahead.step(x_sample(1.0), [x_sample(2.0), x_sample(3.0)])
    ahead_before = (ahead.table.tobytes(), ahead.i)
    with pytest.raises(TypeError, match="^sample must be a StateSample, got None$"):
        ahead.step(x_sample(2.0), [None, None])
    assert (ahead.table.tobytes(), ahead.i) == ahead_before
    assert mon.step(StateSample({"x": 3, "y": np.float32(0.0)}, 0.1)) == 1.0  # other reals pass


def test_rejected_prediction_leaves_monitor_unchanged():
    f = compile_formula("once[0,inf) p and eventually[0,2] p")
    mon = Monitor(f, X_GE_0)
    mon.step(x_sample(1.0), [x_sample(2.0), x_sample(3.0)])
    before = (mon.table.tobytes(), mon.i)
    with pytest.raises(ValueError, match="not a finite real number"):
        mon.step(x_sample(2.0), [x_sample(3.0), x_sample(math.nan)])
    with pytest.raises(KeyError, match="unknown variable 'x'"):
        mon.step(x_sample(2.0), [StateSample({"y": 3.0}), x_sample(4.0)])
    assert (mon.table.tobytes(), mon.i) == before


@pytest.mark.parametrize(
    "pred", [Predicate("p", "x", lo=-1e308), Predicate("p", "x", lo=0.0, gain=10.0)], ids=["subtract", "gain"]
)
def test_numpy_atom_row_overflows_to_inf_silently(pred):
    # cr() overflows a signed distance to inf without a warning, and so
    # does the numpy atom row; a RuntimeWarning fails the test
    f = compile_formula("eventually[0,70] p")
    mon = Monitor(f, {"p": pred})
    atom = next(k for k, n in enumerate(f.nodes) if n.kind == "atom")
    assert mon._rows[atom].cr_from > 0  # the first step recomputes it from column 0, through numpy
    assert mon.step(x_sample(1e308), [x_sample(1e308)] * 70) == INF
    assert mon.cell(atom, 0) == INF


def test_step_ignores_variables_the_formula_does_not_read():
    mon = Monitor(compile_formula("p"), X_GE_0)
    assert mon.step(StateSample({"x": 2.0, "unused": math.nan})) == 2.0


def loaded_copy(directory, trace, name="trace.csv"):
    """The trace written to a CSV file and loaded back: each sample's values
    become a row of one shared buffer, with the same floats."""
    names = list(trace.samples[0].values)
    path = directory / name
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["time", *names]) + "\n")
        for s in trace.samples:
            fh.write(",".join(map(repr, [s.time, *(s.values[n] for n in names)])) + "\n")
    return load_trace(str(path))


def dict_copy(sample):
    return StateSample(dict(sample.values), sample.time)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["hold", "perfect"]))
def test_loaded_and_dict_frontiers_step_alike(tmp_path, seed, mode):
    """A monitor read through the loaded rows' bulk reader and one fed dict
    copies of the same samples give equal verdicts and bit-identical tables
    after every step, warm-up included."""
    rng = random.Random(seed)
    f = compile_formula(random_core_text(rng, max_depth=3, max_bound=6))
    while not 0 < f.horizon <= 20:
        f = compile_formula(random_core_text(rng, max_depth=3, max_bound=6))
    preds = random_predicates(rng, f.atom_names)
    trace = random_trace(rng, sorted({p.variable for p in preds.values()}), f.horizon + rng.randint(1, 15))
    loaded = loaded_copy(tmp_path, trace)
    dicts = Trace(tuple(map(dict_copy, loaded.samples)), loaded.delta_t)
    bulk, lookup = Monitor(f, preds), Monitor(f, preds)
    steps = len(trace) - (f.horizon if mode == "perfect" else 0)
    for i in range(steps):
        ahead = predict(mode, loaded, i, f.horizon)
        assert RowValues.columns([loaded.samples[i], *ahead], bulk._variables) is not None
        got = bulk.step(loaded.samples[i], ahead)
        assert got == lookup.step(dicts.samples[i], predict(mode, dicts, i, f.horizon))
        assert bulk.table.tobytes() == lookup.table.tobytes()


def mixed_frontier(loaded, other, dicts):
    """A loaded row, then a dict sample, then loaded rows."""
    return [loaded.samples[0], dicts.samples[1], *loaded.samples[2:4]]


def two_trace_frontier(loaded, other, dicts):
    """Rows of two loaded traces: their buffers differ."""
    return [loaded.samples[0], other.samples[1], *loaded.samples[2:4]]


@pytest.mark.parametrize("frontier", [mixed_frontier, two_trace_frontier])
def test_frontiers_the_bulk_reader_passes_over_read_alike(tmp_path, frontier):
    """A frontier that is not all rows of one buffer is read one lookup at a
    time: the monitor steps as on dict samples, and a bad value in it is
    refused with sample_value's message, leaving the monitor unchanged."""
    f = compile_formula("a until[0,3] b")
    preds = {"a": Predicate("a", "x", lo=0.0), "b": Predicate("b", "y", hi=1.0)}
    trace = random_trace(random.Random(5), ["x", "y"], 6)
    loaded = loaded_copy(tmp_path, trace)
    other = loaded_copy(tmp_path, random_trace(random.Random(7), ["x", "y"], 6), "other.csv")
    dicts = Trace(tuple(map(dict_copy, loaded.samples)), loaded.delta_t)
    mixed = frontier(loaded, other, dicts)
    assert RowValues.columns(mixed, ["x", "y"]) is None
    mon, ref = Monitor(f, preds), Monitor(f, preds)
    copies = list(map(dict_copy, mixed))
    assert mon.step(mixed[0], mixed[1:]) == ref.step(copies[0], copies[1:])
    assert mon.table.tobytes() == ref.table.tobytes()
    before = (mon.table.tobytes(), mon.i)
    bad = [*mixed[:3], StateSample({"x": math.nan, "y": 0.0}, 0.3)]
    with pytest.raises(ValueError, match=re.escape("value nan of variable 'x' in sample at t=0.3 is not")):
        mon.step(bad[0], bad[1:])
    assert (mon.table.tobytes(), mon.i) == before


def test_loaded_rows_without_a_variable_give_the_one_key_error(tmp_path):
    """Rows of one buffer that lack a variable the formula reads fall back to
    the per-lookup read, which raises the one KeyError message."""
    f = compile_formula("eventually[0,2] (p or q)")
    preds = {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)}
    loaded = loaded_copy(tmp_path, random_trace(random.Random(6), ["x"], 5))
    mon = Monitor(f, preds)
    mon.step(StateSample({"x": 1.0, "y": 2.0}, 0.0), [StateSample({"x": 1.0, "y": 2.0}, 0.1)] * 2)
    before = (mon.table.tobytes(), mon.i)
    assert RowValues.columns(loaded.samples[1:4], mon._variables) is None
    with pytest.raises(KeyError) as exc:
        mon.step(loaded.samples[1], loaded.samples[2:4])
    assert exc.value.args == ("unknown variable 'y' in sample at t=0.1",)
    assert (mon.table.tobytes(), mon.i) == before


def test_bulk_reader_passes_over_a_row_that_is_not_finite():
    """A row view whose buffer holds a value that is not finite is refused
    by the per-lookup read, with its message."""
    row = StateSample(RowValues(({"x": 0}, array("d", [math.inf, 1.0])), 0), 0.0)
    assert RowValues.columns([row], ["x"]) is None
    mon = Monitor(compile_formula("eventually[0,1] p"), X_GE_0)
    with pytest.raises(ValueError, match="^value inf of variable 'x' in sample at t=0.0 is not a finite real number$"):
        mon.step(row, [row])
    assert mon.i == 0 and (mon.table == -INF).all()


def held_prefix(trace, i, horizon):
    """Samples 0..i followed by `horizon` held copies of sample i."""
    held = tuple(StateSample(trace.samples[i].values, trace.samples[i].time + k * trace.delta_t)
                 for k in range(1, horizon + 1))
    return Trace(trace.samples[: i + 1] + held, trace.delta_t)


def hold_cases(seed, count):
    """Fuzzed formulas, some with unbounded since, each with a trace."""
    rng = random.Random(seed)
    while count:
        f = compile_formula(random_core_text(rng, max_depth=3, max_bound=5))
        if f.horizon > 12:
            continue
        preds = random_predicates(rng, f.atom_names)
        trace = random_trace(rng, [p.variable for p in preds.values()], rng.randint(f.history + 2, f.history + 25))
        count -= 1
        yield f, preds, trace


def test_hold_predictions_match_reference_on_held_prefix():
    unbounded = 0
    for f, preds, trace in hold_cases(59, 120):
        unbounded += contains_unbounded_since(f)
        for path in ("cr", "numpy"):
            mon = monitor_on(path, f, preds)
            for i, sample in enumerate(trace.samples):
                out = mon.step(sample, [sample] * f.horizon)
                assert out == offline_robustness(f, preds, held_prefix(trace, i, f.horizon), i)
    assert unbounded >= 20


def test_cells_left_of_row_horizon_are_shifted_unchanged():
    checked = 0
    for f, preds, trace in hold_cases(61, 120):
        mon = Monitor(f, preds)
        h = mon.history
        for i, sample in enumerate(trace.samples):
            prev = mon.table.copy()
            mon.step(sample, [sample] * f.horizon)
            for k, node in enumerate(f.nodes):
                for j in range(max(node.history - h, -i), -node.horizon):
                    # final cell: carried over from the previous step and
                    # equal to a recomputation from the operand rows
                    assert mon.table[k, j + h + 1] == prev[k, j + h + 2] == mon.cr(k, j)
                    checked += 1
    assert checked > 10000


@pytest.mark.parametrize("mode", ["hold", "none", "perfect"])
def test_root_column_minus_horizon_is_the_settled_verdict(mode):
    """After the step for step i, cell(0, -horizon) is the oracle's verdict
    for step i - horizon on the actual trace, whatever predictions were fed:
    held copies, none (past-only formulas) or the actual future, warm-up
    steps included.  Before step horizon it is None."""
    rng = random.Random({"hold": 71, "none": 72, "perfect": 73}[mode])
    settled = 0
    for _ in range(80):
        text = random_past_text(rng, max_depth=3) if mode == "none" else random_core_text(rng, 3, 5)
        f = compile_formula(text)
        if f.horizon > 12:
            continue
        preds = random_predicates(rng, f.atom_names)
        trace = random_trace(rng, [p.variable for p in preds.values()], rng.randint(f.horizon + 1, f.history + 25))
        expected = offline_robustness_series(f, preds, trace)
        mon = Monitor(f, preds)
        h = f.horizon
        for i, sample in enumerate(trace.samples[: len(trace) - h if mode == "perfect" else None]):
            ahead = list(trace.samples[i + 1 : i + 1 + h]) if mode == "perfect" else [sample] * h
            mon.step(sample, ahead)
            if i < h:
                assert mon.cell(0, -h) is None
            else:
                assert mon.cell(0, -h) == expected[i - h], (text, i)
                settled += 1
    assert settled > 1000


def exactly(got, want):
    """Equal, and of the same sign where both are zero: == cannot tell 0.0
    from -0.0, and neither evaluator may make -0.0 (see semantics)."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def assert_cells_match(mon, f, preds, trace, i):
    """Every defined cell after the step for step i equals the reference
    for its subformula at step i + j, on the trace the monitor was fed."""
    for k in range(len(f.nodes)):
        series = offline_robustness_series(f, preds, trace, node=k)
        for j in range(-f.history, f.horizon + 1):
            got = mon.cell(k, j)
            assert got is None or exactly(got, series[i + j]), (k, j, got, series[i + j])


@pytest.mark.parametrize("path", ["cr", "numpy"])
def test_held_zero_that_changes_sign_is_new(path):
    """x = 0.0 then x = -0.0 under held predictions: equal values, other
    bits.  Both give the distance 0.0, so the second frontier repeats the
    first up to its horizon column, and on either row path the verdict is
    0.0, as the reference's is."""
    f = compile_formula("eventually[0,2] p")
    mon = monitor_on(path, f, X_GE_0)
    samples = [x_sample(0.0), x_sample(-0.0, 0.1)]
    for i, sample in enumerate(samples):
        out = mon.step(sample, [sample] * f.horizon)
        held = held_prefix(Trace(tuple(samples[: i + 1]), 0.1), i, f.horizon)
        assert exactly(out, offline_robustness(f, X_GE_0, held, i))
    assert math.copysign(1.0, out) == 1.0


@pytest.mark.parametrize("path", ["cr", "numpy"])
@pytest.mark.parametrize(
    "text, pred",
    [
        ("eventually[0,2] p", Predicate("p", "x", lo=0.0)),
        ("eventually[0,2] not p", Predicate("p", "x", lo=0.0)),
        ("historically[0,2] p", Predicate("p", "x", lo=0.0, hi=0.0)),  # x - lo and hi - x tie at x = 0
        ("p or not p", Predicate("p", "x", lo=0.0)),
    ],
    ids=["eventually", "eventually-not", "historically-point", "p-or-not-p"],
)
def test_zero_has_one_sign_on_both_row_paths(text, pred, path):
    """Every frontier of three values drawn from 0.0, -0.0 and -1.0: one
    step with two predictions, or three steps of a past-only formula.  On
    a tie of 0.0 and -0.0 numpy's maximum and minimum keep the second
    operand and Python's the first, so the two row paths agree with each
    other and with the reference, sign included, only because no value is
    -0.0 (see semantics): every defined cell equals the reference exactly
    and no table cell is -0.0."""
    f = compile_formula(text)
    preds = {"p": pred}
    for values in itertools.product((0.0, -0.0, -1.0), repeat=3):
        trace = Trace(tuple(x_sample(v, 0.1 * t) for t, v in enumerate(values)), 0.1)
        mon = monitor_on(path, f, preds)
        for i in range(len(trace) - f.horizon):
            mon.step(trace.samples[i], list(trace.samples[i + 1 : i + 1 + f.horizon]))
            assert_cells_match(mon, f, preds, trace, i)
            assert not np.signbit(mon.table[mon.table == 0.0]).any(), values


@pytest.mark.parametrize("seed", range(4))
def test_revised_forecasts_match_reference_on_what_was_fed(seed):
    """A forecaster keeps its forecast up to some column k and revises the
    rest, k drawn anew each step; the next actual sample is either last
    step's forecast for it or a surprise.  So from one step to the next
    the frontier repeats, bit for bit, on a prefix of any length.  Now and
    then the stream stalls instead: the sample comes again and the whole
    forecast moves one column later, which repeats last step's frontier
    one column off, and nothing of it at the same time.  Every defined
    cell equals the reference on the samples fed so far followed by the
    current predictions, warm-up steps included."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(25):
        f = compile_formula(random_core_text(rng, max_depth=3, max_bound=4))
        if not f.atom_names or not 0 < f.horizon <= 8:
            continue
        preds = random_predicates(rng, f.atom_names)
        variables = sorted({p.variable for p in preds.values()})

        def fresh(t):
            return StateSample({v: rng.uniform(-10, 10) for v in variables}, t)

        for path in ("cr", "numpy"):
            mon = monitor_on(path, f, preds)
            actual, frontier = [], [fresh(0.1 * c) for c in range(f.horizon + 1)]
            for i in range(rng.randint(f.history + 2, f.history + 12)):
                if i and rng.random() < 0.2:  # a stall
                    moved = frontier[:1] + frontier[:-1]
                    frontier = [StateSample(s.values, 0.1 * (i + c)) for c, s in enumerate(moved)]
                elif i:
                    keep = rng.randint(0, f.horizon)  # columns 0..keep-1 repeat last step's forecast
                    frontier = frontier[1 : keep + 1] + [fresh(0.1 * (i + c)) for c in range(keep, f.horizon + 1)]
                mon.step(frontier[0], frontier[1:])
                actual.append(frontier[0])
                assert_cells_match(mon, f, preds, Trace(tuple(actual + frontier[1:]), 0.1), i)
                checked += 1
    assert checked > 100


VALUES = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)


class InterleavedSteps(RuleBasedStateMachine):
    """Valid steps mixed with rejected ones under held predictions: every
    defined cell equals the reference on the valid steps alone, and a
    rejected step leaves the table and the step counter as they were.  A
    step may repeat the last valid one's values, so that its held
    predictions are not new, or retry the last rejected one's values with
    the fault mended, which are new however much of them that step read."""

    @initialize(seed=st.integers(0, 2**16), path=st.sampled_from(("auto", "cr", "numpy")))
    def build(self, seed, path):
        rng = random.Random(seed)
        f = compile_formula(random_core_text(rng, max_depth=3, max_bound=4))
        while not f.atom_names or f.horizon > 6:
            f = compile_formula(random_core_text(rng, max_depth=3, max_bound=4))
        self.formula = f
        self.preds = random_predicates(rng, f.atom_names)
        self.variables = sorted({p.variable for p in self.preds.values()})
        self.mon = monitor_on(path, f, self.preds)
        self.samples = []
        self.last = self.refused = None

    def frontier(self, values):
        sample = StateSample(dict(zip(self.variables, values)), len(self.samples) * 0.1)
        return [sample] * (1 + self.formula.horizon)

    def state(self):
        return self.mon.table.tobytes(), self.mon.i

    @rule(values=VALUES)
    def valid_step(self, values):
        sample, *ahead = self.frontier(values)
        out = self.mon.step(sample, ahead)
        self.samples.append(sample)
        self.last = values
        i = len(self.samples) - 1
        held = held_prefix(Trace(tuple(self.samples), 0.1), i, self.formula.horizon)
        assert exactly(out, offline_robustness(self.formula, self.preds, held, i))
        assert_cells_match(self.mon, self.formula, self.preds, held, i)

    @precondition(lambda self: self.last is not None)
    @rule()
    def repeat_step(self):
        self.valid_step(self.last)

    @precondition(lambda self: self.refused is not None)
    @rule()
    def retry_step(self):
        self.valid_step(self.refused)

    @rule(values=VALUES, fault=st.sampled_from(("missing", "nan", "inf", "length")),
          var=st.integers(0, 2), at=st.integers(0, 6))
    def rejected_step(self, values, fault, var, at):
        frontier = self.frontier(values)
        if fault == "length":
            frontier.append(frontier[0])
            error = ValueError
        else:
            name = self.variables[var % len(self.variables)]
            at %= len(frontier)
            bad = dict(frontier[at].values)
            if fault == "missing":
                del bad[name]
                error = KeyError
            else:
                bad[name] = math.nan if fault == "nan" else INF
                error = ValueError
            frontier[at] = StateSample(bad, frontier[at].time)
        before = self.state()
        with pytest.raises(error):
            self.mon.step(frontier[0], frontier[1:])
        assert self.state() == before
        self.refused = values


TestInterleavedSteps = InterleavedSteps.TestCase
TestInterleavedSteps.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
