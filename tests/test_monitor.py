import math
import random

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from mtlmon import (
    Monitor,
    Predicate,
    PredicateError,
    StateSample,
    compile_formula,
    offline_robustness,
    offline_robustness_series,
)
from mtlmon import monitor as monitor_module
from mtlmon.formula import ATOM, SINCE, UNTIL, CoreNode, Formula, Interval
from mtlmon.oracle import Trace

from helpers import contains_unbounded_since, perfect_series, random_core_text, random_predicates, random_trace

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
    """A monitor whose rows take one path: "numpy" sends every row but an
    unbounded since through the numpy kernels, "cr" fills every row cell
    by cell through cr(), and "auto" keeps the routing the monitor chose."""
    mon = Monitor(f, preds)
    if path != "auto":
        for row in mon._rows:
            row.vector = path == "numpy" and not row.unbounded
    return mon


@pytest.mark.parametrize(
    "text, vector",
    [
        ("p or historically[0,300] q", False),  # past-only: one cell per row and step
        ("eventually[0,3] p", True),  # 4 cells per elementwise row and step
    ],
)
def test_elementwise_rows_take_numpy_when_a_step_recomputes_several_cells(text, vector):
    f = compile_formula(text)
    mon = Monitor(f, {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)})
    elementwise = [row for row in mon._rows if row.kind not in (UNTIL, SINCE)]
    assert len(elementwise) >= 2
    assert all(row.vector == vector for row in elementwise)


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
        assert all(row.vector != row.unbounded for row in vector._rows)
        assert not any(row.vector for row in plain._rows)
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
    # window of 3 in one wide block
    monkeypatch.setattr(monitor_module, "_BLOCK", block)
    rng = random.Random(block)
    f = compile_formula(text)
    preds = random_predicates(rng, f.atom_names)
    trace = random_trace(rng, sorted({p.variable for p in preds.values()}), f.history + f.horizon + 12)
    mon = monitor_on("numpy", f, preds)
    assert all(row.vector for row in mon._rows)
    for i in range(len(trace.samples) - f.horizon):
        mon.step(trace.samples[i], list(trace.samples[i + 1 : i + 1 + f.horizon]))
        assert_recomputed_cells_equal_cr(mon)
        assert (mon.table[:, mon.width + 1 :] == -INF).all()  # the pad is never written


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
    for bad in (math.nan, INF):
        with pytest.raises(ValueError, match="non-finite value"):
            mon.step(StateSample({"x": bad, "y": 0.0}, 0.1))
    assert (mon.table.tobytes(), mon.i) == before
    assert mon.step(StateSample({"x": 3.0, "y": 0.0}, 0.1)) == 1.0


def test_rejected_prediction_leaves_monitor_unchanged():
    f = compile_formula("once[0,inf) p and eventually[0,2] p")
    mon = Monitor(f, X_GE_0)
    mon.step(x_sample(1.0), [x_sample(2.0), x_sample(3.0)])
    before = (mon.table.tobytes(), mon.i)
    with pytest.raises(ValueError, match="non-finite value"):
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
    assert mon._rows[atom].vector
    assert mon.step(x_sample(1e308), [x_sample(1e308)] * 70) == INF
    assert mon.cell(atom, 0) == INF


def test_step_ignores_variables_the_formula_does_not_read():
    mon = Monitor(compile_formula("p"), X_GE_0)
    assert mon.step(StateSample({"x": 2.0, "unused": math.nan})) == 2.0


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


VALUES = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)


class InterleavedSteps(RuleBasedStateMachine):
    """Valid steps mixed with rejected ones under held predictions: every
    output equals the reference on the valid steps alone, and a rejected
    step leaves the table and the step counter as they were."""

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
        i = len(self.samples) - 1
        held = held_prefix(Trace(tuple(self.samples), 0.1), i, self.formula.horizon)
        assert out == offline_robustness(self.formula, self.preds, held, i)

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


TestInterleavedSteps = InterleavedSteps.TestCase
TestInterleavedSteps.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
