"""Every public entry point refuses a bad argument with a check of its own.

Each callable of `mtlmon.__all__`, and each public method of `Monitor`,
starts from a valid call, and one of its arguments is replaced by an
arbitrary small object.  The call must return or raise from a package
check: never AttributeError or OverflowError, and
a TypeError, KeyError or IndexError only from a `raise` statement of the
package, not one that Python or numpy raise inside it.

A hand-built Formula is swept one field at a time: one field of one node
of a compiled formula, or the node tuple itself, is replaced.  Formula's
rule refuses it, naming the node and the field, or it is accepted and the
monitor agrees with the oracle at every step.
"""

import linecache
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mtlmon
from mtlmon.formula import ATOM, NOT, OR, SINCE, TRUE, UNTIL
from mtlmon import (
    ConfigError,
    CoreNode,
    Formula,
    Interval,
    Monitor,
    ParseError,
    Predicate,
    PredicateError,
    PredictorMode,
    StateSample,
    SurfaceNode,
    Trace,
    TraceError,
    TraceExhausted,
    boolean_eval,
    compile_formula,
    desugar,
    format_formula,
    gen_case_study_trace,
    load_trace,
    offline_robustness,
    offline_robustness_series,
    parse_formula,
    parse_predicates,
    predict,
    signed_distance,
    write_robustness_csv,
)

PACKAGE = Path(mtlmon.__file__).parent
P = Predicate("p", "x", lo=0.0)
PREDS = {"p": P, "q": Predicate("q", "y", hi=1.0)}
FORMULA = compile_formula("p or once[5,5] q")
TREE = parse_formula("p until[0,2] q")
SAMPLES = tuple(StateSample({"x": float(k), "y": 0.5 * k}, 0.1 * k) for k in range(3))
TRACE = Trace(SAMPLES, 0.1, ("x", "y"))

# a valid call of each callable in mtlmon.__all__, by name; Rho is float
CALLS = {
    "CoreNode": (CoreNode, ("atom", -1, -1, None, "p")),
    "Formula": (Formula, (FORMULA.nodes,)),
    "Interval": (Interval, (0, 3)),
    "ParseError": (ParseError, ("bad", 0)),
    "SurfaceNode": (SurfaceNode, ("until", TREE.children, Interval(0, 2), None)),
    "compile_formula": (compile_formula, ("p until[0,2] q",)),
    "desugar": (desugar, (TREE,)),
    "format_formula": (format_formula, (TREE,)),
    "parse_formula": (parse_formula, ("p until[0,2] q",)),
    "Monitor": (Monitor, (FORMULA, PREDS)),
    "Trace": (Trace, (SAMPLES, 0.1, ("x", "y"))),
    "boolean_eval": (boolean_eval, (FORMULA, PREDS, TRACE, 1, 0)),
    "offline_robustness": (offline_robustness, (FORMULA, PREDS, TRACE, 1, 0)),
    "offline_robustness_series": (offline_robustness_series, (FORMULA, PREDS, TRACE, 0)),
    "Predicate": (Predicate, ("p", "x", 0.0, 5.0, 2.0)),
    "PredicateError": (PredicateError, ("bad",)),
    "StateSample": (StateSample, ({"x": 1.0}, 0.0)),
    "parse_predicates": (parse_predicates, ("p : x >= 0",)),
    "signed_distance": (signed_distance, (SAMPLES[1], P)),
    "ConfigError": (ConfigError, ("bad",)),
    "PredictorMode": (PredictorMode, ("hold",)),
    "TraceError": (TraceError, ("bad",)),
    "TraceExhausted": (TraceExhausted, ("bad",)),
    "gen_case_study_trace": (gen_case_study_trace, (2.0, 0.3, 6.0, 0.1)),
    "load_trace": (load_trace, ("trace.csv",)),
    "predict": (predict, ("hold", TRACE, 0, 2)),
    "write_robustness_csv": (write_robustness_csv, ("out.csv", [(0, 0.0, 1.0)])),
}



def stepped():
    """A monitor of `p until[0,2] q` after its first step."""
    mon = Monitor(desugar(TREE), PREDS)
    mon.step(SAMPLES[0], SAMPLES[1:])
    return mon


# and of each public method of a monitor, on a fresh one
METHODS = {
    "Monitor.step": (lambda *args: stepped().step(*args), (SAMPLES[0], SAMPLES[1:])),
    "Monitor.cell": (lambda *args: stepped().cell(*args), (0, 0)),
    "Monitor.cr": (lambda *args: stepped().cr(*args), (0, 0)),
}

# small objects only: no call may allocate much, and no str names a path
# outside the working directory ("/" is not in the alphabet)
ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.just(2**63),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 1e300, math.nan, math.inf, -math.inf]),
    st.text("pqx01 ()[],:<=>-", max_size=3),
    st.binary(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from("pqx"), st.integers(0, 3), max_size=2),
    st.tuples(st.integers(0, 3)),
    st.builds(object),
)


def package_raise(exc):
    """Whether exc comes from a raise statement in the package's source."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename)
    return path.is_relative_to(PACKAGE) and linecache.getline(str(path), tb.tb_lineno).lstrip().startswith("raise ")


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """A working directory of its own, holding trace.csv: load_trace and
    write_robustness_csv take relative paths."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trace.csv").write_text("time,x,y\n0,1,2\n0.1,2,3\n")


def test_every_public_callable_has_a_valid_call(in_tmp):
    assert {name for name in mtlmon.__all__ if callable(getattr(mtlmon, name))} - {"Rho"} == set(CALLS)
    for func, args in {**CALLS, **METHODS}.values():
        func(*args)


def leak(func, args):
    """The exception func(*args) raises if no package check raised it, or None."""
    try:
        func(*args)
    except (AttributeError, OverflowError) as exc:
        return exc
    except (TypeError, KeyError, IndexError) as exc:
        return None if package_raise(exc) else exc
    except (ValueError, MemoryError, OSError):
        pass
    return None


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(odd=ODD)
def test_one_odd_argument_is_refused_by_a_package_check(in_tmp, odd):
    leaks = [
        f"{name} argument {k}: {exc!r}"
        for name, (func, args) in {**CALLS, **METHODS}.items()
        for k in range(len(args))
        if (exc := leak(func, (*args[:k], odd, *args[k + 1 :]))) is not None
    ]
    assert not leaks, leaks


# the field sweep: compiled formulas, a 12-sample trace they all read, and
# the values a field or the node tuple is replaced by
BASES = tuple(
    compile_formula(text)
    for text in ("p or once[5,5] q", "p until[1,3] q", "historically[0,inf) (p or q)", "not (p since[0,2] q)")
)
SWEEP_TRACE = Trace(
    tuple(StateSample({"x": x, "y": 0.25 * k - 1.0}, 0.1 * k) for k, x in enumerate((3, -1, 0.5, 2, -2, 1, 0, 4, -0.5, 1, 2, -3))),
    0.1,
)
SLOTS = [(b, k, field.name) for b, f in enumerate(BASES) for k in range(len(f.nodes)) for field in fields(CoreNode)]
INTERVALS = [Interval(0, 0), Interval(0, 1), Interval(1, 1), Interval(2, 5), Interval(0, math.inf), Interval(3, math.inf)]
FIELD_VALUES = st.one_of(ODD, st.sampled_from([TRUE, ATOM, NOT, OR, UNTIL, SINCE, *INTERVALS, Interval(0, 2**40)]))
NODES_VALUES = st.one_of(
    ODD, st.sampled_from([(), BASES[1].nodes[1:], BASES[1].nodes[::-1], list(BASES[1].nodes), (*BASES[1].nodes, "p")])
)


def monitored(nodes):
    """"refused" if a package check refuses Formula(nodes) or its monitor,
    "agreed" if the monitor equals the oracle at every step that has its
    perfect predictions, else what leaked."""
    try:
        f = Formula(nodes)
        mon = Monitor(f, PREDS)
    except (TypeError, ValueError, MemoryError) as exc:
        return "refused" if package_raise(exc) else repr(exc)
    except Exception as exc:
        return repr(exc)
    samples, h = SWEEP_TRACE.samples, f.horizon
    assert h < len(samples), f  # no swept value reaches that far
    got = [mon.step(samples[i], samples[i + 1 : i + 1 + h]) for i in range(len(samples) - h)]
    expected = offline_robustness_series(f, PREDS, SWEEP_TRACE)[: len(got)]
    return "agreed" if got == expected else f"{f}: monitor {got}, oracle {expected}"


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(slot=st.sampled_from(SLOTS), value=FIELD_VALUES)
def test_one_odd_field_is_refused_by_the_rule_or_monitored_as_the_oracle_reads_it(slot, value):
    b, k, name = slot
    nodes = list(BASES[b].nodes)
    nodes[k] = replace(nodes[k], **{name: value})
    try:
        Formula(tuple(nodes))
    except ValueError as exc:  # the rule names the node it checked and one field
        assert re.match(rf"nodes\[{k}\]\.(kind|left|right|interval|name) must be ", str(exc)), exc
    assert monitored(tuple(nodes)) in ("refused", "agreed")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(nodes=NODES_VALUES)
def test_an_odd_node_tuple_is_refused_or_monitored_as_the_oracle_reads_it(nodes):
    assert monitored(nodes) in ("refused", "agreed")


def test_the_field_sweep_intervals_give_both_outcomes():
    """Each interval of the sweep on each until and since node: some keep
    the rule and are monitored, the others are refused."""
    outcomes = [
        monitored(tuple(replace(n, interval=iv) if m == k else n for m, n in enumerate(f.nodes)))
        for f in BASES
        for k, node in enumerate(f.nodes)
        if node.kind in (UNTIL, SINCE)
        for iv in INTERVALS
    ]
    assert set(outcomes) == {"refused", "agreed"}, outcomes


# hand-built formulas the parent release accepted and evaluated wrongly
X_IN_0_2 = {"p": Predicate("p", "x", lo=0.0, hi=2.0)}


def x_trace(*xs):
    return Trace(tuple(StateSample({"x": x}, 0.1 * k) for k, x in enumerate(xs)), 0.1)


def test_a_hand_built_until_reaches_as_far_as_its_interval():
    """Annotated horizon 0, eventually[0,5] p asked for no predictions and
    read -3.0 where the oracle reads 1.0; its reach is now derived."""
    f = Formula((CoreNode(UNTIL, 2, 1, Interval(0, 5)), CoreNode(ATOM, name="p"), CoreNode(TRUE)))
    assert f == compile_formula("eventually[0,5] p") and f.bounds == ((5, 0), (0, 0), (0, 0))
    trace = x_trace(5.0, 1.0, 5.0, 5.0, 5.0, 5.0)
    assert Monitor(f, X_IN_0_2).step(trace.samples[0], trace.samples[1:]) == offline_robustness(f, X_IN_0_2, trace, 0) == 1.0
    with pytest.raises(ValueError, match="prediction length mismatch: formula horizon is 5, got 0 samples"):
        Monitor(f, X_IN_0_2).step(trace.samples[0], [])


def test_a_replaced_since_interval_gets_its_own_history():
    """dataclasses.replace of a compiled since node's interval kept the old
    history: the monitor read 0.0 where the oracle reads -0.5."""
    f = compile_formula("historically[0,1] p")
    k = next(k for k, n in enumerate(f.nodes) if n.kind == SINCE)
    g = Formula(tuple(replace(n, interval=Interval(0, 3)) if m == k else n for m, n in enumerate(f.nodes)))
    assert g == compile_formula("historically[0,3] p") and g.core_history == 3
    trace = x_trace(-0.5, 0.0)
    mon = Monitor(g, X_IN_0_2)
    assert [mon.step(s) for s in trace.samples] == offline_robustness_series(g, X_IN_0_2, trace) == [-0.5, -0.5]


@pytest.mark.parametrize(
    "nodes, message",
    [
        (
            (CoreNode("xor", 1, 2), CoreNode(ATOM, name="p"), CoreNode(ATOM, name="p")),
            "nodes[0].kind must be one of true, atom, not, or, until, since, got 'xor'",
        ),
        ((CoreNode(NOT, 0),), "nodes[0].left must be an int in (0, 1) for 'not', got 0"),
        (
            (CoreNode(NOT, 1), CoreNode(UNTIL, 2, 3, Interval(0, 0)), CoreNode(TRUE), CoreNode(ATOM, name="p")),
            "nodes[1].interval must be an Interval with finite upper bound at least 1 for 'until', "
            "got Interval(lower=0, upper=0)",
        ),
        ((CoreNode(ATOM),), "nodes[0].name must be a str for 'atom', got None"),
        ((CoreNode(TRUE, right=0),), "nodes[0].right must be -1 for 'true', got 0"),
        (
            (CoreNode(UNTIL, 1, 1, Interval(0, math.inf)), CoreNode(TRUE)),
            "nodes[0].interval must be an Interval with finite upper bound at least 1 for 'until', "
            "got Interval(lower=0, upper=inf)",
        ),
        ((CoreNode(OR, 1, 1, Interval(0, 1)), CoreNode(TRUE)), "nodes[0].interval must be None for 'or', got Interval(lower=0, upper=1)"),
    ],
    ids=["kind-xor", "not-of-itself", "until-0-0", "atom-without-name", "true-with-operand", "until-unbounded", "or-with-interval"],
)
def test_the_rule_names_the_node_and_the_field(nodes, message):
    with pytest.raises(ValueError) as exc:
        Formula(nodes)
    assert str(exc.value) == message


@pytest.mark.parametrize("nodes", [None, (), [CoreNode(TRUE)], (CoreNode(TRUE), "p")], ids=["None", "empty", "list", "not-a-node"])
def test_a_node_tuple_that_is_not_one_is_a_type_error(nodes):
    with pytest.raises(TypeError, match=re.escape(f"nodes must be a non-empty tuple of CoreNode, got {nodes!r}")):
        Formula(nodes)


def test_reach_and_atom_names_are_derived_never_passed_in():
    nodes = compile_formula("p since[0,2] q").nodes
    with pytest.raises(TypeError):
        Formula(nodes, frozenset({"p", "q"}))
    with pytest.raises(TypeError):
        CoreNode(ATOM, name="p", horizon=0)
    assert [field.name for field in fields(CoreNode)] == ["kind", "left", "right", "interval", "name"]
    # an orphan atom is legal and still needs a binding, as every atom does
    f = Formula((*nodes, CoreNode(ATOM, name="r")))
    assert f.atom_names == {"p", "q", "r"} and f.bounds[-1] == (0, 0)
    with pytest.raises(PredicateError, match="unbound atoms: r"):
        Monitor(f, PREDS)


def test_a_zero_window_until_at_horizon_4100_is_refused_before_it_is_monitored():
    """At this horizon a step recomputes 4096 or more cells and the until
    row took the numpy kernel, which divided by the window's upper bound 0."""
    f = compile_formula("(p until[0,1] q) or eventually[0,4100] p")
    k = next(k for k, n in enumerate(f.nodes) if n.interval == Interval(0, 1))
    nodes = tuple(replace(n, interval=Interval(0, 0)) if m == k else n for m, n in enumerate(f.nodes))
    assert f.horizon == 4100
    with pytest.raises(ValueError, match=re.escape(f"nodes[{k}].interval must be an Interval with finite upper bound at least 1")):
        Formula(nodes)
