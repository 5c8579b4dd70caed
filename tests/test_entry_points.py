"""Every public entry point refuses a bad argument with a check of its own.

Each callable of `mtlmon.__all__`, and each public method of `Monitor`,
starts from a valid call, and one of its arguments is replaced by an
arbitrary small object.  The call must return or raise from a package
check: never AttributeError or OverflowError, and
a TypeError, KeyError or IndexError only from a `raise` statement of the
package, not one that Python or numpy raise inside it.
"""

import linecache
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mtlmon
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
    "CoreNode": (CoreNode, ("atom", -1, -1, None, "p", 0, 0)),
    "Formula": (Formula, (FORMULA.nodes, FORMULA.atom_names)),
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
