import math
import random
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import mtlmon.semantics
from mtlmon import (
    Monitor,
    Predicate,
    PredicateError,
    PredictorMode,
    StateSample,
    boolean_eval,
    compile_formula,
    offline_robustness,
    offline_robustness_series,
    parse_predicates,
    predict,
    signed_distance,
)

from helpers import agreed_series, column_trace

INF = math.inf


def window_series(text, xs):
    """Robustness at every step of `text` over p : x >= 0 with gain 10 and
    the values xs of x, where +-1e308 gives a distance of +-inf; the
    monitor and the oracle must agree on it."""
    predicates = {"p": Predicate("p", "x", lo=0.0, gain=10.0)}
    return agreed_series(compile_formula(text), predicates, column_trace(x=xs))


def test_empty_once_window_is_neg_inf():
    assert window_series("once[1,1] p", [0.5]) == [-INF]
    assert window_series("once[2,5] p", [0.1, 0.2, 0.3]) == [-INF, -INF, 1.0]


def test_empty_historically_window_is_pos_inf():
    assert window_series("historically[1,1] p", [0.5]) == [INF]
    assert window_series("historically[2,5] p", [0.1, 0.2, 0.3]) == [INF, INF, 1.0]


def test_inf_is_identity_of_min():
    assert window_series("historically[0,1] p", [1e308, 0.2]) == [INF, 2.0]


def test_neg_inf_is_identity_of_max():
    assert window_series("once[0,2] p", [-1e308, -0.3, 0.1]) == [-INF, -3.0, 1.0]


def test_extended_negation_is_total():
    assert -INF == -math.inf
    assert -(-INF) == INF


def sample(**values):
    return StateSample(values, 0.0)


def test_between_inside():
    p = Predicate("p", "x", lo=0.0, hi=5.0)
    assert signed_distance(sample(x=3.0), p) == 2.0


def test_between_outside():
    p = Predicate("p", "x", lo=0.0, hi=5.0)
    assert signed_distance(sample(x=7.0), p) == -2.0


def test_between_boundary():
    p = Predicate("p", "x", lo=0.0, hi=5.0)
    assert signed_distance(sample(x=5.0), p) == 0.0


def test_at_most_and_at_least():
    assert signed_distance(sample(x=3.0), Predicate("p", "x", hi=10.0)) == 7.0
    assert signed_distance(sample(x=3.0), Predicate("p", "x", lo=10.0)) == -7.0


def test_gain_scales_distance():
    p = Predicate("p", "x", lo=0.0, hi=5.0, gain=2.0)
    assert signed_distance(sample(x=3.0), p) == 4.0


def test_unknown_variable():
    p = Predicate("p", "y", lo=0.0)
    with pytest.raises(KeyError, match="unknown variable"):
        signed_distance(sample(x=1.0), p)


def test_predicate_rejects_empty_set():
    with pytest.raises(PredicateError, match="empty set"):
        Predicate("p", "x", lo=2.0, hi=1.0)


def test_predicate_rejects_unbounded_both_sides():
    with pytest.raises(PredicateError, match="bounded"):
        Predicate("p", "x")


def test_predicate_rejects_bad_gain():
    with pytest.raises(PredicateError, match="gain"):
        Predicate("p", "x", lo=0.0, gain=0.0)


def test_predicate_rejects_non_finite_gain():
    # with gain=inf, `p or not p` at x == lo evaluated inf * 0.0 = NaN
    for gain in (INF, math.nan):
        with pytest.raises(PredicateError, match="gain must be finite"):
            Predicate("p", "x", lo=0.0, gain=gain)


def test_predicate_rejects_infinite_bound_on_bounded_side():
    with pytest.raises(PredicateError, match="finite on its bounded side"):
        Predicate("p", "x", lo=INF)
    with pytest.raises(PredicateError, match="finite on its bounded side"):
        Predicate("p", "x", hi=-INF)


@pytest.mark.parametrize("text", [5, None, b"x", ("x",)], ids=["int", "None", "bytes", "tuple"])
@pytest.mark.parametrize("field", ["name", "variable"])
def test_predicate_name_and_variable_must_be_strings(field, text):
    """A predicate whose name or variable is not a str is refused when
    built, not accepted to fail, or to read nothing, at its first step."""
    args = {"name": "p", "variable": "x", field: text}
    with pytest.raises(PredicateError) as err:
        Predicate(**args, lo=0.0)
    assert str(err.value) == f"predicate {field} must be a string, got {text!r}"


@pytest.mark.parametrize("bound", [True, "1.0", None, 10**400, -(10**400)], ids=["bool", "str", "None", "big", "-big"])
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_predicate_bounds_follow_the_finite_real_rule(side, bound):
    """A bound is a finite real number (semantics.finite_real) or, on the
    open side, a float infinity; any other value is a PredicateError, not
    a TypeError or OverflowError, and a bool is not read as 0 or 1."""
    other = {"hi": 5.0} if side == "lo" else {"lo": -5.0}
    with pytest.raises(PredicateError) as err:
        Predicate("p", "x", **{side: bound}, **other)
    assert str(err.value) == f"p: bound must be a finite real number or an infinity, got {bound!r}"


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_predicate_rejects_nan_bound(side):
    with pytest.raises(PredicateError, match="bound must be a finite real number or an infinity, got nan"):
        Predicate("p", "x", **{side: math.nan})


@pytest.mark.parametrize("gain", [True, "2.0", None, 10**400], ids=["bool", "str", "None", "big"])
def test_predicate_gain_follows_the_finite_real_rule(gain):
    with pytest.raises(PredicateError) as err:
        Predicate("p", "x", lo=0.0, gain=gain)
    assert str(err.value) == "p: gain must be finite and positive"


def test_largest_gain_gives_no_nan():
    f = compile_formula("p or not p")
    mon = Monitor(f, {"p": Predicate("p", "x", lo=0.0, gain=sys.float_info.max)})
    outs = [mon.step(sample(x=x)) for x in (0.0, 0.5, -0.5)]
    assert not any(map(math.isnan, outs))


def test_sign_matches_membership():
    rng = random.Random(5)
    for _ in range(300):
        lo = rng.uniform(-5, 5)
        p = Predicate("p", "x", lo=lo, hi=lo + rng.uniform(0, 4))
        x = rng.uniform(-10, 10)
        d = signed_distance(sample(x=x), p)
        if p.lo <= x <= p.hi:
            assert d >= 0
        else:
            assert d < 0
        if x in (p.lo, p.hi):
            assert d == 0


def test_distance_is_lipschitz():
    rng = random.Random(6)
    forms = [
        Predicate("p", "x", lo=-1.0),
        Predicate("p", "x", hi=2.5),
        Predicate("p", "x", lo=-1.0, hi=2.5),
    ]
    for _ in range(300):
        p = rng.choice(forms)
        x, y = rng.uniform(-20, 20), rng.uniform(-20, 20)
        dx = signed_distance(sample(x=x), p)
        dy = signed_distance(sample(x=y), p)
        assert abs(dx - dy) <= abs(x - y) + 1e-12


PRED_TEXT = """
# powertrain predicates
ok  : 0.9 <= lam <= 1.1
low : speed <= 120
hot : temp >= 90.5   # inline comment
"""


def test_parse_predicates():
    preds = parse_predicates(PRED_TEXT)
    assert set(preds) == {"ok", "low", "hot"}
    assert preds["ok"].variable == "lam"
    assert (preds["ok"].lo, preds["ok"].hi) == (0.9, 1.1)
    assert preds["low"].hi == 120.0 and preds["low"].lo == -INF
    assert preds["hot"].lo == 90.5 and preds["hot"].hi == INF


def test_parse_predicates_text_must_be_a_string():
    with pytest.raises(TypeError, match="^predicate text must be a string, got None$"):
        parse_predicates(None)


def test_parse_predicates_duplicate():
    with pytest.raises(PredicateError, match="duplicate"):
        parse_predicates("a : x <= 1\na : x >= 0\n")


def test_parse_predicates_rejects_overflowing_bound():
    # 1e400 parses as inf: the same rule as for Predicate(lo=inf)
    with pytest.raises(PredicateError, match="line 2: p: bound must be finite"):
        parse_predicates("q : y <= 1\np : x >= 1e400\n")
    with pytest.raises(PredicateError, match="line 1: p: bound must be finite"):
        parse_predicates("p : x <= -1e400")


@pytest.mark.parametrize("body", ["x <= \uff11", "x >= 1\u0660", "\u0661 <= x <= 2"], ids=["fullwidth", "arabic-indic", "between"])
def test_parse_predicates_rejects_non_ascii_digits(body):
    # float() reads these digits, but a bound is an ASCII numeral
    with pytest.raises(PredicateError, match=f"line 1: cannot parse constraint {body!r}"):
        parse_predicates(f"p : {body}")


def test_parse_predicates_bad_line():
    with pytest.raises(PredicateError, match="line 1"):
        parse_predicates("a = x <= 1")
    with pytest.raises(PredicateError, match="cannot parse"):
        parse_predicates("a : x < 1")


def test_physical_memory_is_page_size_times_physical_pages(monkeypatch):
    """The one place that asks the machine: the monitor's table check and
    the case-study check both read this helper."""
    machine = SimpleNamespace(sysconf={"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
    monkeypatch.setattr("mtlmon.semantics.os", machine)
    assert mtlmon.semantics.physical_memory() == 65536


def index_arguments():
    """Every index argument of a public entry: the call that takes it, the
    name its messages give it and its range [lo, hi] (hi None: unbounded),
    on one formula, trace and monitor three steps in."""
    f = compile_formula("p since[0,2] eventually[0,1] q")
    preds = {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)}
    trace = column_trace(x=[1.0, -2.0, 3.0, 4.0], y=[-1.0, 2.0, -3.0, 0.5])
    mon = Monitor(f, preds)
    for i in range(3):
        mon.step(trace.samples[i], [trace.samples[i]] * f.horizon)
    last, nodes = len(trace) - 1, len(f.nodes) - 1
    cr_lo = max(mon._rows[0].start, 1 - mon.i)
    return {
        "cell-k": (lambda x: mon.cell(x, 0), "subformula", 0, nodes),
        "cell-j": (lambda x: mon.cell(0, x), "column", -mon.history, mon.horizon),
        "cr-k": (lambda x: mon.cr(x, 0), "subformula", 0, nodes),
        "cr-j": (lambda x: mon.cr(0, x), "column", cr_lo, mon.horizon),
        "offline_robustness-i": (lambda x: offline_robustness(f, preds, trace, x), "step", 0, last),
        "offline_robustness-node": (lambda x: offline_robustness(f, preds, trace, 1, x), "subformula", 0, nodes),
        "offline_robustness_series-node": (lambda x: offline_robustness_series(f, preds, trace, x), "subformula", 0, nodes),
        "boolean_eval-i": (lambda x: boolean_eval(f, preds, trace, x), "step", 0, last),
        "boolean_eval-node": (lambda x: boolean_eval(f, preds, trace, 1, x), "subformula", 0, nodes),
        "predict-i": (lambda x: predict(PredictorMode.HOLD, trace, x, 1), "step", 0, last),
        "predict-horizon": (lambda x: predict(PredictorMode.HOLD, trace, 0, x), "horizon", 0, None),
    }


INDEX_ARGUMENTS = index_arguments()  # no call changes the monitor


@pytest.mark.parametrize("call, name, lo, hi", INDEX_ARGUMENTS.values(), ids=INDEX_ARGUMENTS)
def test_every_index_argument_follows_the_index_rule(call, name, lo, hi):
    """A bool or a non-integer raises TypeError, an integer one below or
    above the range IndexError (-1 below a range from 0), each naming the
    argument; a numpy integer in range gives the plain int's result."""
    cases = [(True, TypeError), (0.5, TypeError), (-0.0, TypeError), ("0", TypeError), (None, TypeError)]
    cases += [(lo - 1, IndexError)] + ([(hi + 1, IndexError)] if hi is not None else [])
    for value, error in cases:
        with pytest.raises(error) as err:
            call(value)
        assert type(err.value) is error and str(err.value).startswith(f"{name} "), (value, str(err.value))
    for k in {lo, hi if hi is not None else lo + 1}:
        assert call(np.int64(k)) == call(k)
        assert type(call(np.int64(k))) is type(call(k))


def test_index_rule_mends_the_silent_and_leaking_cases():
    trace = column_trace(x=[1.0, 2.0, 3.0, 4.0, 5.0])
    # a step before the trace used to read sample 0 as its future
    with pytest.raises(IndexError, match=r"step -1 outside \[0, 4\]"):
        predict(PredictorMode.PERFECT, trace, -1, 1)
    with pytest.raises(IndexError, match=rf"horizon -1 outside \[0, {sys.maxsize}\]"):
        predict(PredictorMode.HOLD, trace, 0, -1)
    # a horizon beyond sys.maxsize used to leak OverflowError from the held list
    with pytest.raises(IndexError, match=rf"horizon {2**63} outside \[0, {sys.maxsize}\]"):
        predict(PredictorMode.HOLD, trace, 0, 2**63)
    with pytest.raises(IndexError, match=r"step 5 outside \[0, 4\]"):
        predict(PredictorMode.HOLD, trace, 5, 1)
    f = compile_formula("p until[0,1] q")
    mon = Monitor(f, {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)})
    atom = next(k for k, n in enumerate(f.nodes) if n.kind == "atom")
    # no column is filled before the first step; an atom row used to raise KeyError
    with pytest.raises(IndexError, match=r"column 0 outside \[1, 0\]"):
        mon.cr(atom, 0)
    with pytest.raises(IndexError, match=r"subformula 3 outside the formula's 3 nodes"):
        mon.cell(3, 0)


def test_checked_index_returns_a_plain_int():
    assert mtlmon.semantics.checked_index(np.int32(3), "k", 0, 3) == 3
    assert type(mtlmon.semantics.checked_index(np.int64(0), "k", 0, 0)) is int
    with pytest.raises(TypeError, match="k must be an integer, got np.True_|k must be an integer, got True"):
        mtlmon.semantics.checked_index(np.bool_(True), "k", 0, 3)
