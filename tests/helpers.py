"""Shared generators, reference recursions and property suites for the
test suite.  Each property suite is a function of a random.Random that
returns its case count: test_properties runs each under a seed of its
own, and criterion 6 runs all six (PROPERTY_SUITES) under seeds 600-605.
REFUSALS is the one table of bad input that every evaluator refuses alike.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import replace
from itertools import accumulate
from types import SimpleNamespace

from mtlmon import (
    Monitor,
    Predicate,
    PredicateError,
    StateSample,
    Trace,
    boolean_eval,
    compile_formula,
    offline_robustness,
    offline_robustness_series,
)
from mtlmon.formula import SINCE, Interval, SurfaceNode

ATOMS = ("a", "b", "c")

# sample values that are not finite real numbers: Monitor.step and the oracle refuse each
BAD_VALUES = (math.nan, math.inf, -math.inf, "1.0", None, 10**400, True)


def random_core_text(rng: random.Random, max_depth: int = 4, max_bound: int = 8) -> str:
    """Random fully parenthesized formula over the core operators only."""

    def interval(allow_unbounded: bool) -> str:
        lo = rng.randint(0, max_bound)
        if allow_unbounded and rng.random() < 0.5:
            return f"[{lo},inf)"
        return f"[{lo},{rng.randint(lo, max_bound)}]"

    def go(depth: int) -> str:
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(ATOMS) if rng.random() < 0.85 else "true"
        op = rng.choice(("not", "or", "until", "since", "since"))
        if op == "not":
            return f"(not {go(depth - 1)})"
        if op == "or":
            return f"({go(depth - 1)} or {go(depth - 1)})"
        if op == "until":
            return f"({go(depth - 1)} until{interval(False)} {go(depth - 1)})"
        return f"({go(depth - 1)} since{interval(True)} {go(depth - 1)})"

    return go(max_depth)


def random_past_text(rng: random.Random, max_depth: int = 4, max_bound: int = 6) -> str:
    """Random formula with no future operators (zero horizon by construction)."""

    def interval() -> str:
        lo = rng.randint(0, max_bound)
        if rng.random() < 0.4:
            return f"[{lo},inf)"
        return f"[{lo},{rng.randint(lo, max_bound)}]"

    def go(depth: int) -> str:
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(ATOMS)
        op = rng.choice(("not", "or", "and", "implies", "since", "once", "historically", "prev"))
        if op == "not":
            return f"(not {go(depth - 1)})"
        if op == "prev":
            return f"(prev {go(depth - 1)})"
        if op in ("or", "and"):
            return f"({go(depth - 1)} {op} {go(depth - 1)})"
        if op == "implies":
            return f"({go(depth - 1)} -> {go(depth - 1)})"
        if op == "since":
            return f"({go(depth - 1)} since{interval()} {go(depth - 1)})"
        return f"({op}{interval()} {go(depth - 1)})"

    return go(max_depth)


def random_surface_tree(rng: random.Random, max_depth: int = 4, max_bound: int = 6) -> SurfaceNode:
    """Random surface tree over the full operator set, for printer/compiler fuzz."""

    def interval(allow_unbounded: bool) -> Interval:
        lo = rng.randint(0, max_bound)
        if allow_unbounded and rng.random() < 0.4:
            return Interval(lo, math.inf)
        return Interval(lo, rng.randint(lo, max_bound))

    def go(depth: int) -> SurfaceNode:
        if depth == 0 or rng.random() < 0.25:
            roll = rng.random()
            if roll < 0.8:
                return SurfaceNode("atom", name=rng.choice(ATOMS))
            return SurfaceNode("true" if roll < 0.9 else "false")
        op = rng.choice(
            ("not", "and", "or", "implies", "until", "since",
             "eventually", "always", "once", "historically", "next", "prev")
        )
        if op in ("not", "next", "prev"):
            return SurfaceNode(op, (go(depth - 1),))
        if op in ("and", "or", "implies"):
            return SurfaceNode(op, (go(depth - 1), go(depth - 1)))
        if op in ("eventually", "always"):
            return SurfaceNode(op, (go(depth - 1),), interval(False))
        if op in ("once", "historically"):
            return SurfaceNode(op, (go(depth - 1),), interval(True))
        if op == "until":
            return SurfaceNode(op, (go(depth - 1), go(depth - 1)), interval(False))
        return SurfaceNode(op, (go(depth - 1), go(depth - 1)), interval(True))

    return go(max_depth)


_MIRROR = {
    "until": "since", "since": "until", "eventually": "once", "once": "eventually",
    "always": "historically", "historically": "always", "next": "prev", "prev": "next",
}


def mirror(tree: SurfaceNode) -> SurfaceNode:
    """The surface tree mirrored in time: each temporal operator swapped
    for its past or future counterpart, intervals kept."""
    return replace(tree, op=_MIRROR.get(tree.op, tree.op), children=tuple(map(mirror, tree.children)))


def has_unbounded(tree: SurfaceNode) -> bool:
    """Whether any interval of the surface tree is unbounded; such a tree
    has no mirror, since future operators take bounded intervals only."""
    here = tree.interval is not None and tree.interval.upper == math.inf
    return here or any(map(has_unbounded, tree.children))


def random_predicates(rng: random.Random, names, gain: float = 1.0) -> dict[str, Predicate]:
    preds = {}
    for name in sorted(names):
        var = f"x_{name}"
        roll = rng.randrange(3)
        if roll == 0:
            preds[name] = Predicate(name, var, lo=rng.uniform(-5, 5), gain=gain)
        elif roll == 1:
            preds[name] = Predicate(name, var, hi=rng.uniform(-5, 5), gain=gain)
        else:
            lo = rng.uniform(-5, 5)
            preds[name] = Predicate(name, var, lo=lo, hi=lo + rng.uniform(0, 5), gain=gain)
    return preds


def random_trace(rng: random.Random, variables, length: int, dt: float = 0.1,
                 low: float = -10.0, high: float = 10.0) -> Trace:
    samples = tuple(
        StateSample({v: rng.uniform(low, high) for v in variables}, k * dt)
        for k in range(length)
    )
    return Trace(samples, dt if length >= 2 else None)


def perfect_series(formula, predicates, trace: Trace):
    """Run the monitor with perfect look-ahead; returns (outputs, monitor)."""
    mon = Monitor(formula, predicates)
    horizon = formula.horizon
    outs = []
    for i in range(len(trace.samples) - horizon):
        outs.append(mon.step(trace.samples[i], list(trace.samples[i + 1 : i + 1 + horizon])))
    return outs, mon


def agreed_series(formula, predicates, trace: Trace) -> list[float]:
    """Robustness at every step, from the monitor under perfect predictions
    and from the oracle, which must agree exactly."""
    outs, _ = perfect_series(formula, predicates, trace)
    assert outs == offline_robustness_series(formula, predicates, trace)
    return outs


def column_trace(**columns) -> Trace:
    """Trace sampled every 0.1 s whose variables take the given equal-length
    lists of values."""
    rows = zip(*columns.values())
    return Trace(tuple(StateSample(dict(zip(columns, row)), k * 0.1) for k, row in enumerate(rows)), 0.1)


def contains_unbounded_since(formula) -> bool:
    return any(
        n.kind == SINCE and n.interval.upper == math.inf for n in formula.nodes
    )


def surface_horizon(tree: SurfaceNode) -> int:
    """Future-sample need computed directly on the surface tree; used to
    cross-check the compiled annotations."""
    op = tree.op
    if op in ("atom", "true", "false"):
        return 0
    kids = [surface_horizon(c) for c in tree.children]
    if op in ("not", "once", "historically", "prev"):
        return kids[0]
    if op in ("and", "or", "implies", "since"):
        return max(kids)
    if op == "next":
        return kids[0] + 1
    if op in ("eventually", "always"):
        return kids[0] + int(tree.interval.upper)
    if op == "until":
        up = int(tree.interval.upper)
        if up == 0:  # reads only its trigger, at the current step
            return kids[1]
        return max(kids[0] + up - 1, kids[1] + up)
    raise ValueError(op)


def surface_history(tree: SurfaceNode) -> int:
    """Past-sample need computed directly on the surface tree."""
    op = tree.op
    if op in ("atom", "true", "false"):
        return 0
    kids = [surface_history(c) for c in tree.children]
    if op in ("not", "next", "eventually", "always"):
        return kids[0]
    if op in ("and", "or", "implies", "until"):
        return max(kids)
    if op == "prev":
        return kids[0] + 1
    if op in ("once", "historically"):
        lo, up = tree.interval.lower, tree.interval.upper
        return kids[0] + (lo if up == math.inf else int(up))
    # since
    lo, up = tree.interval.lower, tree.interval.upper
    if up == 0:  # reads only its trigger, at the current step
        return kids[1]
    if up == math.inf:
        return max(kids[0] + max(lo, 1) - 1, kids[1] + lo)
    return max(kids[0] + int(up) - 1, kids[1] + int(up))


def random_case(rng: random.Random, max_horizon: int, max_len: int, max_bound: int = 8, short: bool = False):
    """(text, formula, predicates, trace): a random core formula of depth
    at most 3 and horizon at most max_horizon, random predicates for its
    atoms and a random trace over their variables, of horizon + 1 to
    max_len samples, or of 1 to max_len when short."""
    while True:
        text = random_core_text(rng, max_depth=3, max_bound=max_bound)
        formula = compile_formula(text)
        if formula.horizon <= max_horizon:
            break
    predicates = random_predicates(rng, formula.atom_names)
    variables = sorted({p.variable for p in predicates.values()})
    trace = random_trace(rng, variables, rng.randint(1 if short else formula.horizon + 1, max_len))
    return text, formula, predicates, trace


def negation_duality(rng: random.Random) -> int:
    """not phi is minus phi at every step, through the monitor."""
    for _ in range(200):
        text, plain, predicates, trace = random_case(rng, max_horizon=20, max_len=25)
        outs, _ = perfect_series(plain, predicates, trace)
        negated, _ = perfect_series(compile_formula(f"not ({text})"), predicates, trace)
        assert negated == [-v for v in outs]
    return 200


def box_diamond_duality(rng: random.Random) -> int:
    """always[I] phi is minus eventually[I] not phi at every step."""
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
    return 200


def past_only_purity(rng: random.Random) -> int:
    """A past-only formula has no horizon, and its verdicts on a prefix do
    not depend on the samples that follow it."""
    for _ in range(200):
        formula = compile_formula(random_past_text(rng))
        assert formula.horizon == 0
        predicates = random_predicates(rng, formula.atom_names)
        variables = sorted({p.variable for p in predicates.values()})
        prefix = random_trace(rng, variables, rng.randint(1, 15))
        runs = []
        for seed in (1, 2):
            suffix_rng = random.Random(seed)
            mon = Monitor(formula, predicates)
            runs.append([mon.step(s) for s in prefix.samples])
            for k in range(5):
                mon.step(StateSample({v: suffix_rng.uniform(-10, 10) for v in variables},
                                     (len(prefix.samples) + k) * 0.1))
        assert runs[0] == runs[1]
    return 200


def positive_homogeneity(rng: random.Random) -> int:
    """Scaling every predicate's gain by a factor scales each verdict by it."""
    for case in range(200):
        factor = (0.5, 2.0, 10.0)[case % 3]
        _, formula, predicates, trace = random_case(rng, max_horizon=24, max_len=25)
        boosted = {name: replace(p, gain=p.gain * factor) for name, p in predicates.items()}
        base, _ = perfect_series(formula, predicates, trace)
        scaled, _ = perfect_series(formula, boosted, trace)
        assert scaled == [factor * v for v in base]
    return 200


def sign_soundness(rng: random.Random) -> int:
    """A positive robustness means true and a negative one false, on traces
    shorter than the horizon as well; more than 500 nonzero verdicts."""
    checked = 0
    for _ in range(200):
        _, formula, predicates, trace = random_case(rng, max_horizon=17, max_len=18, max_bound=6, short=True)
        for i, value in enumerate(offline_robustness_series(formula, predicates, trace)):
            if value != 0:
                assert boolean_eval(formula, predicates, trace, i) is (value > 0)
                checked += 1
    assert checked > 500
    return 200


def extrema_conventions(rng: random.Random) -> int:
    """once and historically windows are the max and min of their values
    over the extended reals, through Monitor.step and the oracle.  Of n
    values drawn from finite, +inf and -inf (10 times +-1e308 overflows,
    silently on both sides), a window [0, n-1] ends up holding all, and a
    window [1, n] is empty at step 0, where the max of nothing is -inf and
    the min of nothing is +inf.  Over a random window, historically p is
    minus once over the negated signal, at most once p, and +inf and -inf
    before the window's first step exists."""
    p, q = (Predicate(name, var, lo=0.0, gain=10.0) for name, var in (("p", "x"), ("q", "y")))
    predicates = {"p": p, "q": q}
    assert (p.distance(1e308), p.distance(-1e308)) == (math.inf, -math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(200):
            n = rng.randint(1, 8)
            xs = [rng.choice((rng.uniform(-5, 5), 1e308, -1e308)) for _ in range(n)]
            values = [p.distance(x) for x in xs]
            trace = column_trace(x=xs, y=[-x for x in xs])
            for lo in (0, 1):
                for op, join, empty in (("once", max, -math.inf), ("historically", min, math.inf)):
                    formula = compile_formula(f"{op}[{lo},{lo + n - 1}] p")
                    expect = [empty] * lo + list(accumulate(values, join))[: n - lo]
                    assert agreed_series(formula, predicates, trace) == expect
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
    return 200


PROPERTY_SUITES = (
    ("negation duality", negation_duality),
    ("box/diamond duality", box_diamond_duality),
    ("past-only purity", past_only_purity),
    ("positive homogeneity", positive_homogeneity),
    ("sign soundness", sign_soundness),
    ("extrema conventions", extrema_conventions),
)


PQ = {"p": Predicate("p", "x", lo=0.0), "q": Predicate("q", "y", lo=0.0)}
_P_SINCE_Q = compile_formula("p since[0,2] q")
_LATE_Q = compile_formula("p or once[5,5] q")  # reads q from step 5 on only
_FIRST = StateSample({"x": 1.0, "y": 0.0}, 0.0)
_SECOND = StateSample({"x": 2.0, "y": 1.0}, 0.1)

# each bad formula, binding and sample, and the one exception and message
# that Monitor, Monitor.step and the three oracle functions give it; a
# test picks its rows by the prefix of their key
REFUSALS = {
    **{
        f"formula-{key}": (f, PQ, _SECOND, TypeError, f"formula must be a compiled Formula, got {f!r}")
        for key, f in (("text", "p"), ("None", None), ("float", 1.0))
    },
    **{
        f"mapping-{key}": (
            _P_SINCE_Q, preds, _SECOND, TypeError, f"predicates must be a mapping of atom name to Predicate, got {preds!r}"
        )
        for key, preds in (("None", None), ("list", list(PQ.items())))
    },
    "unbound-q-r": (compile_formula("p and q and r"), {"p": PQ["p"]}, _SECOND, PredicateError, "unbound atoms: q, r"),
    "unbound-never-read": (_LATE_Q, {"p": PQ["p"]}, _SECOND, PredicateError, "unbound atoms: q"),
    **{
        f"predicate-{key}": (
            _LATE_Q, {**PQ, "q": bound}, _SECOND, PredicateError, f"atom 'q' is bound to {bound!r}, not a Predicate"
        )
        for key, bound in (("int", 1), ("text", "junk"), ("None", None))
    },
    "sample-missing-variable": (
        _P_SINCE_Q, PQ, StateSample({"y": 0.0}, 0.1), KeyError, "unknown variable 'x' in sample at t=0.1"
    ),
    **{
        f"sample-value-{n}": (
            _P_SINCE_Q, PQ, StateSample({"x": bad, "y": 0.0}, 0.1), ValueError,
            f"value {bad!r} of variable 'x' in sample at t=0.1 is not a finite real number",
        )
        for n, bad in enumerate(BAD_VALUES)
    },
    "sample-values-None": (_P_SINCE_Q, PQ, StateSample(None, 0.1), TypeError, "sample values must be a mapping, got None"),
    "non-sample": (
        _P_SINCE_Q, PQ, SimpleNamespace(time=0.1), TypeError, "sample must be a StateSample, got namespace(time=0.1)"
    ),
}


def _raised(call, *args):
    """The type and message of the exception that call(*args) raises, or None."""
    try:
        call(*args)
    except Exception as exc:
        return type(exc), exc.args[0]
    return None


def _monitored(formula, predicates, trace):
    mon = Monitor(formula, predicates)
    for sample in trace.samples:
        mon.step(sample)


def assert_refused_everywhere(key: str) -> None:
    """REFUSALS[key] gets its one exception and message from Monitor and
    Monitor.step and from each oracle function."""
    formula, predicates, second, *expected = REFUSALS[key]
    trace = Trace((_FIRST, second), 0.1)
    for call, args in ((_monitored, ()), (offline_robustness, (1,)), (offline_robustness_series, ()), (boolean_eval, (1,))):
        assert _raised(call, formula, predicates, trace, *args) == tuple(expected), (key, call.__name__)
