"""Reference evaluation of robustness and classical truth over whole traces.

This module only judges: it evaluates a formula over a `semantics.Trace`,
and no other module of the package but `__init__` imports it.  It
recomputes values directly from the defining semantics, with no
incremental state, no table, and no running values.  It exists as ground
truth for testing the streaming monitor, so it deliberately shares nothing
with the monitor beyond the value domain, signed distances, the rule for
sample values (semantics.sample_value) and the rule for predicate
bindings (semantics.checked_predicates): a sample or a binding the monitor
refuses, the oracle refuses with the same exception and message, and it
checks every binding up front, also one of an atom it never reads.  Windows
that run past the end of the supplied trace are truncated, and past
windows clamp at the trace start; on finite data that is the only
reasonable reading, and it is exactly what the monitor computes, so the
two can be compared for exact equality.

There is one semantics walk, _eval, read in one of two lattices.
Robustness is the Boolean semantics with disjunction and conjunction
replaced by max and min over the extended reals: an atom is its signed
distance, a negation 0.0 - v (so no value is -0.0, see semantics), true
is +inf, an empty disjunction is -inf.  Truth is the same walk over the
Booleans, an atom holding iff its distance is >= 0.  Since is until
mirrored in time, so both are one walk from step i outward over the
window's steps, forward for until and backward for since, nearest first.

Performance is not a goal here; evaluation memoizes per (subformula,
step) within one call and is entirely adequate at test scale.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Mapping, NamedTuple

from .formula import ATOM, NOT, OR, TRUE, UNTIL, Formula
from .semantics import (
    NEG_INF,
    POS_INF,
    Predicate,
    Rho,
    StateSample,
    Trace,
    checked_index,
    checked_predicates,
    node_index,
    signed_distance,
)


class _Lattice(NamedTuple):
    """The values one evaluation works in: an atom's value at a sample, the
    empty join and meet, and join (or), meet (and) and negation (not)."""

    atom: Callable[[StateSample, Predicate], Any]
    bottom: Any
    top: Any
    join: Callable[[Any, Any], Any]
    meet: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]


_ROBUSTNESS = _Lattice(signed_distance, NEG_INF, POS_INF, max, min, lambda v: 0.0 - v)
_TRUTH = _Lattice(
    lambda sample, pred: signed_distance(sample, pred) >= 0, False, True, operator.or_, operator.and_, operator.not_
)


def offline_robustness(
    formula: Formula,
    predicates: Mapping[str, Predicate],
    trace: Trace,
    i: int,
    node: int = 0,
) -> Rho:
    """Robustness of a (sub)formula at step i, straight from the semantics."""
    return _eval(_ROBUSTNESS, formula, predicates, trace, node)(i)


def offline_robustness_series(
    formula: Formula,
    predicates: Mapping[str, Predicate],
    trace: Trace,
    node: int = 0,
) -> list[Rho]:
    """Robustness at every step of the trace (shared evaluation cache)."""
    return list(map(_eval(_ROBUSTNESS, formula, predicates, trace, node), range(len(trace))))


def boolean_eval(
    formula: Formula,
    predicates: Mapping[str, Predicate],
    trace: Trace,
    i: int,
    node: int = 0,
) -> bool:
    """Classical truth at step i; an atom holds iff its distance is >= 0."""
    return _eval(_TRUTH, formula, predicates, trace, node)(i)


def _eval(
    lattice: _Lattice, formula: Formula, predicates: Mapping[str, Predicate], trace: Trace, node: int
) -> Callable[[int], Any]:
    """Subformula `node`'s value in the lattice as a function of the step.
    The calls of one such function share one memo per (subformula, step).
    The node and each step follow semantics.checked_index: one outside the
    formula or the trace raises IndexError, one that is not an integer
    TypeError, as do a formula or trace of the wrong type.  predicates
    follow semantics.checked_predicates, as for Monitor, so every atom is
    bound before any sample is read, even one the walk never reaches."""
    if not isinstance(formula, Formula):
        raise TypeError(f"formula must be a compiled Formula, got {formula!r}")
    checked_predicates(formula.atom_names, predicates)
    if not isinstance(trace, Trace):
        raise TypeError(f"trace must be a Trace, got {trace!r}")
    nodes, samples = formula.nodes, trace.samples
    node = node_index(node, len(nodes))
    atom, bottom, top, join, meet, neg = lattice
    memo: dict[tuple[int, int], Any] = {}

    def value(k: int, i: int) -> Any:
        key = (k, i)
        if key in memo:
            return memo[key]
        sub = nodes[k]
        if sub.kind == TRUE:
            v = top
        elif sub.kind == ATOM:
            v = atom(samples[i], predicates[sub.name])
        elif sub.kind == NOT:
            v = neg(value(sub.left, i))
        elif sub.kind == OR:
            v = join(value(sub.left, i), value(sub.right, i))
        else:
            # until walks forward from step i, since backward: d steps away
            # is step i + d * way, up to the window's end or the trace's
            way = 1 if sub.kind == UNTIL else -1
            reach = len(samples) - 1 - i if way == 1 else i
            lo, up = sub.interval.lower, sub.interval.upper
            if up != math.inf:
                reach = min(reach, int(up))
            v = bottom
            if lo <= reach:
                run = top  # the left operand's meet over steps i up to, not including, i + d * way
                for d in range(reach + 1):
                    if d >= lo:
                        v = join(v, meet(run, value(sub.right, i + d * way)))
                    run = meet(run, value(sub.left, i + d * way))
        memo[key] = v
        return v

    def at(i: int) -> Any:
        return value(node, checked_index(i, "step", 0, len(samples) - 1))

    return at
