"""Shared generators and reference recursions for the test suite."""

from __future__ import annotations

import math
import random

from mtlmon import Monitor, Predicate, StateSample, Trace
from mtlmon.formula import SINCE, Interval, SurfaceNode

ATOMS = ("a", "b", "c")


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
