"""Reference evaluation of robustness and classical truth over whole traces.

This module recomputes values directly from the defining semantics, with
no incremental state, no table, and no running values.  It exists as ground
truth for testing the streaming monitor, so it deliberately shares nothing
with the monitor beyond the value domain and signed distances.  Windows
that run past the end of the supplied trace are truncated, and past
windows clamp at the trace start; on finite data that is the only
reasonable reading, and it is exactly what the monitor computes, so the
two can be compared for exact equality.

Performance is not a goal here; evaluation memoizes per (subformula,
step) within one call and is entirely adequate at test scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .formula import ATOM, NOT, OR, TRUE, UNTIL, Formula
from .semantics import (
    NEG_INF,
    POS_INF,
    Predicate,
    Rho,
    StateSample,
    signed_distance,
)


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled sequence of state samples.

    delta_t is the sampling period, positive and finite; None is allowed
    only for traces of at most one sample, where no period can be inferred.
    Timestamps must be finite and uniform to a relative tolerance of 1e-6.
    """

    samples: tuple[StateSample, ...]
    delta_t: float | None = None

    def __post_init__(self) -> None:
        if self.delta_t is None and len(self.samples) > 1:
            raise ValueError(f"sampling period missing for a trace of {len(self.samples)} samples")
        bad = next((k for k, s in enumerate(self.samples) if not math.isfinite(s.time)), None)
        if bad is not None:
            raise ValueError(f"non-finite time {self.samples[bad].time} at row {bad}")
        if self.delta_t is not None:
            if not 0 < self.delta_t < math.inf:
                raise ValueError(f"sampling period must be positive and finite, got {self.delta_t}")
            tol = 1e-6 * self.delta_t
            for k in range(1, len(self.samples)):
                gap = self.samples[k].time - self.samples[k - 1].time
                if abs(gap - self.delta_t) > tol:
                    raise ValueError(f"non-uniform sampling at row {k}")

    def __len__(self) -> int:
        return len(self.samples)


def offline_robustness(
    formula: Formula,
    predicates: Mapping[str, Predicate],
    trace: Trace,
    i: int,
    node: int = 0,
) -> Rho:
    """Robustness of a (sub)formula at step i, straight from the semantics."""
    if not 0 <= i < len(trace.samples):
        raise IndexError(f"step {i} outside trace of length {len(trace.samples)}")
    return _rho(formula.nodes, predicates, trace.samples, node, i, {})


def offline_robustness_series(
    formula: Formula,
    predicates: Mapping[str, Predicate],
    trace: Trace,
    node: int = 0,
) -> list[Rho]:
    """Robustness at every step of the trace (shared evaluation cache)."""
    memo: dict[tuple[int, int], Rho] = {}
    return [
        _rho(formula.nodes, predicates, trace.samples, node, i, memo)
        for i in range(len(trace.samples))
    ]


def boolean_eval(
    formula: Formula,
    predicates: Mapping[str, Predicate],
    trace: Trace,
    i: int,
    node: int = 0,
) -> bool:
    """Classical truth at step i; an atom holds iff its distance is >= 0."""
    if not 0 <= i < len(trace.samples):
        raise IndexError(f"step {i} outside trace of length {len(trace.samples)}")
    return _sat(formula.nodes, predicates, trace.samples, node, i, {})


def _rho(nodes, predicates, samples: Sequence[StateSample], k: int, i: int, memo) -> Rho:
    key = (k, i)
    cached = memo.get(key)
    if cached is not None:
        return cached
    node = nodes[k]
    kind = node.kind
    if kind == TRUE:
        value = POS_INF
    elif kind == ATOM:
        value = signed_distance(samples[i], predicates[node.name])
    elif kind == NOT:
        value = -_rho(nodes, predicates, samples, node.left, i, memo)
    elif kind == OR:
        value = max(
            _rho(nodes, predicates, samples, node.left, i, memo),
            _rho(nodes, predicates, samples, node.right, i, memo),
        )
    elif kind == UNTIL:
        lo = node.interval.lower
        hi = min(i + int(node.interval.upper), len(samples) - 1)
        value = NEG_INF
        if i + lo <= hi:
            run = POS_INF
            for r in range(i, i + lo):
                run = min(run, _rho(nodes, predicates, samples, node.left, r, memo))
            for j in range(i + lo, hi + 1):
                value = max(value, min(run, _rho(nodes, predicates, samples, node.right, j, memo)))
                run = min(run, _rho(nodes, predicates, samples, node.left, j, memo))
    else:  # since
        lo, up = node.interval.lower, node.interval.upper
        last = i - lo
        first = 0 if up == math.inf else max(0, i - int(up))
        value = NEG_INF
        if last >= first:
            run = POS_INF
            for r in range(last + 1, i + 1):
                run = min(run, _rho(nodes, predicates, samples, node.left, r, memo))
            for j in range(last, first - 1, -1):
                value = max(value, min(run, _rho(nodes, predicates, samples, node.right, j, memo)))
                run = min(run, _rho(nodes, predicates, samples, node.left, j, memo))
    memo[key] = value
    return value


def _sat(nodes, predicates, samples: Sequence[StateSample], k: int, i: int, memo) -> bool:
    key = (k, i)
    cached = memo.get(key)
    if cached is not None:
        return cached
    node = nodes[k]
    kind = node.kind
    if kind == TRUE:
        value = True
    elif kind == ATOM:
        value = signed_distance(samples[i], predicates[node.name]) >= 0
    elif kind == NOT:
        value = not _sat(nodes, predicates, samples, node.left, i, memo)
    elif kind == OR:
        value = _sat(nodes, predicates, samples, node.left, i, memo) or _sat(
            nodes, predicates, samples, node.right, i, memo
        )
    elif kind == UNTIL:
        lo = node.interval.lower
        hi = min(i + int(node.interval.upper), len(samples) - 1)
        value = False
        run = True
        for r in range(i, min(i + lo, hi + 1)):
            run = run and _sat(nodes, predicates, samples, node.left, r, memo)
        for j in range(i + lo, hi + 1):
            if run and _sat(nodes, predicates, samples, node.right, j, memo):
                value = True
                break
            run = run and _sat(nodes, predicates, samples, node.left, j, memo)
    else:  # since
        lo, up = node.interval.lower, node.interval.upper
        last = i - lo
        first = 0 if up == math.inf else max(0, i - int(up))
        value = False
        if last >= first:
            run = True
            for r in range(last + 1, i + 1):
                run = run and _sat(nodes, predicates, samples, node.left, r, memo)
            for j in range(last, first - 1, -1):
                if run and _sat(nodes, predicates, samples, node.right, j, memo):
                    value = True
                    break
                run = run and _sat(nodes, predicates, samples, node.left, j, memo)
    memo[key] = value
    return value
