"""Values, samples and traces, and the errors that refuse bad ones.

Robustness values live on the extended real line: ordinary floats plus
+inf and -inf.  Sample values are finite reals, and one rule,
`finite_real`, says which values those are.  `Monitor.step` and the
oracle (through `signed_distance`) read every sample value through
`sample_value`, so they refuse the same values (NaN, infinities, bools,
non-numbers) with the same exception and message; `Trace` checks sample
times and its period by it, and `gen_case_study_trace` its scenario
parameters.  A `Trace` that is not uniformly sampled raises `TraceError`,
whether it is built by hand or loaded by `load_trace`.

Max and min over empty windows follow the lattice conventions: the max
of nothing is -inf and the min of nothing is +inf, which is what makes
windows that reach before the stream start or past the data come out
right.  Each evaluator holds them where it makes verdicts: the oracle as
the bottom and top of its `_ROBUSTNESS` lattice, the monitor as its
table's -inf start and pad and the +inf seed of its running minima.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Mapping

Rho = float  # extended real; +inf and -inf are legal, NaN is not

POS_INF = math.inf
NEG_INF = -math.inf


@dataclass(frozen=True, slots=True)
class StateSample:
    """One observation: a map of variable values plus the sampling time.

    `values` is any mapping of variable name to value; each value the
    formula reads must be a finite real number, and a bool is not one
    (see `finite_real`).  Samples built by
    hand usually hold a dict; `load_trace` gives each sample a read-only
    view into one float64 buffer that holds the whole trace (see
    `mtlmon.traceio`), which costs one Python-level call per lookup.
    """

    values: Mapping[str, float]
    time: float = 0.0


class TraceError(ValueError):
    """Malformed or inconsistent trace data."""


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled sequence of state samples.

    delta_t is the sampling period, a positive finite real; None is allowed
    only for traces of at most one sample, where no period can be inferred.
    Timestamps must be finite real numbers (`finite_real`) and uniform to
    a relative tolerance of 1e-6; a trace that breaks any of these raises
    TraceError.
    variables names the columns of the file a trace was loaded from, after
    time and in header order, also when it has no rows; it is empty for a
    trace built by hand.
    """

    samples: tuple[StateSample, ...]
    delta_t: float | None = None
    variables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.delta_t is None and len(self.samples) > 1:
            raise TraceError(f"sampling period missing for a trace of {len(self.samples)} samples")
        bad = next((k for k, s in enumerate(self.samples) if not finite_real(s.time)), None)
        if bad is not None:
            raise TraceError(f"non-finite time {self.samples[bad].time!r} at row {bad}")
        if self.delta_t is not None:
            if not (finite_real(self.delta_t) and self.delta_t > 0):
                raise TraceError(f"sampling period must be positive and finite, got {self.delta_t!r}")
            tol = 1e-6 * self.delta_t
            for k in range(1, len(self.samples)):
                gap = self.samples[k].time - self.samples[k - 1].time
                if abs(gap - self.delta_t) > tol:
                    raise TraceError(f"non-uniform sampling at row {k}")

    def __len__(self) -> int:
        return len(self.samples)


class PredicateError(ValueError):
    """Bad predicate definition or predicate configuration text."""


@dataclass(frozen=True)
class Predicate:
    """Atomic proposition ``lo <= variable <= hi`` over one trace variable.

    Its robustness at a sample is the signed distance from the variable's
    value to the closed set [lo, hi]: positive inside, negative outside,
    zero exactly on the boundary.  One of the bounds may be infinite,
    giving the half-line forms ``variable <= hi`` and ``variable >= lo``;
    the other must be finite.  `gain`, finite and positive, scales the
    distance, so predicates can be weighted without rewriting traces.
    """

    name: str
    variable: str
    lo: float = NEG_INF
    hi: float = POS_INF
    gain: float = 1.0

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise PredicateError(f"{self.name}: NaN bound")
        if self.lo > self.hi:
            raise PredicateError(f"{self.name}: empty set, {self.lo} > {self.hi}")
        if self.lo == NEG_INF and self.hi == POS_INF:
            raise PredicateError(f"{self.name}: set must be bounded on at least one side")
        if self.lo == POS_INF or self.hi == NEG_INF:
            # no finite sample reaches the set, and its distances are all -inf
            raise PredicateError(f"{self.name}: bound must be finite on its bounded side")
        if not (self.gain > 0 and math.isfinite(self.gain)):
            # an infinite gain times a zero distance is NaN
            raise PredicateError(f"{self.name}: gain must be finite and positive")

    def distance(self, x: float) -> Rho:
        """Signed distance from the value x to the set, scaled by the gain."""
        return self.gain * min(x - self.lo, self.hi - x)


def finite_real(x: object) -> bool:
    """Whether x is a finite real number; a bool is not one, and neither is
    an int beyond float range."""
    try:  # a float skips the slower abstract-class check
        return (type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)) and math.isfinite(x)
    except OverflowError:  # an int beyond float range
        return False


def sample_value(sample: StateSample, variable: str) -> float:
    """The sample's value of the variable.  Raises KeyError if the sample
    lacks the variable and ValueError if its value is not a finite real."""
    try:
        x = sample.values[variable]
    except KeyError:
        raise KeyError(f"unknown variable {variable!r} in sample at t={sample.time}") from None
    if not finite_real(x):
        raise ValueError(
            f"value {x!r} of variable {variable!r} in sample at t={sample.time} is not a finite real number"
        )
    return x


def signed_distance(sample: StateSample, predicate: Predicate) -> Rho:
    """Signed distance from the sample's value to the predicate's set."""
    return predicate.distance(sample_value(sample, predicate.variable))


_NUM = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"  # ASCII digits only
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_AT_MOST = re.compile(rf"^({_ID})\s*<=\s*({_NUM})$")
_AT_LEAST = re.compile(rf"^({_ID})\s*>=\s*({_NUM})$")
_BETWEEN = re.compile(rf"^({_NUM})\s*<=\s*({_ID})\s*<=\s*({_NUM})$")


def parse_predicates(text: str) -> dict[str, Predicate]:
    """Parse a predicate configuration, one binding per line.

    Accepted forms (``#`` starts a comment)::

        name : var <= c
        name : var >= c
        name : a <= var <= b
    """
    out: dict[str, Predicate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise PredicateError(f"line {lineno}: expected 'name : constraint'")
        name, body = (part.strip() for part in line.split(":", 1))
        if not re.fullmatch(_ID, name):
            raise PredicateError(f"line {lineno}: bad predicate name {name!r}")
        if name in out:
            raise PredicateError(f"line {lineno}: duplicate predicate {name!r}")
        try:
            if m := _AT_MOST.match(body):
                pred = Predicate(name, m.group(1), hi=float(m.group(2)))
            elif m := _AT_LEAST.match(body):
                pred = Predicate(name, m.group(1), lo=float(m.group(2)))
            elif m := _BETWEEN.match(body):
                pred = Predicate(name, m.group(2), lo=float(m.group(1)), hi=float(m.group(3)))
            else:
                raise PredicateError(f"cannot parse constraint {body!r}")
        except PredicateError as exc:  # Predicate's own checks, e.g. x >= 1e400
            raise PredicateError(f"line {lineno}: {exc}") from None
        out[name] = pred
    return out
