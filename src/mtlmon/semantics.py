"""Values, samples and traces, and the errors that refuse bad ones.

Robustness values live on the extended real line: ordinary floats plus
+inf and -inf.  Sample values are finite reals, and one rule,
`finite_real`, says which values those are.  `Monitor.step` and the
oracle (through `signed_distance`) read every sample value through
`sample_value`, so they refuse the same values (NaN, infinities, bools,
non-numbers), and any object that is not a sample, with the same
exception and message; `Trace` checks sample
times and its period by it, `Predicate` its bounds and gain, and
`gen_case_study_trace` its scenario parameters.  A `Trace` that is not
uniformly sampled raises `TraceError`, whether it is built by hand or
loaded by `load_trace`.

`load_trace` gives each sample's values as a `RowValues` row of one
float64 buffer that holds the whole trace.  A lookup is one Python-level
call that returns a fresh float: about 0.17 us against a dict's 0.04 us
(Python 3.11, numpy 2.4.6, 2-CPU Intel Xeon).  So a `Monitor.step` whose
formula has a horizon reads a frontier of such rows through
`RowValues.columns` instead: three C-level attribute reads per frontier
sample, then one numpy gather and one finiteness scan of every variable
at once.  On template E's frontier of 501 samples and two variables that
is about 0.08 us per value, where one lookup and its check per value cost
about 0.17 us: the read fell from about 175 to about 80 us a step.

Indices have one rule as well, `checked_index`: the step, subformula and
column arguments of `Monitor.cell` and `Monitor.cr`, of the oracle and of
`predict` must be integers in range.  A bool, a float or a string raises
TypeError and an integer out of range IndexError, each naming the argument.

Max and min over empty windows follow the lattice conventions: the max
of nothing is -inf and the min of nothing is +inf, which is what makes
windows that reach before the stream start or past the data come out
right.  Each evaluator holds them where it makes verdicts: the oracle as
the bottom and top of its `_ROBUSTNESS` lattice, the monitor as its
table's -inf start and pad and the +inf seed of its running minima.

Robustness has one zero, 0.0.  An atom's distance is `gain * min(x - lo,
hi - x) + 0.0` (`Predicate.distance`) and a negation is `0.0 - v`, in
both evaluators and on both of the monitor's row paths.  Under IEEE 754
round-to-nearest neither ever yields -0.0, and max and min only select,
so no robustness value is -0.0.  Max and min then tie only on values
with equal bits, and whichever tied operand numpy or Python keeps (numpy
the second, Python the first), the result is the same.  A sample value
-0.0 gives the distances that 0.0 gives.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

Rho = float  # extended real; +inf and -inf are legal, NaN is not

POS_INF = math.inf
NEG_INF = -math.inf


@dataclass(frozen=True, slots=True)
class StateSample:
    """One observation: a map of variable values plus the sampling time.

    `values` is any mapping of variable name to value; each value the
    formula reads must be a finite real number, and a bool is not one
    (see `finite_real`).  Samples built by hand usually hold a dict;
    `load_trace` gives each sample a `RowValues` row of one float64
    buffer that holds the whole trace.
    """

    values: Mapping[str, float]
    time: float = 0.0


class RowValues(Mapping[str, float]):
    """One loaded row's variable values: a read-only mapping of column
    name to value, viewed in a trace's float64 buffer.  It holds the
    trace's one (name-to-column dict, buffer) pair, which all its rows
    share, and the row's offset.  It equals the dict of the same items,
    iterates in header order and gives plain floats; the module docstring
    gives what reading it costs.
    """

    __slots__ = ("_buffer", "_base")

    def __init__(self, buffer: tuple[dict[str, int], Sequence[float]], base: int):
        self._buffer = buffer  # (column name -> position within a row, values), one per trace
        self._base = base

    def __getitem__(self, key: str) -> float:
        index, data = self._buffer
        return data[self._base + index[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._buffer[0])

    def __len__(self) -> int:
        return len(self._buffer[0])

    def __repr__(self) -> str:
        return repr(dict(self))

    @staticmethod
    def columns(frontier: Sequence[StateSample], variables: Sequence[str]) -> dict[str, np.ndarray] | None:
        """Each variable's values over the frontier as one float64 array,
        when every sample's values is a row of one buffer and every value
        read is finite; None for any other frontier, whose values are then
        read one lookup at a time."""
        try:
            rows = list(map(_VALUES, frontier))
            index, data = buffer = rows[0]._buffer
            # count tests identity before equality, and the rows of one trace share the very pair
            if list(map(_BUFFER, rows)).count(buffer) < len(rows):
                return None
            cols = np.array([index[v] for v in variables], np.intp)
        except (AttributeError, KeyError):  # a sample that is not a loaded row, or lacks a variable
            return None
        block = np.frombuffer(data)[cols[:, None] + np.fromiter(map(_BASE, rows), np.intp, len(rows))]
        return dict(zip(variables, block)) if np.isfinite(block).all() else None


_VALUES, _BUFFER, _BASE = map(operator.attrgetter, ("values", "_buffer", "_base"))


class TraceError(ValueError):
    """Malformed or inconsistent trace data."""


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled sequence of state samples.

    delta_t is the sampling period, a positive finite real; None is allowed
    only for traces of at most one sample, where no period can be inferred.
    Timestamps must be finite real numbers (`finite_real`) and uniform to
    a relative tolerance of 1e-6; a trace that breaks any of these raises
    TraceError.  samples that are not a sequence, or a sample without a
    time, such as None, raise TypeError.
    variables names the columns of the file a trace was loaded from, after
    time and in header order, also when it has no rows; it is empty for a
    trace built by hand.
    """

    samples: tuple[StateSample, ...]
    delta_t: float | None = None
    variables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.samples, Sequence):
            raise TypeError(f"samples must be a sequence of StateSample, got {self.samples!r}")
        if self.delta_t is None and len(self.samples) > 1:
            raise TraceError(f"sampling period missing for a trace of {len(self.samples)} samples")
        for k, s in enumerate(self.samples):
            if not finite_real(time := getattr(s, "time", None)):
                if not hasattr(s, "time"):
                    raise TypeError(f"samples[{k}] must be a StateSample, got {s!r}")
                raise TraceError(f"non-finite time {time!r} at row {k}")
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


def not_utf8(what: str, exc: UnicodeDecodeError) -> str:
    """The one message for a file that is not UTF-8 text, the trace or a
    formula or predicates file: the byte where decoding failed, and why."""
    return f"{what} is not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"


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
    name and variable are strings, each bound is a finite real number or a
    float infinity, and the gain a finite real number (`finite_real`: not a
    bool, not an int beyond float range); any other value raises
    PredicateError.
    """

    name: str
    variable: str
    lo: float = NEG_INF
    hi: float = POS_INF
    gain: float = 1.0

    def __post_init__(self) -> None:
        for field, text in (("name", self.name), ("variable", self.variable)):
            if not isinstance(text, str):
                raise PredicateError(f"predicate {field} must be a string, got {text!r}")
        for bound in (self.lo, self.hi):
            if not (finite_real(bound) or isinstance(bound, float) and math.isinf(bound)):
                raise PredicateError(f"{self.name}: bound must be a finite real number or an infinity, got {bound!r}")
        if self.lo > self.hi:
            raise PredicateError(f"{self.name}: empty set, {self.lo} > {self.hi}")
        if self.lo == NEG_INF and self.hi == POS_INF:
            raise PredicateError(f"{self.name}: set must be bounded on at least one side")
        if self.lo == POS_INF or self.hi == NEG_INF:
            # no finite sample reaches the set, and its distances are all -inf
            raise PredicateError(f"{self.name}: bound must be finite on its bounded side")
        if not (finite_real(self.gain) and self.gain > 0):
            # an infinite gain times a zero distance is NaN
            raise PredicateError(f"{self.name}: gain must be finite and positive")

    def distance(self, x: float) -> Rho:
        """Signed distance from the value x to the set, scaled by the gain;
        a zero distance is 0.0, never -0.0 (see the module docstring)."""
        return self.gain * min(x - self.lo, self.hi - x) + 0.0


def finite_real(x: object) -> bool:
    """Whether x is a finite real number; a bool is not one, and neither is
    an int beyond float range."""
    try:  # a float skips the slower abstract-class check
        return (type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)) and math.isfinite(x)
    except OverflowError:  # an int beyond float range
        return False


def checked_index(x: object, name: str, lo: int, hi: float, where: str = "") -> int:
    """x as an int, when it is an integer in [lo, hi]: the index rule, as
    `finite_real` is the value rule.  A bool or any object that is not an
    integer raises TypeError; an integer outside the range IndexError.  Each
    message names the argument and its range, `where` when given."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise TypeError(f"{name} must be an integer, got {x!r}")
    if not lo <= (k := operator.index(x)) <= hi:  # a numpy integer becomes an int
        raise IndexError(f"{name} {k} outside {where or f'[{lo}, {hi}]'}")
    return k


def node_index(k: object, count: int) -> int:
    """k as the index of a subformula of a formula of count nodes."""
    return checked_index(k, "subformula", 0, count - 1, f"the formula's {count} nodes")


def physical_memory() -> int:
    """Bytes of physical memory: page size times physical pages.  What
    would not fit in it, a monitor's table or a case-study scenario, is
    refused before it is built."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def sample_value(sample: StateSample, variable: str) -> float:
    """The sample's value of the variable.  Raises TypeError if sample is
    not a StateSample or its values not a mapping, KeyError if it lacks the
    variable and ValueError if its value is not a finite real."""
    try:
        x = sample.values[variable]
    except KeyError:
        raise KeyError(f"unknown variable {variable!r} in sample at t={sample.time}") from None
    except (TypeError, AttributeError):  # such as None, or a dict, whose values is a method
        if isinstance(sample, StateSample):
            raise TypeError(f"sample values must be a mapping, got {sample.values!r}") from None
        raise TypeError(f"sample must be a StateSample, got {sample!r}") from None
    if not finite_real(x):
        raise ValueError(
            f"value {x!r} of variable {variable!r} in sample at t={sample.time} is not a finite real number"
        )
    return x


def signed_distance(sample: StateSample, predicate: Predicate) -> Rho:
    """Signed distance from the sample's value to the predicate's set.  A
    predicate that is not a Predicate raises TypeError, a sample as
    sample_value does."""
    if not isinstance(predicate, Predicate):
        raise TypeError(f"predicate must be a Predicate, got {predicate!r}")
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

    text that is not a str raises TypeError; a bad line PredicateError.
    """
    if not isinstance(text, str):
        raise TypeError(f"predicate text must be a string, got {text!r}")
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
