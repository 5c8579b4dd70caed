"""Trace loading, predictor strategies, and synthetic scenario traces.

Trace CSV format: a ``time,var1,var2,...`` header of distinct names, one
row per sample, decimal values, ``#`` starting a comment line.  The
sampling period is inferred from the first two rows and uniformity is
enforced to a 1e-6 relative tolerance; configuring it separately would
just invite mismatch bugs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .oracle import Trace
from .semantics import Rho, StateSample


class TraceError(ValueError):
    """Malformed or inconsistent trace data."""


class TraceExhausted(TraceError):
    """Perfect prediction requested past the end of the loaded trace."""


class ConfigError(ValueError):
    """Inconsistent run configuration."""


class PredictorMode(Enum):
    """Source of the future samples handed to the monitor each step."""

    HOLD = "hold"        # repeat the current sample (zero-order hold)
    PERFECT = "perfect"  # read the actual future from the loaded trace
    NONE = "none"        # no predictions; only valid for zero-horizon formulas


@dataclass
class RunConfig:
    """Everything one monitoring run needs; built by the command line."""

    formula_path: str
    predicates_path: str
    trace_path: str
    predictor: PredictorMode
    out_path: str
    time_units: str = "samples"
    fail_on_violation: bool = False


def load_trace(path: str) -> Trace:
    """Load and validate a trace CSV, parsing it one row at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if (text := line.lstrip()) and text[0] != "#")
        first = next(reader, None)
        if first is None:
            raise TraceError("missing column: empty trace file")
        header = [cell.strip() for cell in first]
        if not header or header[0] != "time":
            raise TraceError("missing column: header must start with 'time'")
        if len(set(header)) != len(header):
            name = next(name for k, name in enumerate(header) if name in header[:k])
            raise TraceError(f"duplicate column {name!r} in header")
        variables = header[1:]
        samples = []
        for ridx, row in enumerate(reader):
            if len(row) != len(header):
                raise TraceError(f"missing column at row {ridx}: expected {len(header)} cells, got {len(row)}")
            try:
                parsed = list(map(float, row))
            except ValueError:
                raise _bad_cell(ridx, header, row) from None
            if not all(map(math.isfinite, parsed)):
                raise _bad_cell(ridx, header, row)
            samples.append(StateSample(dict(zip(variables, parsed[1:])), parsed[0]))
    delta_t = samples[1].time - samples[0].time if len(samples) > 1 else None
    try:
        return Trace(tuple(samples), delta_t)
    except ValueError as exc:  # Trace checks the spacing of every row
        raise TraceError(str(exc)) from None


def _bad_cell(ridx: int, header: list[str], row: list[str]) -> TraceError:
    """The error for the first cell of a row that is not a finite number."""
    for name, cell in zip(header, row):
        try:
            finite = math.isfinite(float(cell))
        except ValueError:
            finite = False
        if not finite:
            return TraceError(f"non-numeric value {cell.strip()!r} at row {ridx}, column {name!r}")
    raise AssertionError("row has no bad cell")


def predict(mode: PredictorMode, trace: Trace, i: int, horizon: int) -> list[StateSample]:
    """Future samples for step i: held, looked up, or none at all."""
    if mode is PredictorMode.NONE:
        if horizon > 0:
            raise ConfigError(
                f"predictor 'none' requires a zero-horizon formula, but the formula needs {horizon} future samples"
            )
        return []
    if mode is PredictorMode.HOLD:
        return [trace.samples[i]] * horizon
    if i + horizon >= len(trace.samples):
        raise TraceExhausted(f"trace exhausted: step {i} needs {horizon} future samples")
    return list(trace.samples[i + 1 : i + 1 + horizon])


def gen_case_study_trace(
    excursion_start: float,
    excursion_len: float,
    total: float,
    delta_t: float,
) -> Trace:
    """Synthetic normalized-ratio signal: baseline 1.0 with one rectangular
    excursion to 1.2 (outside the +/-10% band) over the given window."""
    if delta_t <= 0:
        raise ConfigError(f"sampling period must be positive, got {delta_t}")
    if total <= 0 or excursion_start < 0 or excursion_len < 0 or excursion_start + excursion_len > total:
        raise ConfigError(
            f"invalid scenario geometry: excursion [{excursion_start}, {excursion_start + excursion_len}] "
            f"must lie within [0, {total}]"
        )
    count = int(round(total / delta_t))
    eps = 1e-6 * delta_t
    samples = []
    for k in range(count + 1):
        t = k * delta_t
        out = excursion_start - eps <= t < excursion_start + excursion_len - eps
        samples.append(StateSample({"lambda": 1.2 if out else 1.0}, t))
    return Trace(tuple(samples), delta_t)


def write_robustness_csv(path: str, rows: Iterable[tuple[int, float, Rho]]) -> None:
    """Write monitor output rows as ``step,time,robustness``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,time,robustness\n")
        for step, time, value in rows:
            fh.write(f"{step},{time!r},{value!r}\n")
