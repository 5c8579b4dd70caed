"""Reading and writing trace files, predictors, and the case-study scenario.

`Trace` and `TraceError` live in `mtlmon.semantics`; this module builds
traces from CSV files and from the scenario, and refuses a bad file with
the same TraceError and message that a hand-built `Trace` raises.

Trace CSV format: a ``time,var1,var2,...`` header of distinct names, one
row per sample, decimal values, ``#`` starting a comment line.  The
sampling period is inferred from the first two rows and uniformity is
enforced to a 1e-6 relative tolerance; configuring it separately would
just invite mismatch bugs.  A data cell is a finite number written in
ASCII without ``_`` (what ``float()`` takes, less its digit separators
and non-ASCII digits); column names may be any text.

A loaded trace holds every variable value in one float64 ``array``, row
after row in header order, 8 bytes per cell.  Each sample's ``values``
is a read-only `RowValues` view into it: the shared name-to-column dict,
the buffer and the row's offset, about 150 bytes per row with the
sample itself, where a dict of floats per sample cost about 3 KB for 64
variables.  A lookup is one Python-level call that returns a fresh float:
about 0.17 us against a dict's 0.04 us (Python 3.11, 2-CPU Intel Xeon),
so a step costs that much more per variable and frontier sample.
"""

from __future__ import annotations

import csv
import math
import os
import string
from array import array
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .semantics import Rho, StateSample, Trace, TraceError, finite_real


class TraceExhausted(TraceError):
    """Perfect prediction requested past the end of the loaded trace."""


class ConfigError(ValueError):
    """Inconsistent run configuration."""


class PredictorMode(Enum):
    """Source of the future samples handed to the monitor each step."""

    HOLD = "hold"        # repeat the current sample (zero-order hold)
    PERFECT = "perfect"  # read the actual future from the loaded trace
    NONE = "none"        # no predictions; only valid for zero-horizon formulas


class RowValues(Mapping[str, float]):
    """One loaded row's variable values: a read-only mapping of column
    name to value, viewed in the trace's shared float64 buffer.  It equals
    the dict of the same items, iterates in header order and gives plain
    floats."""

    __slots__ = ("_index", "_data", "_base")

    def __init__(self, index: dict[str, int], data: array, base: int):
        self._index = index  # column name -> position within a row
        self._data = data
        self._base = base

    def __getitem__(self, key: str) -> float:
        return self._data[self._base + self._index[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self))


def load_trace(path: str) -> Trace:
    """Load and validate a trace CSV, parsing it one row at a time.  The
    trace keeps the header's variable names, rows or no rows."""
    try:
        variables, samples = _read_samples(path)
    except UnicodeDecodeError as exc:
        raise TraceError(f"trace is not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})") from None
    except csv.Error as exc:  # such as a field over csv's size limit
        raise TraceError(f"malformed trace: {exc}") from None
    delta_t = samples[1].time - samples[0].time if len(samples) > 1 else None
    return Trace(tuple(samples), delta_t, variables)  # Trace checks the spacing of every row


def _read_samples(path: str) -> tuple[tuple[str, ...], list[StateSample]]:
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
        index = {name: k for k, name in enumerate(header[1:])}
        data = array("d")
        samples = []
        for ridx, row in enumerate(reader):
            if len(row) != len(header):
                raise TraceError(f"missing column at row {ridx}: expected {len(header)} cells, got {len(row)}")
            text = "".join(row)  # the numeral grammar, checked once per row
            if not text.isascii() or "_" in text:
                raise _bad_cell(ridx, header, row)
            try:
                parsed = list(map(float, row))
            except ValueError:
                raise _bad_cell(ridx, header, row) from None
            if not all(map(math.isfinite, parsed)):
                raise _bad_cell(ridx, header, row)
            samples.append(StateSample(RowValues(index, data, len(data)), parsed[0]))
            data.extend(parsed[1:])
    return tuple(index), samples


def _bad_cell(ridx: int, header: list[str], row: list[str]) -> TraceError:
    """The error for the first cell of a row that is not a finite number
    written in ASCII without ``_``."""
    for name, cell in zip(header, row):
        try:
            finite = cell.isascii() and "_" not in cell and math.isfinite(float(cell))
        except ValueError:
            finite = False
        if not finite:
            # strip ASCII whitespace only, so that a non-ASCII space shows
            return TraceError(f"non-numeric value {cell.strip(string.whitespace)!r} at row {ridx}, column {name!r}")
    raise AssertionError("row has no bad cell")


def check_predictor(mode: PredictorMode, horizon: int) -> None:
    """Refuse a predictor that cannot serve a formula of this horizon: 'none'
    gives no future samples, so it serves only zero-horizon formulas."""
    if mode is PredictorMode.NONE and horizon > 0:
        raise ConfigError(
            f"predictor 'none' requires a zero-horizon formula, but the formula needs {horizon} future samples"
        )


def predict(mode: PredictorMode, trace: Trace, i: int, horizon: int) -> list[StateSample]:
    """Future samples for step i: held, looked up, or none at all."""
    check_predictor(mode, horizon)
    if mode is PredictorMode.NONE:
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
    excursion to 1.2 (outside the +/-10% band) over the given window.
    Each argument must be a finite real number (semantics.finite_real);
    any other, like a bad geometry, raises ConfigError.

    So does a scenario whose samples would not fit in physical memory
    (page size times physical pages, the rule `Monitor` applies to its
    table), checked before any sample is built, or whose sample count
    total / delta_t overflows.  A sample is taken to cost 265 bytes: the
    tracemalloc peak of this function building 10,001, 100,001 and 200,001
    samples, divided by their number, read 265.0 to 265.1 (Python 3.11,
    64-bit Linux)."""
    args = {"excursion_start": excursion_start, "excursion_len": excursion_len, "total": total, "delta_t": delta_t}
    for name, value in args.items():
        if not finite_real(value):
            raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    if delta_t <= 0:
        raise ConfigError(f"sampling period must be positive, got {delta_t}")
    if total <= 0 or excursion_start < 0 or excursion_len < 0 or excursion_start + excursion_len > total:
        raise ConfigError(
            f"invalid scenario geometry: excursion [{excursion_start}, {excursion_start + excursion_len}] "
            f"must lie within [0, {total}]"
        )
    count = total / delta_t
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if (count + 1) * 265 > ram:  # an overflowed count is inf, and refused here too
        raise ConfigError(
            f"{total} s at a sampling period of {delta_t} s is {count + 1:.6g} samples, "
            f"more than fit in the {ram} bytes of physical memory"
        )
    eps = 1e-6 * delta_t
    lo, up = excursion_start - eps, excursion_start + excursion_len - eps
    times = (k * delta_t for k in range(int(round(count)) + 1))
    return Trace(tuple(StateSample({"lambda": 1.2 if lo <= t < up else 1.0}, t) for t in times), delta_t)


def write_robustness_csv(path: str, rows: Iterable[tuple[int, float, Rho]]) -> None:
    """Write monitor output rows as ``step,time,robustness``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,time,robustness\n")
        for step, time, value in rows:
            fh.write(f"{step},{time!r},{value!r}\n")
