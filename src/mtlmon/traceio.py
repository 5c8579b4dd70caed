"""Reading and writing trace files, predictors, the case-study scenario,
and `seconds_to_samples`, the one rule from seconds to sample counts.

`Trace` and `TraceError` live in `mtlmon.semantics`; this module builds
traces from CSV files and from the scenario, and refuses a bad file with
the same TraceError and message that a hand-built `Trace` raises.

Trace CSV format: a ``time,var1,var2,...`` header of distinct names, one
row per sample, decimal values, ``#`` starting a comment line.  The
sampling period is inferred from the first two rows and uniformity is
enforced to a 1e-6 relative tolerance; configuring it separately would
just invite mismatch bugs.  A data cell is a finite number written in
ASCII without ``_`` (what ``float()`` takes, less its digit separators
and non-ASCII digits); column names may be any text.  A time that is such
a numeral but not finite, such as ``nan``, reaches `Trace`, which refuses
it with the message a hand-built trace gets.

A loaded trace holds every variable value in one float64 ``array``, row
after row in header order, 8 bytes per cell.  Each sample's ``values``
is a read-only `semantics.RowValues` view into it: the trace's one
(name-to-column dict, buffer) pair and the row's offset, about 150 bytes
per row with the sample itself, where a dict of floats per sample cost
about 3 KB for 64 variables.  `mtlmon.semantics` gives what one lookup costs
and how `Monitor.step` reads a frontier of such rows.
"""

from __future__ import annotations

import csv
import math
import os
import string
from array import array
from enum import Enum
from typing import Iterable

from . import semantics
from .semantics import Rho, RowValues, StateSample, Trace, TraceError, checked_index, finite_real, not_utf8


class TraceExhausted(TraceError):
    """Perfect prediction requested past the end of the loaded trace."""


class ConfigError(ValueError):
    """Inconsistent run configuration."""


class PredictorMode(Enum):
    """Source of the future samples handed to the monitor each step."""

    HOLD = "hold"        # repeat the current sample (zero-order hold)
    PERFECT = "perfect"  # read the actual future from the loaded trace
    NONE = "none"        # no predictions; only valid for zero-horizon formulas


def load_trace(path: str | os.PathLike) -> Trace:
    """Load and validate a trace CSV, parsing it one row at a time.  The
    trace keeps the header's variable names, rows or no rows.  A path that
    is not a str or os.PathLike raises TypeError before anything is
    opened: an integer would be read as a file descriptor, and closed."""
    try:
        variables, samples = _read_samples(_checked_path(path))
    except UnicodeDecodeError as exc:
        raise TraceError(not_utf8("trace", exc)) from None
    except csv.Error as exc:  # such as a field over csv's size limit
        raise TraceError(f"malformed trace: {exc}") from None
    delta_t = samples[1].time - samples[0].time if len(samples) > 1 else None
    return Trace(tuple(samples), delta_t, variables)  # Trace checks the spacing of every row


def _checked_path(path: object) -> str | os.PathLike:
    if not isinstance(path, (str, os.PathLike)):
        raise TypeError(f"path must be a str or os.PathLike, got {path!r}")
    return path


def _read_samples(path: str | os.PathLike) -> tuple[tuple[str, ...], list[StateSample]]:
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
        data = array("d")
        buffer = ({name: k for k, name in enumerate(header[1:])}, data)
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
            if not all(map(math.isfinite, parsed)) and (error := _bad_cell(ridx, header, row)):
                raise error
            samples.append(StateSample(RowValues(buffer, len(data)), parsed[0]))
            data.extend(parsed[1:])
    return tuple(header[1:]), samples


def _bad_cell(ridx: int, header: list[str], row: list[str]) -> TraceError | None:
    """The error for the first cell of a row that is not a finite number
    written in ASCII without ``_``, passing over a time that is such a
    numeral but not finite: `Trace` refuses that time, in the words it
    uses for a hand-built trace.  None when the row has no other bad cell."""
    for name, cell in zip(header, row):
        try:
            good = cell.isascii() and "_" not in cell and (math.isfinite(float(cell)) or name == "time")
        except ValueError:
            good = False
        if not good:
            # strip ASCII whitespace only, so that a non-ASCII space shows
            return TraceError(f"non-numeric value {cell.strip(string.whitespace)!r} at row {ridx}, column {name!r}")
    return None


def check_predictor(mode: PredictorMode | str, horizon: int) -> PredictorMode:
    """mode as a PredictorMode, when it can serve a formula of this horizon.
    mode is a PredictorMode or its value (ValueError for any other); 'none'
    gives no future samples, so it serves only zero-horizon formulas."""
    mode = PredictorMode(mode)
    if mode is PredictorMode.NONE and horizon > 0:
        raise ConfigError(
            f"predictor 'none' requires a zero-horizon formula, but the formula needs {horizon} future samples"
        )
    return mode


def predict(mode: PredictorMode | str, trace: Trace, i: int, horizon: int) -> list[StateSample]:
    """Future samples for step i: held, looked up, or none at all.  mode is
    a PredictorMode or its value, as for check_predictor, and i and
    horizon follow semantics.checked_index: 0 <= i < len(trace), horizon >= 0.
    A trace that is not a Trace raises TypeError."""
    if not isinstance(trace, Trace):
        raise TypeError(f"trace must be a Trace, got {trace!r}")
    i = checked_index(i, "step", 0, len(trace) - 1)
    mode = check_predictor(mode, checked_index(horizon, "horizon", 0, math.inf))
    if mode is PredictorMode.NONE:
        return []
    if mode is PredictorMode.HOLD:
        return [trace.samples[i]] * horizon
    if i + horizon >= len(trace.samples):
        raise TraceExhausted(f"trace exhausted: step {i} needs {horizon} future samples")
    return list(trace.samples[i + 1 : i + 1 + horizon])


def seconds_to_samples(seconds: float, delta_t: float, quantity: str = "interval bound") -> int:
    """The count of sampling periods of delta_t in `seconds`: the one rule
    from seconds to samples, for `--time-units seconds` interval bounds and
    for every quantity of the case study.  seconds / delta_t must lie on the
    sample grid, within 1e-9 * max(1, count) of an integer; a count off the
    grid, or one that overflows, raises ConfigError naming the quantity:
    seconds are refused, never rounded.  So does a sampling period that is
    not a positive finite real."""
    if not finite_real(delta_t):
        raise ConfigError(f"delta_t must be a finite real number, got {delta_t!r}")
    if delta_t <= 0:
        raise ConfigError(f"sampling period must be positive, got {delta_t}")
    k = seconds / delta_t
    if not math.isfinite(k):
        raise ConfigError(f"{quantity} {seconds} s overflows a count of sampling periods of {delta_t} s")
    if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
        raise ConfigError(f"{quantity} {seconds} s is not a multiple of the sampling period {delta_t} s")
    return round(k)


def gen_case_study_trace(
    excursion_start: float,
    excursion_len: float,
    total: float,
    delta_t: float,
) -> Trace:
    """Synthetic normalized-ratio signal: baseline 1.0 with one rectangular
    excursion to 1.2 (outside the +/-10% band) over the given window.
    Each argument must be a finite real number (semantics.finite_real),
    delta_t a positive one (checked by `seconds_to_samples`); any other,
    like a bad geometry, raises ConfigError.

    The trace lies on the sample grid: sample k is taken at k * delta_t,
    for k from 0 to the count of periods in `total`, and lies in the
    excursion when start <= k < start + length, each a count of periods
    as well.  `seconds_to_samples` makes all three counts, so a total,
    excursion start or length that is not a multiple of delta_t raises
    ConfigError, as an interval bound under `--time-units seconds` does,
    rather than being rounded.  The geometry is checked on those counts,
    not on the seconds: the count of `total` must be positive and the
    excursion must lie within it (0 <= start, 0 <= length, start + length
    <= count), so an excursion that ends exactly at `total` on the grid
    passes whatever the float sum of its seconds reads.

    So does a scenario whose samples would not fit in physical memory
    (`semantics.physical_memory`, which `Monitor` reads for its table),
    checked before any sample is built.  A sample is taken to cost 265
    bytes, what the trace this function builds holds for it: `mtlmon
    case-study` writes each output row as it is made, so the trace is all
    that it holds in proportion to the scenario.  The tracemalloc peak of
    this function over 10,001 to 40,001 samples, divided by their number,
    read 264.3 to 265.1 bytes; stepping the pt variant over a built trace
    and writing its rows held 1.1 to 2.1 MB more, from 10,001 to 80,001
    samples, a figure that does not grow with them (Python 3.11, 64-bit
    Linux)."""
    args = {"excursion_start": excursion_start, "excursion_len": excursion_len, "total": total}
    for name, value in args.items():
        if not finite_real(value):
            raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    count = seconds_to_samples(total, delta_t, "total")  # checks delta_t first
    start = seconds_to_samples(excursion_start, delta_t, "excursion start")
    stop = start + seconds_to_samples(excursion_len, delta_t, "excursion length")
    if count <= 0 or start < 0 or stop < start or stop > count:
        raise ConfigError(
            f"invalid scenario geometry: excursion [{excursion_start}, {excursion_start + excursion_len}] "
            f"must lie within [0, {total}]"
        )
    ram = semantics.physical_memory()
    if (count + 1) * 265 > ram:
        raise ConfigError(
            f"{total} s at a sampling period of {delta_t} s is {count + 1:.6g} samples, "
            f"more than fit in the {ram} bytes of physical memory"
        )
    samples = (StateSample({"lambda": 1.2 if start <= k < stop else 1.0}, k * delta_t) for k in range(count + 1))
    return Trace(tuple(samples), delta_t)


def write_robustness_csv(path: str | os.PathLike, rows: Iterable[tuple[int, float, Rho]]) -> tuple[int, Rho]:
    """Write monitor output rows as ``step,time,robustness``, each as it
    arrives, so an iterator of rows is never held whole; a run that stops
    early leaves the rows written so far.  Returns how many rows were
    written and their least robustness, (0, inf) for none.  A path that is
    not a str or os.PathLike (an integer would be written to as a file
    descriptor, and closed) and rows that are not iterable raise TypeError
    before the file is opened; a row that is not such a triple raises
    TypeError when it arrives, and since rows are streamed, the header and
    the rows before it stay written."""
    if not isinstance(rows, Iterable):
        raise TypeError(f"rows must be an iterable of (step, time, robustness), got {rows!r}")
    count, worst = 0, math.inf
    with open(_checked_path(path), "w", encoding="utf-8") as fh:
        fh.write("step,time,robustness\n")
        for count, row in enumerate(rows, 1):
            try:  # around the unpacking alone: an error raised by the rows iterator passes through
                step, time, value = row
            except (TypeError, ValueError):
                raise TypeError(f"rows[{count - 1}] must be a (step, time, robustness) triple, got {row!r}") from None
            fh.write(f"{step},{time!r},{value!r}\n")
            worst = min(worst, value)
    return count, worst
