"""One monitoring pass the way ``mtlmon monitor`` makes it, timed from outside.

A pass is ``cli.run_monitor`` spelled out: ``load_trace``, then
``parse_formula`` and ``desugar``, ``parse_predicates``, ``Monitor(...)``,
then per sample ``predict`` plus ``Monitor.step`` in a closed loop, then
``write_robustness_csv``.  Untraced, it times only what the end-to-end
metrics need: the set-up, every verdict (``predict`` plus ``step``) and
the whole pass.  Traced, it also records a span around every one of those
library calls.  Either way it can read a host-speed gauge between steps.
"""

from __future__ import annotations

import math
import resource
import sys
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns as clock

import numpy as np

from hostspeed import Gauge
from mtlmon import (
    Formula,
    Monitor,
    PredictorMode,
    Trace,
    desugar,
    load_trace,
    parse_formula,
    parse_predicates,
    predict,
    write_robustness_csv,
)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """Spans kept in memory as parallel arrays and written out at the end.

    A span is a name, a parent span (-1 for the root), and a start and an
    end in nanoseconds of ``perf_counter_ns``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: int, parent: int, start: int, end: int) -> int:
        self.name.append(name)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def open(self, name: str, parent: int) -> int:
        return self.record(self.name_id(name), parent, clock(), 0)

    def close(self, span: int) -> None:
        self.end[span] = clock()

    def call(self, name: str, parent: int, fn, *args):
        """fn(*args) inside a span."""
        start = clock()
        try:
            return fn(*args)
        finally:
            self.record(self.name_id(name), parent, start, clock())

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def write_csv(self, path: Path) -> None:
        a = self.arrays()
        origin = int(a["start"][0]) if len(a["start"]) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for k, (name, parent, start, end) in enumerate(
                zip(a["name"].tolist(), a["parent"].tolist(), a["start"].tolist(), a["end"].tolist())
            ):
                fh.write(f"{k},{parent},{self.names[name]},{start - origin},{end - origin}\n")


class NoSpans:
    """Stand-in for Spans when tracing is off: records nothing."""

    @staticmethod
    def open(name: str, parent: int) -> int:
        return -1

    @staticmethod
    def close(span: int) -> None:
        pass

    @staticmethod
    def call(name: str, parent: int, fn, *args):
        return fn(*args)


@dataclass(frozen=True)
class Files:
    formula: Path
    predicates: Path
    trace: Path
    out: Path


@dataclass
class SetUp:
    trace: Trace
    formula: Formula
    monitor: Monitor
    load_rss_mb: float  # peak-RSS growth across load_trace


def set_up(files: Files, spans: Spans | None = None, parent: int = -1) -> SetUp:
    """From nothing to a monitor ready for its first step, as run_monitor does it."""
    s = spans or NoSpans
    rss = peak_rss_mb()
    trace = s.call("traceio.load_trace", parent, load_trace, str(files.trace))
    load_rss = peak_rss_mb() - rss
    text = files.formula.read_text(encoding="utf-8")
    tree = s.call("formula.parse_formula", parent, parse_formula, text)
    formula = s.call("formula.desugar", parent, desugar, tree)
    text = files.predicates.read_text(encoding="utf-8")
    predicates = s.call("semantics.parse_predicates", parent, parse_predicates, text)
    monitor = s.call("monitor.Monitor", parent, Monitor, formula, predicates)
    return SetUp(trace, formula, monitor, load_rss)


@dataclass
class Pass:
    begin_ns: int         # perf_counter_ns at the start of load_trace
    wall_ns: int          # load_trace start to write_robustness_csv end
    setup_ns: int         # load_trace start to a Monitor ready to step
    gauge_ns: int         # time spent reading the host-speed gauge within the pass
    load_rss_mb: float
    verdicts: np.ndarray  # one per emitted step; NaN where the step raised
    raised: int
    laps_ns: np.ndarray   # predict + step per verdict
    lap_at_ns: np.ndarray # start of each verdict's lap
    history: int          # warm-up steps: before this index the table is still filling
    table_cells: int


def _report_raise(step: int) -> None:
    print(f"step {step} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_pass(
    files: Files,
    predictor: PredictorMode,
    spans: Spans | None = None,
    parent: int = -1,
    gauge: Gauge | None = None,
) -> Pass:
    """One closed-loop pass over the whole trace: the next sample is fed
    only after the previous verdict is back.  With a `gauge`, it is read
    between steps every ``hostspeed.EVERY_NS``, outside the laps."""
    begin = clock()
    ready = set_up(files, spans, parent)
    setup_ns = clock() - begin
    trace, mon = ready.trace, ready.monitor
    horizon, history = ready.formula.horizon, ready.formula.history
    samples = trace.samples
    last = len(samples) - 1 - (horizon if predictor is PredictorMode.PERFECT else 0)
    rows = []
    raised = 0
    laps, lap_at = array("q"), array("q")
    gauged = 0
    if spans is None:
        for i in range(last + 1):
            start = clock()
            try:
                ahead = predict(predictor, trace, i, horizon)
                value = mon.step(samples[i], ahead)
            except Exception:  # a step that raises is a failed step; the run goes on
                value = math.nan
                raised += 1
                if raised == 1:
                    _report_raise(i)
            end = clock()
            laps.append(end - start)
            lap_at.append(start)
            rows.append((i, samples[i].time, value))
            if gauge is not None and end >= gauge.next_ns:
                gauged += gauge.read()
        write_robustness_csv(str(files.out), rows)
    else:
        predict_id = spans.name_id("traceio.predict")
        step_id = spans.name_id("monitor.step")
        gauge_id = spans.name_id("bench.gauge")
        for i in range(last + 1):
            a = b = clock()
            try:
                ahead = predict(predictor, trace, i, horizon)
                b = clock()
                value = mon.step(samples[i], ahead)
            except Exception:  # a step that raises is a failed step; the run goes on
                value = math.nan
                raised += 1
                if raised == 1:
                    _report_raise(i)
            c = clock()
            spans.record(predict_id, parent, a, b)
            spans.record(step_id, parent, b, c)
            laps.append(c - a)
            lap_at.append(a)
            rows.append((i, samples[i].time, value))
            if gauge is not None and c >= gauge.next_ns:
                g = clock()
                gauged += gauge.read()
                spans.record(gauge_id, parent, g, clock())
        spans.call("traceio.write_robustness_csv", parent, write_robustness_csv, str(files.out), rows)
    wall = clock() - begin
    verdicts = np.array([value for _, _, value in rows], dtype=float)
    return Pass(
        begin, wall, setup_ns, gauged, ready.load_rss_mb, verdicts, raised,
        np.frombuffer(laps, dtype=np.int64), np.frombuffer(lap_at, dtype=np.int64), history, mon.table.size,
    )


def csv_matches(path: Path, verdicts: np.ndarray) -> bool:
    """Whether the written robustness CSV holds exactly these verdicts, in step order."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != len(verdicts):
        return False
    steps_ok = np.array_equal(data[:, 0], np.arange(len(verdicts)))
    return steps_ok and np.array_equal(data[:, 2], verdicts, equal_nan=True)


class Tally:
    """Steps attempted and failed, and whether every output was right."""

    def __init__(self, expected: np.ndarray):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, result: Pass, out: Path) -> None:
        """Hold one pass's verdicts to the reference.  A step fails if it
        raised or its verdict differs; a differing verdict, or a CSV that
        does not hold the verdicts, also makes the run incorrect."""
        self.attempted += len(self.expected)
        if len(result.verdicts) != len(self.expected):
            self.failed += len(self.expected)
            self.correct = False
            return
        differ = int(np.count_nonzero(result.verdicts != self.expected))
        self.failed += differ
        if differ > result.raised or not csv_matches(out, result.verdicts):
            self.correct = False
