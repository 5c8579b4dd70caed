"""Command-line front end.

Subcommands:

* ``monitor``    stream a trace file through a specification and write a
                 robustness CSV,
* ``bench``      generate a synthetic benchmark specification, measure the
                 per-step cost of the monitor, optionally sweep the window
                 size and report the log-log growth slope,
* ``case-study`` run the settling-time scenario on a synthetic signal.

Exit codes: 0 success, 1 usage or configuration problem, 2 violation
observed (only with --fail-on-violation), 3 bad trace data, 4 bad
formula or predicate definitions (also a formula whose monitor table
would not fit in physical memory).
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .formula import Formula, Interval, ParseError, SurfaceNode, compile_formula, desugar, parse_formula
from .monitor import Monitor
from .semantics import Predicate, PredicateError, StateSample, Trace, TraceError, parse_predicates
from .traceio import (
    ConfigError,
    PredictorMode,
    check_predictor,
    gen_case_study_trace,
    load_trace,
    predict,
    write_robustness_csv,
)

SWEEP_HORIZONS = (500, 1000, 2000, 4000)
_WARMUP_STEPS = 10


# ---------------------------------------------------------------------------
# monitor

def seconds_to_samples(bound: float, delta_t: float) -> int:
    """Convert a bound in seconds to samples, refusing to round."""
    k = bound / delta_t
    if not math.isfinite(k):
        raise ConfigError(f"interval bound {bound} s overflows a count of sampling periods of {delta_t} s")
    r = round(k)
    if abs(k - r) > 1e-9 * max(1.0, abs(k)):
        raise ConfigError(f"interval bound {bound} s is not a multiple of the sampling period {delta_t} s")
    return int(r)


def intervals_to_samples(tree: SurfaceNode, delta_t: float) -> SurfaceNode:
    """Rewrite every interval of a surface tree from seconds to samples."""
    interval = tree.interval
    if interval is not None:
        upper = interval.upper
        if upper != math.inf:
            upper = seconds_to_samples(upper, delta_t)
        interval = Interval(seconds_to_samples(interval.lower, delta_t), upper)
    # map, not a generator: one frame per level, as in parse_formula, so
    # a tree that parsed is never too deep to convert
    children = tuple(map(intervals_to_samples, tree.children, repeat(delta_t)))
    return replace(tree, children=children, interval=interval)


def _monitor_rows(mon: Monitor, trace: Trace, mode: PredictorMode, steps: int) -> list[tuple[int, float, float]]:
    """Step the monitor through the first `steps` samples of the trace under
    the given predictor; one output row (index, time, robustness) per step."""
    rows = []
    for i in range(steps):
        ahead = predict(mode, trace, i, mon.horizon)
        rows.append((i, trace.samples[i].time, mon.step(trace.samples[i], ahead)))
    return rows


def run_monitor(args: argparse.Namespace) -> int:
    """`mtlmon monitor`: stream the trace through the monitor, write the
    robustness CSV and return the exit code.

    With the perfect predictor only the steps whose full future is
    actually in the trace are written; held predictions cover every step.
    """
    trace = load_trace(args.trace)
    try:
        text = Path(args.formula).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        chars = len(exc.object[: exc.start].decode("utf-8"))  # ParseError counts characters, not bytes
        raise ParseError(f"formula file is not UTF-8 text: byte {byte:#04x} ({exc.reason})", chars) from None
    tree = parse_formula(text)
    if args.time_units == "seconds":
        if trace.delta_t is None:
            raise ConfigError("seconds mode needs at least two samples to infer the sampling period")
        tree = intervals_to_samples(tree, trace.delta_t)
    formula = desugar(tree)
    try:
        text = Path(args.predicates).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise PredicateError(
            f"predicates file is not UTF-8 text: byte {byte:#04x} ({exc.reason} at offset {exc.start})"
        ) from None
    predicates = parse_predicates(text)
    mon = Monitor(formula, predicates)
    for name in sorted(formula.atom_names):
        var = predicates[name].variable
        if var not in trace.variables:
            raise TraceError(f"trace has no column {var!r} (read by predicate {name!r})")
    mode = PredictorMode(args.predictor)
    check_predictor(mode, formula.horizon)  # also when the trace has no rows to predict for
    steps = len(trace) - (formula.horizon if mode is PredictorMode.PERFECT else 0)
    rows = _monitor_rows(mon, trace, mode, steps)
    write_robustness_csv(args.out, rows)
    print(f"wrote {len(rows)} steps to {args.out}")
    return 2 if args.fail_on_violation and any(value < 0 for _, _, value in rows) else 0


# ---------------------------------------------------------------------------
# bench

@dataclass(frozen=True)
class BenchReport:
    """Per-step timing of the monitor on one benchmark specification.

    warmup_steps counts the timed steps whose index is below the formula's
    stored history: on those the table is still filling, so they cost less
    than a steady step.
    """

    kind: str
    n: int
    horizon: int
    steps: int
    warmup_steps: int
    mean_ms: float
    variance_ms2: float


def gen_template(kind: str, n: int, horizon: int) -> str:
    """Benchmark specification text with nesting depth n and total future
    window `horizon`: an implication guarding n nested eventually blocks
    (kind "E") or n nested until blocks (kind "U"), each spanning
    horizon/n samples over fresh atoms.
    """
    if kind not in ("E", "U"):
        raise ConfigError(f"template kind must be E or U, got {kind!r}")
    if not 1 <= n <= 9:
        raise ConfigError(f"nesting depth must be in 1..9, got {n}")
    if horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if horizon % n:
        raise ConfigError(f"n must divide H: {n} does not divide {horizon}")
    h = horizon // n

    def nest_e(level: int, nid: int) -> str:
        if level == 1:
            return f"eventually[0,{h}] p{nid}"
        return f"eventually[0,{h}] (p{nid} and {nest_e(level - 1, nid + 1)})"

    def nest_u(level: int, nid: int) -> str:
        if level == 1:
            return f"p{nid} until[0,{h}] p{nid + 1}"
        return f"p{nid} until[0,{h}] (p{nid + 1} and {nest_u(level - 1, nid + 2)})"

    body = nest_e(n, 1) if kind == "E" else nest_u(n, 1)
    return f"p0 -> {body}"


def _bench_formula(kind: str, n: int, horizon: int) -> tuple[Formula, dict[str, Predicate]]:
    formula = compile_formula(gen_template(kind, n, horizon))
    predicates = {name: Predicate(name, name, lo=-5.0, hi=5.0) for name in formula.atom_names}
    return formula, predicates


def run_bench(kind: str, n: int, horizon: int, steps: int) -> BenchReport:
    """Time the per-step cost of the monitor on a template specification.

    Drives the monitor with a random-walk signal under held predictions
    and times only the step() call, after a short untimed warm-up.  The
    walk has a fixed seed: its values do not change the timings.
    """
    if steps < 30:
        raise ConfigError(f"steps >= 30 required, got {steps}")
    formula, predicates = _bench_formula(kind, n, horizon)
    mon = Monitor(formula, predicates)
    rng = random.Random(0)
    names = sorted(formula.atom_names)
    walk = {name: 0.0 for name in names}
    clock = 0

    def next_sample() -> StateSample:
        nonlocal clock
        for name in names:
            walk[name] += rng.uniform(-0.5, 0.5)
        clock += 1
        return StateSample(dict(walk), clock * 0.01)

    for _ in range(_WARMUP_STEPS):
        sample = next_sample()
        mon.step(sample, [sample] * formula.horizon)
    laps = []
    for _ in range(steps):
        sample = next_sample()
        ahead = [sample] * formula.horizon
        begin = time.perf_counter()
        mon.step(sample, ahead)
        laps.append(time.perf_counter() - begin)
    mean_ms = statistics.fmean(laps) * 1e3
    variance_ms2 = statistics.variance(laps) * 1e6
    warmup_steps = min(steps, max(0, formula.history - _WARMUP_STEPS))
    return BenchReport(kind, n, horizon, steps, warmup_steps, mean_ms, variance_ms2)


def run_bench_sweep(kind: str, n: int, steps: int) -> tuple[list[BenchReport], float]:
    """Benchmark the window sizes SWEEP_HORIZONS; the returned slope is the
    least-squares fit of log(mean step time) against log(horizon)."""
    reports = [run_bench(kind, n, horizon, steps) for horizon in SWEEP_HORIZONS]
    slope = float(
        np.polyfit(
            np.log([r.horizon for r in reports]),
            np.log([r.mean_ms for r in reports]),
            1,
        )[0]
    )
    return reports, slope


# ---------------------------------------------------------------------------
# case study

CASE_VARIANTS = ("pt", "ft", "ptft")


def case_study_formula(variant: str, delta_t: float) -> str:
    """Settling-time specification over the synthetic ratio signal.

    The signal must never leave the band without having settled inside it
    for a full second: looking back over the last two seconds ("pt"),
    looking ahead over the next two ("ft"), or anchored at some point of
    the last two seconds and looking ahead from there ("ptft").
    """
    n1 = seconds_to_samples(1.0, delta_t)
    n2 = seconds_to_samples(2.0, delta_t)
    if variant == "pt":
        return f"not lam_ok -> once[0,{n1}] historically[0,{n1}] lam_ok"
    if variant == "ft":
        return f"not lam_ok -> eventually[0,{n1}] always[0,{n1}] lam_ok"
    if variant == "ptft":
        return f"historically[0,{n2}] (not lam_ok -> eventually[0,{n1}] always[0,{n1}] lam_ok)"
    raise ConfigError(f"unknown case-study variant {variant!r}")


def case_study_predicates() -> dict[str, Predicate]:
    return {"lam_ok": Predicate("lam_ok", "lambda", lo=0.9, hi=1.1)}


def run_case_study(
    variant: str,
    delta_t: float,
    excursion_start: float,
    excursion_len: float,
    total: float,
) -> list[tuple[int, float, float]]:
    """Monitor one scenario variant over the synthetic signal.

    The past-only variant runs without a predictor; the future-looking
    variants run under held predictions, since the scenario has no source
    of real forecasts.
    """
    trace = gen_case_study_trace(excursion_start, excursion_len, total, delta_t)
    formula = compile_formula(case_study_formula(variant, delta_t))
    mode = PredictorMode.NONE if formula.horizon == 0 else PredictorMode.HOLD
    return _monitor_rows(Monitor(formula, case_study_predicates()), trace, mode, len(trace.samples))


# ---------------------------------------------------------------------------
# argument handling

def _cmd_bench(args: argparse.Namespace) -> int:
    if args.sweep:
        reports, slope = run_bench_sweep(args.template, args.n, args.steps)
    else:
        if args.horizon is None:
            raise ConfigError("--horizon is required without --sweep")
        reports = [run_bench(args.template, args.n, args.horizon, args.steps)]
        slope = None
    for r in reports:
        print(
            f"template={r.kind} n={r.n} H={r.horizon} steps={r.steps} "
            f"warmup_steps={r.warmup_steps} mean_ms={r.mean_ms:.3f} variance_ms2={r.variance_ms2:.6f}"
        )
    if slope is not None:
        print(f"log-log slope: {slope:.3f}")
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    rows = run_case_study(args.variant, args.dt, args.excursion_start, args.excursion_len, args.total)
    write_robustness_csv(args.out, rows)
    worst = min(value for _, _, value in rows)
    print(f"wrote {len(rows)} steps to {args.out} (minimum robustness {worst!r})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlmon",
        description="Streaming robustness monitoring for metric temporal logic specifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("monitor", help="stream a trace file through a specification")
    m.add_argument("--formula", required=True, help="path to the specification text")
    m.add_argument("--predicates", required=True, help="path to the predicate bindings")
    m.add_argument("--trace", required=True, help="path to the trace CSV")
    m.add_argument("--predictor", required=True, choices=[p.value for p in PredictorMode])
    m.add_argument("--time-units", choices=["samples", "seconds"], default="samples")
    m.add_argument("--fail-on-violation", action="store_true",
                   help="exit 2 if any step's robustness is negative")
    m.add_argument("--out", required=True, help="output CSV path")
    m.set_defaults(func=run_monitor)

    b = sub.add_parser("bench", help="measure per-step monitoring cost on template specifications")
    b.add_argument("--template", required=True, choices=["E", "U"])
    b.add_argument("--n", required=True, type=int, help="nesting depth (1..9)")
    b.add_argument("--horizon", type=int, help="total future window in samples")
    b.add_argument("--steps", type=int, default=100, help="timed steps (>= 30)")
    b.add_argument("--sweep", action="store_true",
                   help=f"sweep H over {SWEEP_HORIZONS} and report the log-log slope")
    b.set_defaults(func=_cmd_bench)

    c = sub.add_parser("case-study", help="run the settling-time scenario on a synthetic signal")
    c.add_argument("--variant", required=True, choices=list(CASE_VARIANTS))
    c.add_argument("--dt", type=float, default=0.01, help="sampling period in seconds")
    c.add_argument("--excursion-start", type=float, default=2.0)
    c.add_argument("--excursion-len", type=float, default=2.5)
    c.add_argument("--total", type=float, default=6.0)
    c.add_argument("--out", required=True, help="output CSV path")
    c.set_defaults(func=_cmd_case_study)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ParseError, PredicateError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
