"""Benchmark of the mtlmon monitoring pipeline on four generated workloads.

One workload, one fresh process; the last line of standard output is one
JSON object (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1):

    python3 perfbench/run.py --workload past-settle --seed 1 --seconds 25 --trace 0

Every workload, untraced and traced, each run in a process of its own:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Every time reported is put on the host-speed scale of ``hostspeed.py``;
the run also prints the unscaled figures.  The program is imported from
``src/`` of the checkout this file sits in.  Generated inputs, outputs and
span files go to ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns as clock

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

WORKLOADS = ("past-settle", "mixed-hold", "template-E", "wide-log")

SETUP_SHARE = 0.05  # time for extra set-ups after a pass, as a share of the pass
RUN_TIMEOUT_S = 900  # one child process of --workload all

END_TO_END = {
    "throughput_sps": "1/s",
    "step_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "verdict_p99_us": "us",
    "monitor.step_p50_us": "us",
    "monitor.step_p99_us": "us",
    "monitor.step_s": "s",
    "monitor.init_ms": "ms",
    "formula.compile_ms": "ms",
    "semantics.predicates_ms": "ms",
    "monitor.table_cells": "count",
    "traceio.load_s": "s",
    "traceio.load_rss_mb": "MB",
    "traceio.predict_s": "s",
    "traceio.write_s": "s",
    "bench.self_s": "s",
    "bench.trace_overhead_pct": "%",
}


def import_program() -> None:
    """Put the checkout's sources first on the path and make sure they are
    what gets imported, not some installed copy."""
    if not (SRC / "mtlmon" / "__init__.py").is_file():
        sys.exit(f"error: no mtlmon sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import mtlmon

    if Path(mtlmon.__file__).resolve().parent != SRC / "mtlmon":
        sys.exit(f"error: imported mtlmon from {mtlmon.__file__}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import hostspeed
    import pipeline
    import workloads
    from mtlmon import PredictorMode

    workload = workloads.WORKLOADS[name]
    predictor = PredictorMode(workload.predictor)
    spans = pipeline.Spans() if traced else None
    tracer = spans or pipeline.NoSpans
    root = tracer.open("bench.run", -1)
    directory = WORK / name

    inputs = tracer.call("bench.generate", root, workloads.write_inputs, workload, seed, directory)
    expected = tracer.call("bench.reference", root, workload.reference, inputs.columns)
    files = pipeline.Files(inputs.formula, inputs.predicates, inputs.trace, directory / "robustness.csv")
    del inputs

    # Whole rounds of passes while the next round is expected to end in time.
    # A traced run makes an untraced and a traced pass in each round, taking
    # turns at going first.  Extra set-ups after each pass, within
    # SETUP_SHARE of its time, spread the set-up samples over the run as the
    # step samples are.  The host-speed gauge is read during every pass and
    # before and after each pass and set-up.
    gauge = hostspeed.Gauge()
    tally = pipeline.Tally(expected)
    plain, with_spans, setups = [], [], []  # setups: (start, duration) in ns
    tracer.call("bench.gauge", root, gauge.read)
    phase = clock()
    rounds = 0
    while rounds == 0 or (clock() - phase) * (rounds + 1) / rounds <= seconds * 1e9:
        for use_spans in ((rounds % 2 == 1, rounds % 2 == 0) if traced else (False,)):
            parent = tracer.open("bench.pass" if use_spans else "bench.pass_untraced", root)
            result = pipeline.run_pass(files, predictor, spans if use_spans else None, parent, gauge)
            tracer.close(parent)
            tracer.call("bench.gauge", root, gauge.read)
            (with_spans if use_spans else plain).append((result, parent))
            tracer.call("bench.check", root, tally.check, result, files.out)
            setups.append((result.begin_ns, result.setup_ns))
            spent = 0
            while spent + setups[-1][1] <= SETUP_SHARE * result.wall_ns:
                parent = tracer.open("bench.setup", root)
                start = clock()
                pipeline.set_up(files, spans, parent)
                setups.append((start, clock() - start))
                tracer.close(parent)
                spent += setups[-1][1]
                tracer.call("bench.gauge", root, gauge.read)
        rounds += 1
    tracer.close(root)

    kind = workload.steps_like
    print(f"workload {name}: seed {seed}, {rounds} rounds, {len(setups)} set-ups, "
          f"{tally.attempted} steps attempted, {tally.failed} failed")
    for k in hostspeed.KERNELS:
        took = gauge.readings(k)
        print(f"host: {len(took)} readings of the {k} kernel, median {np.median(took) / hostspeed.REF_NS[k]:.2f} x "
              f"its reference time{' (the steps are scaled by it)' if k == kind else ''}")
    if traced:
        metrics = layer_metrics(spans, with_spans, plain, gauge, kind)
        print_self_times(spans)
        spans.write_csv(directory / "spans.csv")
        units = PER_LAYER
    else:
        starts, setup_ns = np.array(setups).T
        scaled = step_percentiles(verdict_laps(plain, gauge, kind))
        raw = step_percentiles([r.laps_ns[r.history:] for r, _ in plain])
        metrics = {
            "throughput_sps": sum(len(r.verdicts) for r, _ in plain) / sum(pass_seconds(r, gauge, kind) for r, _ in plain),
            "step_p50_us": scaled["step_p50_us"],
            "setup_s": float(np.median(setup_ns * span_scale(gauge, starts, setup_ns))) / 1e9,
            "peak_rss_mb": pipeline.peak_rss_mb(),
        }
        print(f"verdict p99 (not bounded, see README): {scaled['step_p99_us']:.6g} us")
        print(f"as measured, without scaling: throughput_sps "
              f"{sum(len(r.verdicts) for r, _ in plain) / (sum(r.wall_ns - r.gauge_ns for r, _ in plain) / 1e9):.6g}, "
              f"step_p50_us {raw['step_p50_us']:.6g}, step_p99_us {raw['step_p99_us']:.6g}, "
              f"setup_s {np.median(setup_ns) / 1e9:.6g}")
        units = END_TO_END
    for key, value in metrics.items():
        print(f"  {key:26s} {value:14.6g} {units[key]}")
    return {
        "correct": tally.correct and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def step_percentiles(passes: list[np.ndarray], prefix: str = "") -> dict[str, float]:
    """Pooled median of the steady laps of all passes, and the median over
    passes of each pass's 99th percentile, in microseconds."""
    return {
        f"{prefix}step_p50_us": float(np.median(np.concatenate(passes))) / 1e3,
        f"{prefix}step_p99_us": statistics.median(float(np.percentile(p, 99)) for p in passes) / 1e3,
    }


def verdict_laps(passes, gauge, kind: str) -> list[np.ndarray]:
    """Each pass's steady verdict laps on the gauge's scale."""
    return [r.laps_ns[r.history:] * gauge.scale(kind, r.lap_at_ns[r.history:]) for r, _ in passes]


def span_scale(gauge, starts, durations) -> np.ndarray:
    """The loops scale of sections of a few ms to a second (set-ups): the
    mean of its values at their starts and their ends."""
    starts = np.asarray(starts, dtype=np.int64)
    return (gauge.scale("loops", starts) + gauge.scale("loops", starts + np.asarray(durations, dtype=np.int64))) / 2


def pass_seconds(result, gauge, kind: str) -> float:
    """A pass's time on the gauge's scale, gauge reads left out: its laps
    scaled as the steps' kind, its set-up and the rest (write, loop) as
    loops."""
    setup = result.setup_ns * float(span_scale(gauge, [result.begin_ns], [result.setup_ns])[0])
    laps = float(np.dot(result.laps_ns, gauge.scale(kind, result.lap_at_ns)))
    rest = result.wall_ns - result.gauge_ns - result.setup_ns - int(result.laps_ns.sum())
    return (setup + laps + rest * float(gauge.scale("loops", [result.begin_ns + result.wall_ns])[0])) / 1e9


def layer_metrics(spans, traced_passes, plain_passes, gauge, kind: str) -> dict[str, float]:
    """Per-layer metrics from the spans.  Library spans are put on the
    gauge's scale as the end-to-end metrics are (`monitor.step` as the
    steps' kind, the rest as loops); bench.self_s is as measured, since it
    accounts for the pass's wall time."""
    a = spans.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    step_id = spans.name_id("monitor.step")
    scaled = dur * np.where(name == step_id, gauge.scale(kind, a["start"]), gauge.scale("loops", a["start"]))

    def of(label: str) -> np.ndarray:
        return scaled[name == spans.name_id(label)]

    def within(span: int, label: str) -> np.ndarray:
        return scaled[(parent == span) & (name == spans.name_id(label))]

    steady, step_s, predict_s, write_s, self_s = [], [], [], [], []
    for result, span in traced_passes:
        steps = within(span, "monitor.step")
        steady.append(steps[result.history:])
        step_s.append(steps.sum() / 1e9)
        predict_s.append(within(span, "traceio.predict").sum() / 1e9)
        write_s.append(within(span, "traceio.write_robustness_csv").sum() / 1e9)
        self_s.append((dur[span] - dur[parent == span].sum()) / 1e9)
    traced_s = statistics.median(pass_seconds(r, gauge, kind) for r, _ in traced_passes)
    plain_s = statistics.median(pass_seconds(r, gauge, kind) for r, _ in plain_passes)
    return {
        "verdict_p99_us": step_percentiles(verdict_laps(plain_passes, gauge, kind))["step_p99_us"],
        **step_percentiles(steady, "monitor."),
        "monitor.step_s": statistics.median(step_s),
        "monitor.init_ms": float(np.median(of("monitor.Monitor"))) / 1e6,
        "formula.compile_ms": float(np.median(of("formula.parse_formula") + of("formula.desugar"))) / 1e6,
        "semantics.predicates_ms": float(np.median(of("semantics.parse_predicates"))) / 1e6,
        "monitor.table_cells": traced_passes[0][0].table_cells,
        "traceio.load_s": float(np.median(of("traceio.load_trace"))) / 1e9,
        "traceio.load_rss_mb": plain_passes[0][0].load_rss_mb,
        "traceio.predict_s": statistics.median(predict_s),
        "traceio.write_s": statistics.median(write_s),
        "bench.self_s": statistics.median(self_s),
        "bench.trace_overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }


def print_self_times(spans) -> None:
    """Per span name: calls, total and self time (duration minus the time
    its child spans cover).  The self times add up to the root span's
    duration: library calls, untraced passes and the benchmark's own work."""
    a = spans.arrays()
    name, parent = a["name"], a["parent"]
    dur = (a["end"] - a["start"]) / 1e9
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - covered
    print(f"  {'span':30s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for k, label in enumerate(spans.names):
        pick = name == k
        print(f"  {label:30s} {int(pick.sum()):8d} {dur[pick].sum():10.4f} {own[pick].sum():10.4f}")
    untraced = own[name == spans.name_id("bench.pass_untraced")].sum()
    bench = sum(own[name == k].sum() for k, label in enumerate(spans.names) if label.startswith("bench.")) - untraced
    print(f"  run {dur[0]:.4f} s = library calls {own.sum() - bench - untraced:.4f} s"
          f" + untraced passes {untraced:.4f} s + benchmark's own {bench:.4f} s")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            results.setdefault(name, {})["per_layer" if trace else "end_to_end"] = json.loads(
                proc.stdout.strip().splitlines()[-1]
            )
    print()
    print(f"{'workload':12s} {'metric':26s} {'value':>14s} unit")
    for name, result in results.items():
        run = result["end_to_end"]
        print(f"{name:12s} {'steps attempted':26s} {run['attempted']:14d}")
        print(f"{name:12s} {'steps failed':26s} {run['failed']:14d}")
        for kind in ("end_to_end", "per_layer"):
            for key, metric in result[kind]["metrics"].items():
                print(f"{name:12s} {key:26s} {metric['value']:14.6g} {metric['unit']}")
    ok = all(r[k]["correct"] and r[k]["failed"] == 0 for r in results.values() for k in r)
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: record spans and report per-layer metrics")
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
