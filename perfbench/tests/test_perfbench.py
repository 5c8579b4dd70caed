"""Checks of the benchmark itself: its reference evaluators against
``mtlmon.oracle``, its pipeline against ``mtlmon monitor``, and its
refusal to run without the program's sources.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import pipeline
import reference
import workloads
from mtlmon import (
    PredictorMode,
    StateSample,
    Trace,
    compile_formula,
    offline_robustness,
    offline_robustness_series,
    parse_predicates,
)
from mtlmon.cli import gen_template, main

BENCH = Path(__file__).resolve().parents[1]
DT = workloads.DT


def as_trace(columns: dict[str, np.ndarray], rows: int) -> Trace:
    names = list(columns)
    samples = tuple(
        StateSample({name: float(columns[name][i]) for name in names}, i * DT) for i in range(rows)
    )
    return Trace(samples, DT)


def spec(name: str):
    w = workloads.WORKLOADS[name]
    return compile_formula(w.formula), parse_predicates(w.predicates)


def test_sliding_extrema_match_plain_loops():
    rng = np.random.default_rng(0)
    x = rng.normal(size=60)
    for w in (0, 1, 2, 3, 7, 8, 59, 100):
        want = [max(x[max(0, i - w) : i + 1]) for i in range(len(x))]
        assert np.array_equal(reference.past_max(x, w), want)
        assert np.array_equal(reference.past_min(x, w), [min(x[max(0, i - w) : i + 1]) for i in range(len(x))])
        assert np.array_equal(reference.future_max(x, w), [max(x[i : i + w + 1]) for i in range(len(x))])


def test_spec_constants_match_the_program():
    assert reference.TEMPLATE_E == gen_template("E", 1, reference.TEMPLATE_E_HORIZON)
    assert spec("template-E")[0].horizon == reference.TEMPLATE_E_HORIZON
    assert spec("mixed-hold")[0].horizon == reference.MIXED_HOLD_HORIZON


@pytest.mark.parametrize("name, rows", [("past-settle", 600), ("wide-log", 400)])
def test_past_only_reference_equals_oracle(name, rows):
    w = workloads.WORKLOADS[name]
    columns = w.generate(w.rng(3), rows)
    formula, predicates = spec(name)
    want = offline_robustness_series(formula, predicates, as_trace(columns, rows))
    assert np.array_equal(w.reference(columns), want)


def test_template_e_reference_equals_oracle():
    w = workloads.WORKLOADS["template-E"]
    rows = 1100
    columns = w.generate(w.rng(3), rows)
    formula, predicates = spec("template-E")
    want = offline_robustness_series(formula, predicates, as_trace(columns, rows))
    got = w.reference(columns)
    assert len(got) == rows - reference.TEMPLATE_E_HORIZON
    assert np.array_equal(got, want[: len(got)])


def test_mixed_hold_reference_equals_oracle_on_held_extension():
    """The reference at step i is the oracle at step i of the prefix
    x[0..i] followed by horizon held copies of x[i]."""
    w = workloads.WORKLOADS["mixed-hold"]
    rows = 300
    columns = w.generate(w.rng(3), rows)
    formula, predicates = spec("mixed-hold")
    got = w.reference(columns)
    full = as_trace(columns, rows).samples
    hold = reference.MIXED_HOLD_HORIZON
    for i in [*range(45), *range(45, rows, 7)]:
        held = tuple(StateSample(full[i].values, (i + k) * DT) for k in range(1, hold + 1))
        want = offline_robustness(formula, predicates, Trace(full[: i + 1] + held, DT), i)
        assert got[i] == want, f"step {i}"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_verdicts_have_both_signs(name):
    w = workloads.WORKLOADS[name]
    for seed in (1, 2):
        verdicts = w.reference(w.generate(w.rng(seed), w.rows))
        assert (verdicts < 0).any() and (verdicts > 0).any(), f"seed {seed}"


def test_inputs_repeat_for_a_seed(tmp_path):
    w = workloads.WORKLOADS["mixed-hold"]
    a = workloads.write_inputs(w, 5, tmp_path / "a", rows=200)
    b = workloads.write_inputs(w, 5, tmp_path / "b", rows=200)
    c = workloads.write_inputs(w, 6, tmp_path / "c", rows=200)
    assert a.trace.read_bytes() == b.trace.read_bytes() != c.trace.read_bytes()


PREFIX = {"past-settle": 400, "mixed-hold": 120, "template-E": 650, "wide-log": 300}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pipeline_writes_what_the_cli_writes(tmp_path, name):
    """On a prefix of the generated trace, the benchmark's pass and
    `mtlmon monitor` write byte-equal CSVs, and the pass's verdicts equal
    the reference."""
    w = workloads.WORKLOADS[name]
    rows = PREFIX[name]
    inputs = workloads.write_inputs(w, 7, tmp_path)
    prefix = tmp_path / "prefix.csv"
    with open(inputs.trace, encoding="utf-8") as src, open(prefix, "w", encoding="utf-8") as dst:
        for _ in range(rows + 1):  # header plus rows
            dst.write(src.readline())
    files = pipeline.Files(inputs.formula, inputs.predicates, prefix, tmp_path / "bench.csv")
    result = pipeline.run_pass(files, PredictorMode(w.predictor))
    code = main([
        "monitor", "--formula", str(inputs.formula), "--predicates", str(inputs.predicates),
        "--trace", str(prefix), "--predictor", w.predictor, "--out", str(tmp_path / "cli.csv"),
    ])
    assert code == 0
    assert files.out.read_bytes() == (tmp_path / "cli.csv").read_bytes()
    columns = {k: v[:rows] for k, v in inputs.columns.items()}
    assert result.raised == 0
    assert np.array_equal(result.verdicts, w.reference(columns))
    assert pipeline.csv_matches(files.out, result.verdicts)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-log", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_gauge_scales_by_the_median_of_the_nearest_readings():
    gauge = hostspeed.Gauge()
    ref = hostspeed.REF_NS["loops"]
    took = [ref, ref, 3 * ref, ref, 2 * ref, 2 * ref, 2 * ref]
    for k, t in enumerate(took):
        gauge.at["loops"].append(100 * k)
        gauge.took["loops"].append(t)
    # one slow reading alone is dropped; a slow stretch is kept
    got = gauge.scale("loops", [-50, 180, 240, 390, 460, 700])
    assert np.array_equal(got, [1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
    gauge.read()
    assert len(gauge.readings("arrays")) == 1 and gauge.readings("arrays")[0] > 0
