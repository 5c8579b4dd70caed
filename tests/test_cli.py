import argparse
import contextlib
import io
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from mtlmon import ConfigError, cli, compile_formula, offline_robustness_series, traceio
from mtlmon.cli import (
    case_study_formula,
    gen_template,
    intervals_to_samples,
    main,
    run_bench,
    run_case_study,
)
from mtlmon.formula import desugar, format_formula, parse_formula
from mtlmon.traceio import gen_case_study_trace, load_trace

from helpers import ATOMS, random_core_text, random_predicates, random_surface_tree, random_trace


def read_values(path):
    lines = path.read_text().splitlines()[1:]
    return [float(line.split(",")[2]) for line in lines]


def setup_run(tmp_path, formula, predicates, trace):
    f = tmp_path / "spec.mtl"
    f.write_text(formula)
    p = tmp_path / "preds.cfg"
    p.write_text(predicates)
    t = tmp_path / "trace.csv"
    t.write_text(trace)
    out = tmp_path / "out.csv"
    return f, p, t, out


def monitor_args(f, p, t, out, predictor="perfect", extra=()):
    return [
        "monitor", "--formula", str(f), "--predicates", str(p), "--trace", str(t),
        "--predictor", predictor, "--out", str(out), *extra,
    ]


def test_monitor_true_formula_emits_inf(tmp_path):
    f, p, t, out = setup_run(tmp_path, "true", "", "time,x\n0.0,1.0\n0.1,2.0\n0.2,3.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 0
    assert read_values(out) == [math.inf, math.inf, math.inf]


def test_monitor_eventually_perfect_single_row(tmp_path):
    f, p, t, out = setup_run(
        tmp_path, "eventually[0,1] p", "p : x >= 0\n", "time,x\n0.0,-1.0\n0.1,2.0\n"
    )
    assert main(monitor_args(f, p, t, out)) == 0
    assert out.read_bytes() == b"step,time,robustness\n0,0.0,2.0\n"
    t.write_text("time,x\n0.0,1.0\n0.1,2.5\n0.2,-1.0\n")  # a row per step whose full future is in the trace
    assert main(monitor_args(f, p, t, out)) == 0
    assert out.read_bytes() == b"step,time,robustness\n0,0.0,2.5\n1,0.1,2.5\n"


def test_monitor_perfect_emission_range(tmp_path):
    trace = "time,x\n" + "".join(f"{k * 0.1!r},{k}.0\n" for k in range(6))
    f, p, t, out = setup_run(tmp_path, "eventually[0,2] p", "p : x >= 0\n", trace)
    assert main(monitor_args(f, p, t, out)) == 0
    assert len(read_values(out)) == 4  # steps 0..3 have complete futures
    assert main(monitor_args(f, p, t, out, predictor="hold")) == 0
    assert len(read_values(out)) == 6


def test_monitor_fail_on_violation(tmp_path):
    f, p, t, out = setup_run(
        tmp_path, "p", "p : x >= 0\n", "time,x\n0.0,1.0\n0.1,-2.0\n"
    )
    args = monitor_args(f, p, t, out, predictor="none", extra=("--fail-on-violation",))
    assert main(args) == 2
    assert read_values(out) == [1.0, -2.0]


def test_monitor_holds_only_the_loaded_trace(tmp_path, capsys):
    """Each row is written as its step returns it: the run's tracemalloc
    peak lies within 32 bytes a row of load_trace's own, where a list of
    the output rows costs about 130."""
    rows = 20_000
    trace = "time,x\n" + "".join(f"{k * 0.01!r},{k % 7 - 3}.0\n" for k in range(rows))
    f, p, t, out = setup_run(tmp_path, "p", "p : x >= 0\n", trace)

    def peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    loaded = peak(load_trace, str(t))
    ran = peak(main, monitor_args(f, p, t, out, predictor="none"))
    assert capsys.readouterr().out == f"wrote {rows} steps to {out}\n"
    assert ran - loaded <= 32 * rows, f"{(ran - loaded) / rows:.1f} bytes a row"


def test_monitor_exit_codes(tmp_path, capsys):
    f, p, t, out = setup_run(tmp_path, "p and (", "p : x >= 0\n", "time,x\n0.0,1.0\n")

    def refused(args):  # every check runs before the output file is opened
        code = main(args)
        assert not out.exists()
        return code

    assert refused(monitor_args(f, p, t, out, predictor="none")) == 4  # bad formula
    f.write_text("q")
    assert refused(monitor_args(f, p, t, out, predictor="none")) == 4  # unbound atom
    f.write_text("p")
    p.write_text("p : x >= 1e400\n")
    assert refused(monitor_args(f, p, t, out, predictor="none")) == 4  # bound overflows to inf
    p.write_text("p : x >= 0\n")
    f.write_text("eventually[0,1000000000000] p")
    assert refused(monitor_args(f, p, t, out)) == 4  # table larger than physical memory
    f.write_text("p")
    t.write_text("time,x\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    assert refused(monitor_args(f, p, t, out, predictor="none")) == 3  # bad trace
    t.write_text("time,x,x\n0.0,1.0,2.0\n")
    assert refused(monitor_args(f, p, t, out, predictor="none")) == 3  # duplicate column
    t.write_text("time,x\n0.0,1_5\n")
    assert refused(monitor_args(f, p, t, out, predictor="none")) == 3  # digit separator
    p.write_text("p : y >= 0\n")
    t.write_text("time,x\n0.0,1.0\n")
    assert refused(monitor_args(f, p, t, out, predictor="none")) == 3  # no column the predicate reads
    t.write_text("time,x\n")
    capsys.readouterr()
    assert refused(monitor_args(f, p, t, out, predictor="none")) == 3  # the same, header only
    assert capsys.readouterr().err == "error: trace has no column 'y' (read by predicate 'p')\n"
    p.write_text("p : x >= 0\n")
    f.write_text("eventually[0,2] p")
    t.write_text("time,x\n")
    assert refused(monitor_args(f, p, t, out, predictor="none")) == 1  # no predictions for a future formula, no rows
    t.write_text("time,x\n0.0,1.0\n")
    assert refused(monitor_args(f, p, tmp_path / "absent.csv", out, predictor="none")) == 1
    assert refused(["monitor", "--formula", str(f)]) == 1  # missing required flags
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "which, content, code",
    [
        ("trace", b"time,x\n0.0,1\n0.1,\xff\n", 3),
        ("trace", b"time,x\n0.0,1\n0.1," + b"1" * 140000 + b"\n", 3),  # over csv's field limit
        ("trace", b"time,x\n-1e308,1\n1e308,1\n", 3),  # the period overflows to inf
        ("formula", b"p or \xff", 4),
        ("formula", "é or ".encode() + b"\xff", 4),  # é is one character in two bytes
        ("predicates", b"p : x >= 0  # \xff\n", 4),
        ("formula", b"(" * 170 + b"p" + b")" * 170, 4),  # nested past the recursion limit
        ("formula", b"not " * 990 + b"p", 4),
    ],
    ids=[
        "trace-not-utf8", "trace-field-over-limit", "trace-period-inf",
        "formula-not-utf8", "formula-not-utf8-after-multibyte", "predicates-not-utf8", "parens", "nots",
    ],
)
def test_monitor_rejects_bad_files_in_one_line(tmp_path, capsys, which, content, code):
    files = dict(zip(("formula", "predicates", "trace"), setup_run(tmp_path, "p", "p : x >= 0\n", "time,x\n0.0,1\n")))
    files[which].write_bytes(content)
    assert main(monitor_args(files["formula"], files["predicates"], files["trace"], tmp_path / "out.csv", "hold")) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()  # every check runs before the output file is opened
    if b"\xff" in content:  # each file's error names the byte, as the trace's does
        assert "is not UTF-8 text: byte 0xff (" in err
    if which == "formula" and b"\xff" in content:  # a ParseError position counts characters
        assert err.endswith("(at position 5)\n")


@pytest.mark.parametrize("which", ["formula", "predicates"])
def test_monitor_reports_both_text_files_bad_byte_at_its_character(tmp_path, capsys, which):
    # the comment holds a two-byte character, so the byte offset would be 5
    files = dict(zip(("formula", "predicates", "trace"), setup_run(tmp_path, "p", "p : x >= 0\n", "time,x\n0.0,1\n")))
    files[which].write_bytes("# é\n".encode() + b"\xff")
    assert main(monitor_args(files["formula"], files["predicates"], files["trace"], tmp_path / "out.csv", "hold")) == 4
    assert capsys.readouterr().err == f"error: {which} file is not UTF-8 text: byte 0xff (invalid start byte) (at position 4)\n"


def test_monitor_seconds_units_converts_every_formula_that_parses(tmp_path):
    # the conversion to samples recurses as deep as the tree, no deeper than parsing did
    trace = "time,x\n" + "".join(f"{k * 0.5!r},{v}\n" for k, v in enumerate([-1.0, -2.0, 3.0, -4.0, -5.0]))
    f, p, t, out = setup_run(tmp_path, "not " * 600 + "eventually[0,1] p", "p : x >= 0\n", trace)
    assert main(monitor_args(f, p, t, out, extra=("--time-units", "seconds"))) == 0
    assert read_values(out) == [3.0, 3.0, 3.0]  # the 600 negations cancel


def test_monitor_none_predictor_needs_zero_horizon(tmp_path):
    f, p, t, out = setup_run(
        tmp_path, "eventually[0,1] p", "p : x >= 0\n", "time,x\n0.0,1.0\n0.1,1.0\n"
    )
    assert main(monitor_args(f, p, t, out, predictor="none")) == 1


def test_monitor_zero_window_needs_no_predictions(tmp_path):
    # the [0,0] root reads only c now: no horizon, so every step is written
    trace = "time,x,y\n" + "".join(f"{k * 0.1!r},{k}.0,{3 - k}.0\n" for k in range(6))
    f, p, t, out = setup_run(tmp_path, "(a until[4,4] a) until[0,0] c", "a : x >= 0\nc : y >= 0\n", trace)
    assert main(monitor_args(f, p, t, out)) == 0
    assert read_values(out) == [3.0, 2.0, 1.0, 0.0, -1.0, -2.0]
    assert main(monitor_args(f, p, t, out, predictor="none")) == 0
    assert read_values(out) == [3.0, 2.0, 1.0, 0.0, -1.0, -2.0]


def test_monitor_seconds_units(tmp_path):
    trace = "time,x\n" + "".join(f"{k * 0.5!r},{v}\n" for k, v in enumerate([-1.0, -2.0, 3.0, -4.0, -5.0]))
    f, p, t, out = setup_run(tmp_path, "eventually[0,1] p", "p : x >= 0\n", trace)
    assert main(monitor_args(f, p, t, out, extra=("--time-units", "seconds"))) == 0
    # 1 s = 2 samples: the window sees offsets 0..2
    assert read_values(out) == [3.0, 3.0, 3.0]


def test_monitor_seconds_units_rejects_non_divisible(tmp_path):
    trace = "time,x\n0.0,1.0\n0.3,1.0\n0.6,1.0\n"
    f, p, t, out = setup_run(tmp_path, "eventually[0,1] p", "p : x >= 0\n", trace)
    assert main(monitor_args(f, p, t, out, extra=("--time-units", "seconds"))) == 1
    t.write_text("time,x\n0,1\n5e-324,2\n")  # 1 s over this period is an infinite count of samples
    assert main(monitor_args(f, p, t, out, extra=("--time-units", "seconds"))) == 1


def test_intervals_to_samples_rewrites_bounds():
    tree = intervals_to_samples(parse_formula("eventually[0,2] p since[1,inf) q"), 0.5)
    compiled = desugar(tree)
    assert compiled.horizon == 4


def test_monitor_perfect_mode_agrees_with_reference_end_to_end(tmp_path):
    rng = random.Random(53)
    text = random_core_text(rng, max_depth=3, max_bound=4)
    formula = compile_formula(text)
    preds = random_predicates(rng, formula.atom_names)
    variables = sorted({p.variable for p in preds.values()})
    trace = random_trace(rng, variables, 24)
    trace_csv = "time," + ",".join(variables) + "\n"
    for s in trace.samples:
        trace_csv += f"{s.time!r}," + ",".join(repr(s.values[v]) for v in variables) + "\n"
    pred_lines = []
    for name, p in preds.items():
        if p.lo == -math.inf:
            pred_lines.append(f"{name} : {p.variable} <= {p.hi!r}")
        elif p.hi == math.inf:
            pred_lines.append(f"{name} : {p.variable} >= {p.lo!r}")
        else:
            pred_lines.append(f"{name} : {p.lo!r} <= {p.variable} <= {p.hi!r}")
    f, p, t, out = setup_run(tmp_path, text, "\n".join(pred_lines) + "\n", trace_csv)
    assert main(monitor_args(f, p, t, out)) == 0
    expect = offline_robustness_series(formula, preds, trace)
    got = read_values(out)
    assert got == expect[: len(got)]


def test_gen_template_examples():
    assert gen_template("E", 1, 1000) == "p0 -> eventually[0,1000] p1"
    assert compile_formula(gen_template("E", 5, 1000)).horizon == 1000
    assert compile_formula(gen_template("U", 2, 1000)).horizon == 1000


def test_gen_template_guards():
    with pytest.raises(ConfigError, match="divide"):
        gen_template("E", 3, 1000)
    with pytest.raises(ConfigError, match="kind"):
        gen_template("X", 1, 1000)
    with pytest.raises(ConfigError, match="1..9"):
        gen_template("E", 0, 1000)
    for horizon in (0, -4):
        with pytest.raises(ConfigError, match=f"^horizon must be positive, got {horizon}$"):
            gen_template("E", 1, horizon)


def test_run_bench_guards_step_count():
    with pytest.raises(ConfigError, match="steps >= 30"):
        run_bench("E", 1, 100, 10)


def test_run_bench_reports_statistics():
    report = run_bench("E", 1, 60, 30)
    assert report.steps == 30
    assert report.mean_ms > 0
    assert report.variance_ms2 >= 0


def test_run_bench_counts_warmup_steps():
    # 10 untimed steps come first; with H=60 all 30 timed steps (indices
    # 10..39) precede the history of 60, with H=20 only indices 10..19 do
    assert run_bench("E", 1, 60, 30).warmup_steps == 30
    assert run_bench("E", 1, 20, 30).warmup_steps == 10


def test_run_bench_nesting_impact_is_modest():
    # at a fixed window, deep nesting must cost far less than another
    # factor of the window would
    flat = run_bench("E", 1, 1008, 30)
    deep = run_bench("E", 9, 1008, 30)
    assert deep.mean_ms / flat.mean_ms < 5.0


def test_run_bench_memory_is_flat_in_steps():
    import resource

    run_bench("E", 1, 200, 30)  # warm allocator high-water mark
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_bench("E", 1, 200, 120)
    growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    assert growth_kb < 1024


def test_bench_cli_requires_horizon_without_sweep(capsys):
    assert main(["bench", "--template", "E", "--n", "1"]) == 1
    assert main(["bench", "--template", "E", "--n", "1", "--horizon", "0", "--steps", "30"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --horizon is required without --sweep", "error: horizon must be positive, got 0",
    ]
    assert main(["bench", "--template", "E", "--n", "1", "--horizon", "500", "--steps", "30"]) == 0
    line = r"template=E n=1 H=500 steps=30 warmup_steps=30 mean_ms=\d+\.\d{3} variance_ms2=\d+\.\d{6}\n"
    assert re.fullmatch(line, capsys.readouterr().out)


def readme_commands():
    """Each `mtlmon` command in README's "Command line" block, its `\\`
    continuations joined and its comments skipped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def test_readme_command_line_examples_parse():
    """A renamed flag or subcommand fails here, not in a reader's shell."""
    commands = readme_commands()
    assert [argv[:2] for argv in commands] == [
        ["mtlmon", "monitor"], ["mtlmon", "bench"], ["mtlmon", "bench"], ["mtlmon", "case-study"],
    ]
    parser = cli._build_parser()
    for sub in next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices.values():
        sub.allow_abbrev = False  # README's old flag must not pass as the prefix of a renamed one
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_case_study_formula_horizons():
    pt = compile_formula(case_study_formula("pt", 0.01))
    assert pt.horizon == 0
    ft = compile_formula(case_study_formula("ft", 0.01))
    assert ft.horizon == 200
    ptft = compile_formula(case_study_formula("ptft", 0.01))
    assert ptft.horizon == 200 and ptft.history == 400
    with pytest.raises(ConfigError, match="multiple"):
        case_study_formula("pt", 0.03)


def test_case_study_zero_excursion_all_variants_non_negative():
    for variant in ("pt", "ft", "ptft"):
        rows = run_case_study(variant, 0.02, 1.0, 0.0, 3.0)
        assert min(value for _, _, value in rows) >= 0


def test_case_study_cli_writes_csv(tmp_path):
    out = tmp_path / "case.csv"
    code = main([
        "case-study", "--variant", "pt", "--dt", "0.02", "--excursion-start", "1.0",
        "--excursion-len", "0.2", "--total", "3.0", "--out", str(out),
    ])
    assert code == 0
    assert len(read_values(out)) == 151


@pytest.mark.parametrize(
    "flag, name, value",
    [
        ("--dt", "delta_t", "nan"),
        ("--dt", "delta_t", "inf"),
        ("--total", "total", "nan"),
        ("--total", "total", "inf"),
        ("--excursion-start", "excursion_start", "nan"),
        ("--excursion-len", "excursion_len", "nan"),
    ],
)
def test_case_study_rejects_non_finite_arguments(tmp_path, capsys, flag, name, value):
    """NaN or an infinity in any scenario parameter is a ConfigError from
    the library and one error line with exit 1 from the CLI, not a
    traceback or a signal with no excursion."""
    args = {"excursion_start": 2.0, "excursion_len": 2.5, "total": 6.0, "delta_t": 0.01}
    args[name] = float(value)
    message = f"{name} must be a finite real number, got {float(value)!r}"
    with pytest.raises(ConfigError) as exc:
        gen_case_study_trace(**args)
    assert str(exc.value) == message
    out = tmp_path / "case.csv"
    assert main(["case-study", "--variant", "pt", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "total, dt, start, end",
    [
        ("1e308", "1e-8", "total 1e+308 s overflows a count of sampling periods of 1e-08 s", ""),
        ("6", "1e-300", "6.0 s at a sampling period of 1e-300 s is 6e+300 samples, ", " bytes of physical memory"),
    ],
    ids=["count-overflows", "count-exceeds-memory"],
)
def test_case_study_refuses_more_samples_than_fit_in_memory(tmp_path, capsys, total, dt, start, end):
    """A sample count that overflows (seconds_to_samples' refusal), or whose
    samples would not fit in physical memory, is a ConfigError from the
    library and one error line with exit 1 from the CLI, raised before any
    sample is built."""
    with pytest.raises(ConfigError) as exc:
        gen_case_study_trace(2.0, 2.5, float(total), float(dt))
    message = str(exc.value)
    assert message.startswith(start)
    assert message.endswith(end)
    out = tmp_path / "case.csv"
    assert main(["case-study", "--variant", "pt", "--total", total, "--dt", dt, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--total", "6.75", "total 6.75 s is not a multiple of the sampling period 0.5 s"),
        ("--total", "6.25", "total 6.25 s is not a multiple of the sampling period 0.5 s"),
        ("--excursion-start", "2.004", "excursion start 2.004 s is not a multiple of the sampling period 0.01 s"),
        ("--excursion-len", "0.305", "excursion length 0.305 s is not a multiple of the sampling period 0.01 s"),
    ],
    ids=["total-6.75", "total-6.25", "excursion-start", "excursion-len"],
)
def test_case_study_refuses_seconds_off_the_sample_grid(tmp_path, capsys, flag, value, message):
    """The scenario's seconds follow the `--time-units seconds` rule: a
    total, excursion start or length that is not a multiple of the period
    is refused, naming the quantity, where it used to be rounded (6.75 s
    at 0.5 s gave 15 samples ending at 7.0 s)."""
    dt = "0.5" if flag == "--total" else "0.01"
    args = {"excursion_start": 2.0, "excursion_len": 2.5, "total": 6.0, "delta_t": float(dt)}
    args[flag[2:].replace("-", "_")] = float(value)
    with pytest.raises(ConfigError) as exc:
        gen_case_study_trace(**args)
    assert str(exc.value) == message
    out = tmp_path / "case.csv"
    assert main(["case-study", "--variant", "pt", "--dt", dt, flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_case_study_excursion_may_end_at_the_total(tmp_path, capsys):
    # 6.15 + 1.2 reads 7.3500000000000005 in floats; 123 + 24 samples end at sample 147
    trace = gen_case_study_trace(6.15, 1.2, 7.35, 0.05)
    assert [k for k, s in enumerate(trace.samples) if s.values["lambda"] == 1.2] == list(range(123, 147))
    out = tmp_path / "case.csv"
    assert main([
        "case-study", "--variant", "pt", "--dt", "0.05", "--excursion-start", "6.15",
        "--excursion-len", "1.2", "--total", "7.35", "--out", str(out),
    ]) == 0
    assert capsys.readouterr().out.startswith(f"wrote 148 steps to {out} (minimum robustness ")
    assert len(read_values(out)) == 148


def test_case_study_refuses_a_period_that_does_not_divide_its_windows_before_building(tmp_path, capsys, monkeypatch):
    """The formula's 1 s window is converted before the trace is built, so
    a sampling period that does not divide it builds no sample."""
    def build(*args):
        raise AssertionError("the trace was built")

    monkeypatch.setattr("mtlmon.cli.gen_case_study_trace", build)
    out = tmp_path / "case.csv"
    assert main(["case-study", "--variant", "pt", "--dt", "0.03", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: interval bound 1.0 s is not a multiple of the sampling period 0.03 s\n"
    assert not out.exists()


def test_seconds_to_samples_is_one_rule():
    assert cli.seconds_to_samples is traceio.seconds_to_samples
    assert traceio.seconds_to_samples(6.0, 0.01, "total") == 600
    with pytest.raises(ConfigError, match="^sampling period must be positive, got 0.0$"):
        traceio.seconds_to_samples(1.0, 0.0)


def test_case_study_memory_check_reads_physical_memory(monkeypatch):
    """The check reads semantics.physical_memory, as the monitor's table
    does: on a machine with 64 KiB the default 601-sample scenario is
    refused, and with 1 GiB it is built."""
    monkeypatch.setattr("mtlmon.semantics.physical_memory", lambda: 1 << 16)
    with pytest.raises(ConfigError, match="is 601 samples, more than fit in the 65536 bytes of physical memory"):
        gen_case_study_trace(2.0, 2.5, 6.0, 0.01)
    monkeypatch.setattr("mtlmon.semantics.physical_memory", lambda: 1 << 30)
    assert len(gen_case_study_trace(2.0, 2.5, 6.0, 0.01)) == 601


def test_case_study_memory_check_counts_only_the_trace(tmp_path, capsys, monkeypatch):
    """`mtlmon case-study` writes each row as it is made, so the check
    counts only the trace, 265 bytes a sample: a machine whose memory holds
    the default scenario's 601 samples at that cost runs it, and one with a
    byte less refuses it in one error line, exit 1."""
    out = tmp_path / "case.csv"
    monkeypatch.setattr("mtlmon.semantics.physical_memory", lambda: 601 * 265 - 1)
    assert main(["case-study", "--variant", "pt", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: 6.0 s at a sampling period of 0.01 s is 601 samples, "
        "more than fit in the 159264 bytes of physical memory\n"
    )
    assert not out.exists()
    monkeypatch.setattr("mtlmon.semantics.physical_memory", lambda: 601 * 265)
    assert main(["case-study", "--variant", "pt", "--out", str(out)]) == 0
    assert len(read_values(out)) == 601


def test_case_study_pt_with_fail_flag_exits_two(tmp_path):
    trace = gen_case_study_trace(2.0, 2.5, 6.0, 0.01)
    trace_csv = "time,lambda\n" + "".join(
        f"{s.time!r},{s.values['lambda']!r}\n" for s in trace.samples
    )
    f, p, t, out = setup_run(
        tmp_path,
        case_study_formula("pt", 0.01),
        "lam_ok : 0.9 <= lambda <= 1.1\n",
        trace_csv,
    )
    args = monitor_args(f, p, t, out, predictor="none", extra=("--fail-on-violation",))
    assert main(args) == 2


def test_entry_point_exit_codes_reach_the_shell(tmp_path):
    """`python -m mtlmon.cli` runs `sys.exit(main())`, as the `mtlmon`
    script that pyproject.toml installs does: each exit code reaches the
    calling process, and a refused run prints one `error:` line and no
    traceback."""
    root = Path(__file__).resolve().parents[1]
    scripts = (root / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
    assert scripts.startswith('mtlmon = "mtlmon.cli:main"\n')
    f, p, t, out = setup_run(tmp_path, "p", "p : x >= 0\n", "time,x\n0.0,1.0\n0.1,-2.0\n")
    bad_trace, bad_formula = tmp_path / "bad.csv", tmp_path / "bad.mtl"
    bad_trace.write_text("time,x\n0.0,1_5\n")
    bad_formula.write_text("p and (")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for args, code in [
        (monitor_args(f, p, t, out, "none"), 0),
        (["bench", "--template", "E", "--n", "1", "--horizon", "0", "--steps", "30"], 1),
        (monitor_args(f, p, t, out, "none", ["--fail-on-violation"]), 2),
        (monitor_args(f, p, bad_trace, out, "none"), 3),
        (monitor_args(bad_formula, p, t, out, "none"), 4),
    ]:
        run = subprocess.run(
            [sys.executable, "-m", "mtlmon.cli", *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == code, run.stderr
        if code in (0, 2):
            assert (run.stdout, run.stderr) == (f"wrote 2 steps to {out}\n", "")
        else:
            assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: "), run.stderr
            assert "Traceback" not in run.stderr


# ---------------------------------------------------------------------------
# mtlmon monitor on arbitrary input files

VARIABLES = [f"x_{a}" for a in ATOMS]


@st.composite
def spliced(draw, structured):
    """Well-formed text half of the time, else the same with a span
    replaced by arbitrary text, or arbitrary text or bytes outright."""
    kind = draw(st.sampled_from(["well-formed", "well-formed", "spliced", "text", "bytes"]))
    if kind == "text":
        return draw(st.text(max_size=60))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    text = draw(structured)
    if kind == "spliced":
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, len(text)))
        text = text[:i] + draw(st.text(max_size=8)) + text[j:]
    return text


VALUES = st.one_of(st.integers(-10, 10).map(float), st.floats(allow_nan=False, allow_infinity=False))
FORMULAS = st.randoms(use_true_random=False).map(lambda rng: format_formula(random_surface_tree(rng, 3, 4)))


def predicate_lines(a):
    return st.one_of(
        VALUES.map(f"{a} : x_{a} >= {{!r}}".format),
        VALUES.map(f"{a} : x_{a} <= {{!r}}".format),
        st.lists(VALUES, min_size=2, max_size=2).map(sorted).map(lambda b: f"{a} : {b[0]!r} <= x_{a} <= {b[1]!r}"),
    )


PREDICATES = st.tuples(*map(predicate_lines, ATOMS)).map("\n".join)


@st.composite
def traces(draw):
    dt = draw(st.sampled_from((0.1, 0.25, 1.0)))
    rows = [",".join(["time", *VARIABLES])]
    for k in range(draw(st.integers(0, 12))):
        rows.append(",".join(map(repr, [k * dt, *draw(st.lists(VALUES, min_size=3, max_size=3))])))
    return "\n".join(rows) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    formula=spliced(FORMULAS),
    predicates=spliced(PREDICATES),
    trace=spliced(traces()),
    predictor=st.sampled_from(["hold", "perfect", "none"]),
    extra=st.lists(st.sampled_from([("--time-units", "seconds"), ("--fail-on-violation",)]), unique=True),
)
@example(formula="a", predicates="a : x_a >= 0", trace=b"time,x_a\n0.0,1\n0.1,\xff\n", predictor="hold", extra=[])
def test_monitor_cli_on_arbitrary_files(tmp_path, monkeypatch, formula, predicates, trace, predictor, extra):
    """main() never raises.  A rejection exits 1, 3 or 4 with one line on
    stderr; a run exits 0, or 2 only under --fail-on-violation, prints
    nothing on stderr and writes no NaN verdict."""
    # a machine with 64 KiB of memory: a fuzzed interval bound of millions
    # of samples is refused before its table is allocated or stepped
    monkeypatch.setattr("mtlmon.semantics.physical_memory", lambda: 1 << 16)
    paths = []
    for name, content in (("spec.mtl", formula), ("preds.cfg", predicates), ("trace.csv", trace)):
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        paths.append(path)
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    args = monitor_args(*paths, out, predictor, [flag for option in extra for flag in option])
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    event(f"exit {code}")
    if code in (0, 2):
        assert code == 0 or ("--fail-on-violation",) in extra
        assert err.getvalue() == ""
        assert not any(math.isnan(v) for v in read_values(out))
    else:
        assert code in (1, 3, 4)
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
