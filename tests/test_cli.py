import math
import random

import pytest

from mtlmon import ConfigError, compile_formula, offline_robustness_series
from mtlmon.cli import (
    case_study_formula,
    gen_template,
    intervals_to_samples,
    main,
    run_bench,
    run_case_study,
)
from mtlmon.formula import desugar, parse_formula

from helpers import random_core_text, random_predicates, random_trace


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
    assert read_values(out) == [2.0]


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


def test_monitor_exit_codes(tmp_path):
    f, p, t, out = setup_run(tmp_path, "p and (", "p : x >= 0\n", "time,x\n0.0,1.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 4  # bad formula
    f.write_text("q")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 4  # unbound atom
    f.write_text("p")
    t.write_text("time,x\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 3  # bad trace
    t.write_text("time,x,x\n0.0,1.0,2.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 3  # duplicate column
    p.write_text("p : y >= 0\n")
    t.write_text("time,x\n0.0,1.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 3  # no column the predicate reads
    p.write_text("p : x >= 0\n")
    t.write_text("time,x\n0.0,1.0\n")
    assert main(monitor_args(f, p, tmp_path / "absent.csv", out, predictor="none")) == 1
    assert main(["monitor", "--formula", str(f)]) == 1  # missing required flags
    assert main(["--help"]) == 0


def test_monitor_none_predictor_needs_zero_horizon(tmp_path):
    f, p, t, out = setup_run(
        tmp_path, "eventually[0,1] p", "p : x >= 0\n", "time,x\n0.0,1.0\n0.1,1.0\n"
    )
    assert main(monitor_args(f, p, t, out, predictor="none")) == 1


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


def test_gen_template_all_divisors():
    for kind in ("E", "U"):
        for n in range(1, 10):
            assert compile_formula(gen_template(kind, n, 2520)).horizon == 2520


def test_gen_template_guards():
    with pytest.raises(ConfigError, match="divide"):
        gen_template("E", 3, 1000)
    with pytest.raises(ConfigError, match="kind"):
        gen_template("X", 1, 1000)
    with pytest.raises(ConfigError, match="1..9"):
        gen_template("E", 0, 1000)


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


def test_bench_cli_requires_horizon_without_sweep():
    assert main(["bench", "--template", "E", "--n", "1"]) == 1


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


def test_case_study_pt_with_fail_flag_exits_two(tmp_path):
    from mtlmon.traceio import gen_case_study_trace

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
