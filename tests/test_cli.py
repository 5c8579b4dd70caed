import contextlib
import io
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from mtlmon import ConfigError, compile_formula, offline_robustness_series
from mtlmon.cli import (
    case_study_formula,
    gen_template,
    intervals_to_samples,
    main,
    run_bench,
    run_case_study,
)
from mtlmon.formula import desugar, format_formula, parse_formula
from mtlmon.traceio import gen_case_study_trace

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


def test_monitor_exit_codes(tmp_path, capsys):
    f, p, t, out = setup_run(tmp_path, "p and (", "p : x >= 0\n", "time,x\n0.0,1.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 4  # bad formula
    f.write_text("q")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 4  # unbound atom
    f.write_text("p")
    p.write_text("p : x >= 1e400\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 4  # bound overflows to inf
    p.write_text("p : x >= 0\n")
    f.write_text("eventually[0,1000000000000] p")
    assert main(monitor_args(f, p, t, out)) == 4  # table larger than physical memory
    f.write_text("p")
    t.write_text("time,x\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 3  # bad trace
    t.write_text("time,x,x\n0.0,1.0,2.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 3  # duplicate column
    t.write_text("time,x\n0.0,1_5\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 3  # digit separator
    p.write_text("p : y >= 0\n")
    t.write_text("time,x\n0.0,1.0\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 3  # no column the predicate reads
    t.write_text("time,x\n")
    capsys.readouterr()
    assert main(monitor_args(f, p, t, out, predictor="none")) == 3  # the same, header only
    assert capsys.readouterr().err == "error: trace has no column 'y' (read by predicate 'p')\n"
    p.write_text("p : x >= 0\n")
    f.write_text("eventually[0,2] p")
    t.write_text("time,x\n")
    assert main(monitor_args(f, p, t, out, predictor="none")) == 1  # no predictions for a future formula, no rows
    t.write_text("time,x\n0.0,1.0\n")
    assert main(monitor_args(f, p, tmp_path / "absent.csv", out, predictor="none")) == 1
    assert main(["monitor", "--formula", str(f)]) == 1  # missing required flags
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
    if b"\xff" in content:  # each file's error names the byte, as the trace's does
        assert "is not UTF-8 text: byte 0xff (" in err
    if which == "formula" and b"\xff" in content:  # a ParseError position counts characters
        assert err.endswith("(at position 5)\n")


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
    "total, dt, samples",
    [("1e308", "1e-8", "inf"), ("6", "1e-300", "6e+300")],
    ids=["count-overflows", "count-exceeds-memory"],
)
def test_case_study_refuses_more_samples_than_fit_in_memory(tmp_path, capsys, total, dt, samples):
    """A sample count that overflows, or whose samples would not fit in
    physical memory, is a ConfigError from the library and one error line
    with exit 1 from the CLI, raised before any sample is built."""
    with pytest.raises(ConfigError) as exc:
        gen_case_study_trace(2.0, 2.5, float(total), float(dt))
    message = str(exc.value)
    assert message.startswith(f"{float(total)} s at a sampling period of {float(dt)} s is {samples} samples, ")
    assert message.endswith(" bytes of physical memory")
    out = tmp_path / "case.csv"
    assert main(["case-study", "--variant", "pt", "--total", total, "--dt", dt, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_case_study_memory_check_reads_physical_memory(monkeypatch):
    """The check is page size times physical pages, as for the monitor's
    table: on a machine with 64 KiB the default 601-sample scenario is
    refused, and with 1 GiB it is built."""
    small = SimpleNamespace(sysconf={"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
    monkeypatch.setattr("mtlmon.traceio.os", small)
    with pytest.raises(ConfigError, match="is 601 samples, more than fit in the 65536 bytes of physical memory"):
        gen_case_study_trace(2.0, 2.5, 6.0, 0.01)
    large = SimpleNamespace(sysconf={"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}.__getitem__)
    monkeypatch.setattr("mtlmon.traceio.os", large)
    assert len(gen_case_study_trace(2.0, 2.5, 6.0, 0.01)) == 601


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
    machine = SimpleNamespace(sysconf={"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
    monkeypatch.setattr("mtlmon.monitor.os", machine)
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
