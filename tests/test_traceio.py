import ast
import csv
import math
import os
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mtlmon
from mtlmon import (
    ConfigError,
    Monitor,
    Predicate,
    PredictorMode,
    StateSample,
    Trace,
    TraceError,
    TraceExhausted,
    compile_formula,
    desugar,
    format_formula,
    gen_case_study_trace,
    load_trace,
    offline_robustness,
    parse_predicates,
    predict,
    signed_distance,
    write_robustness_csv,
)
from mtlmon.traceio import check_predictor


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_uniform_trace(tmp_path):
    path = write(tmp_path, "time,x,y\n0.0,1.0,2.0\n0.1,3.0,4.0\n0.2,5.0,6.0\n")
    trace = load_trace(path)
    assert len(trace) == 3
    assert trace.variables == ("x", "y")
    assert trace.delta_t == pytest.approx(0.1)
    assert trace.samples[1].values == {"x": 3.0, "y": 4.0}
    assert trace.samples[2].time == pytest.approx(0.2)


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = write(tmp_path, "# a trace\ntime,x\n0.0,1.0\n\n# mid comment\n0.1,2.0\n")
    assert len(load_trace(path)) == 2


@pytest.mark.parametrize(
    "times, delta_t, csv_body, message",
    [
        ([0.0, 0.1], None, None, "sampling period missing for a trace of 2 samples"),
        ([0.0, math.nan], 0.1, "0.0,1.0\nnan,1.0\n", "non-finite time nan at row 1"),
        ([0.1, 0.0], -0.1, "0.1,1.0\n0.0,1.0\n", "sampling period must be positive and finite, got -0.1"),
        ([0.0, 0.1, 0.25], 0.1, "0.0,1.0\n0.1,1.0\n0.25,1.0\n", "non-uniform sampling at row 2"),
    ],
    ids=["period-missing", "non-finite-time", "decreasing-times", "non-uniform"],
)
def test_trace_checks_raise_one_trace_error(tmp_path, times, delta_t, csv_body, message):
    """Each of Trace's checks raises TraceError with one message, whether
    the trace is built by hand or, where a file can express the fault,
    loaded by load_trace."""
    with pytest.raises(TraceError) as built:
        Trace(tuple(StateSample({"x": 1.0}, t) for t in times), delta_t)
    assert type(built.value) is TraceError and str(built.value) == message
    if csv_body is not None:
        with pytest.raises(TraceError) as loaded:
            load_trace(write(tmp_path, "time,x\n" + csv_body))
        assert type(loaded.value) is TraceError and str(loaded.value) == message


def on_a_pipe(entry, end):
    """A call of entry on end 0 (read) or 1 (write) of a fresh pipe, never
    on descriptors 0-2; the call keeps that descriptor as call.fd.
    Reading meets end of file, since the write end is closed first, and
    writing fits in the pipe's buffer.  Closing the pipe afterwards raises
    OSError if the call closed the descriptor itself."""

    def call(path):
        fds = os.pipe()
        call.fd = fds[end]
        if end == 0:
            os.close(fds[1])
        try:
            entry(call.fd)
        finally:
            os.close(fds[0])
            if end == 1:
                os.close(fds[1])

    return call


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda path: Trace((None,)), "samples[0] must be a StateSample, got None"),
        (lambda path: desugar(123), "tree must be a SurfaceNode, got 123"),
        (
            lambda path: offline_robustness(compile_formula("p"), {"p": Predicate("p", "x", lo=0.0)}, None, 0),
            "trace must be a Trace, got None",
        ),
        (lambda path: write_robustness_csv(path, 5), "rows must be an iterable of (step, time, robustness), got 5"),
        (
            lambda path: write_robustness_csv(path, [(0, 0.0, 1.0), 5]),
            "rows[1] must be a (step, time, robustness) triple, got 5",
        ),
        (
            lambda path: Monitor(compile_formula("p"), None),
            "predicates must be a mapping of atom name to Predicate, got None",
        ),
        (lambda path: predict("hold", None, 0, 1), "trace must be a Trace, got None"),
        (lambda path: Trace(None), "samples must be a sequence of StateSample, got None"),
        (
            lambda path: offline_robustness(None, {"p": Predicate("p", "x", lo=0.0)}, fixed_trace([1.0]), 0),
            "formula must be a compiled Formula, got None",
        ),
        (
            lambda path: offline_robustness(compile_formula("p"), None, fixed_trace([1.0]), 0),
            "predicates must be a mapping of atom name to Predicate, got None",
        ),
        (
            lambda path: Monitor(compile_formula("eventually[0,1] p"), {"p": Predicate("p", "x", lo=0.0)}).step(
                StateSample(None), [StateSample({"x": 1.0})]
            ),
            "sample values must be a mapping, got None",
        ),
        (
            lambda path: offline_robustness(
                compile_formula("p"), {"p": Predicate("p", "x", lo=0.0)}, Trace((StateSample([1.0]),)), 0
            ),
            "sample values must be a mapping, got [1.0]",
        ),
        (on_a_pipe(load_trace, 0), "path must be a str or os.PathLike, got <fd>"),
        (on_a_pipe(lambda fd: write_robustness_csv(fd, [(0, 0.0, 1.0)]), 1),
         "path must be a str or os.PathLike, got <fd>"),
        (lambda path: format_formula(5), "tree must be a SurfaceNode, got 5"),
        (lambda path: signed_distance(StateSample({"x": 1.0}), None), "predicate must be a Predicate, got None"),
    ],
    ids=[
        "Trace-samples", "desugar-tree", "offline_robustness-trace", "write_robustness_csv-rows",
        "write_robustness_csv-row",
        "Monitor-predicates", "predict-trace", "Trace-None", "offline_robustness-formula",
        "offline_robustness-predicates", "Monitor.step-sample-values", "offline_robustness-sample-values",
        "load_trace-descriptor", "write_robustness_csv-descriptor", "format_formula-tree",
        "signed_distance-predicate",
    ],
)
def test_entry_points_name_an_argument_of_the_wrong_type(tmp_path, call, message):
    """An argument of the wrong type raises TypeError naming it, not an
    AttributeError or a TypeError from inside the package, and before
    anything is written, except that a bad row of write_robustness_csv
    comes after the header and the rows streamed before it.  A file
    descriptor given as a path is refused and left open."""
    path = tmp_path / "out.csv"
    with pytest.raises(TypeError) as exc:
        call(str(path))
    assert str(exc.value) == message.replace("<fd>", str(getattr(call, "fd", None)))
    if message.startswith("rows["):
        assert path.read_text(encoding="utf-8") == "step,time,robustness\n0,0.0,1.0\n"
    else:
        assert not path.exists()


def package_imports() -> dict[str, set[str]]:
    """Each module of the package, mapped to the package modules it imports."""
    graph = {}
    for path in Path(mtlmon.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mtlmon."):
                names.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("mtlmon.")}
        graph[path.stem] = names
    return graph


def test_package_modules_form_three_layers():
    """formula and semantics import nothing from the package; the two
    evaluators import only those; traceio imports only semantics; and the
    oracle, the reference judge, is imported by no module but __init__."""
    graph = package_imports()
    assert {"formula", "semantics", "monitor", "oracle", "traceio", "cli", "__init__"} <= set(graph)
    assert graph["formula"] == graph["semantics"] == set()
    assert graph["monitor"] <= {"formula", "semantics"}
    assert graph["oracle"] <= {"formula", "semantics"}
    assert graph["traceio"] == {"semantics"}
    assert {name for name, imports in graph.items() if "oracle" in imports} == {"__init__"}


def test_every_source_file_parses_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10, so the package, the
    tests and the benchmark use no syntax of a later Python."""
    repo = Path(__file__).resolve().parent.parent
    paths = [path for part in ("src", "tests", "perfbench") for path in sorted((repo / part).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_trace_and_trace_error_are_defined_once(tmp_path):
    assert Trace.__module__ == TraceError.__module__ == "mtlmon.semantics"
    assert mtlmon.semantics.Trace is mtlmon.oracle.Trace is Trace
    assert mtlmon.semantics.TraceError is mtlmon.traceio.TraceError is TraceError
    assert issubclass(TraceError, ValueError) and issubclass(TraceExhausted, TraceError)
    # the loaded row view lives beside the samples it serves, where the monitor may import it
    defined = {
        path.stem
        for path in Path(mtlmon.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == "RowValues"
    }
    assert defined == {"semantics"}
    assert mtlmon.traceio.RowValues is mtlmon.monitor.RowValues is mtlmon.semantics.RowValues
    assert type(load_trace(write(tmp_path, "time,x\n0.0,1.0\n")).samples[0].values) is mtlmon.semantics.RowValues


def test_load_rejects_non_uniform(tmp_path):
    path = write(tmp_path, "time,x\n0.0,1.0\n0.1,1.0\n0.25,1.0\n")
    with pytest.raises(TraceError, match="non-uniform sampling at row 2"):
        load_trace(path)


def test_load_rejects_non_increasing_times(tmp_path):
    for body in ("0.1,1.0\n0.0,1.0\n", "0.0,1.0\n0.0,1.0\n"):
        path = write(tmp_path, "time,x\n" + body)
        with pytest.raises(TraceError, match="sampling period must be positive"):
            load_trace(path)


def test_load_rejects_short_row(tmp_path):
    path = write(tmp_path, "time,x,y\n0.0,1.0,2.0\n0.1,3.0\n")
    with pytest.raises(TraceError, match="missing column at row 1"):
        load_trace(path)


def test_load_rejects_non_numeric_and_nan(tmp_path):
    path = write(tmp_path, "time,x\n0.0,oops\n")
    with pytest.raises(TraceError, match="non-numeric value"):
        load_trace(path)
    path = write(tmp_path, "time,x\n0.0,nan\n", name="t2.csv")
    with pytest.raises(TraceError, match="non-numeric value"):
        load_trace(path)
    path = write(tmp_path, "time,x\n0.0,\n", name="t3.csv")
    with pytest.raises(TraceError, match="non-numeric value"):
        load_trace(path)
    path = write(tmp_path, "time,x\nnan,oops\n", name="t4.csv")  # a time numeral is Trace's to refuse
    with pytest.raises(TraceError, match="^non-numeric value 'oops' at row 0, column 'x'$"):
        load_trace(path)


@pytest.mark.parametrize(
    "cell, shown",
    [("1_5", "'1_5'"), (" \uff12.5", "'\uff12.5'"), ("1e\u0665", "'1e\u0665'"), ("\u00a01.0 ", "'\\xa01.0'")],
    ids=["separator", "fullwidth", "arabic-indic", "nbsp"],
)
def test_load_rejects_cells_float_reads_beyond_ascii_numerals(tmp_path, cell, shown):
    # float() reads every one of these; a trace cell is an ASCII numeral without '_'
    path = write(tmp_path, f"time,x,y\n0.0,1.0,2.0\n0.1,3.0,{cell}\n")
    with pytest.raises(TraceError, match="^" + re.escape(f"non-numeric value {shown} at row 1, column 'y'") + "$"):
        load_trace(path)


def test_load_accepts_non_ascii_column_names(tmp_path):
    path = write(tmp_path, "time,\u03bb,x_1\n0.0,1.0,2.0\n0.1,3.0,4.0\n")
    assert load_trace(path).samples[1].values == {"\u03bb": 3.0, "x_1": 4.0}


def test_load_rejects_missing_time_header(tmp_path):
    path = write(tmp_path, "x,y\n0.0,1.0\n")
    with pytest.raises(TraceError, match="missing column"):
        load_trace(path)


def test_load_rejects_duplicate_columns(tmp_path):
    path = write(tmp_path, "time,x,x\n0.0,1.0,2.0\n")
    with pytest.raises(TraceError, match="duplicate column 'x'"):
        load_trace(path)
    path = write(tmp_path, "time,x,time\n0.0,1.0,2.0\n", name="t2.csv")
    with pytest.raises(TraceError, match="duplicate column 'time'"):
        load_trace(path)


def test_load_single_row_has_no_period(tmp_path):
    path = write(tmp_path, "time,x\n0.0,1.0\n")
    trace = load_trace(path)
    assert len(trace) == 1
    assert trace.delta_t is None
    # a header alone is a trace of no samples that still names its columns, in header order
    trace = load_trace(write(tmp_path, "# no rows yet\ntime,y,x\n", name="header.csv"))
    assert len(trace) == 0 and trace.delta_t is None
    assert trace.variables == ("y", "x")


_NAMES = st.lists(
    st.text(st.characters(whitelist_categories=("Lu", "Ll")), min_size=1, max_size=4).filter(lambda n: n != "time"),
    min_size=1, max_size=6, unique=True,
)
_VALUES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), names=_NAMES)
def test_loaded_rows_equal_dict_samples(tmp_path, data, names):
    rows = data.draw(st.lists(st.lists(_VALUES, min_size=len(names), max_size=len(names)), min_size=1, max_size=8))
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["time", *names])
        out.writerows([float(k), *map(repr, row)] for k, row in enumerate(rows))
    trace = load_trace(str(path))
    expected = tuple(StateSample(dict(zip(names, row)), float(k)) for k, row in enumerate(rows))
    assert trace.samples == expected
    assert trace.variables == tuple(names)
    for got, want in zip(trace.samples, expected):
        assert got.values == want.values and dict(got.values) == want.values
        assert len(got.values) == len(names) and list(got.values) == names
        assert all(name in got.values for name in names) and "time" not in got.values
        # exactly float, so write_robustness_csv renders the same text as for dict samples
        assert all(type(got.values[name]) is float for name in names)


def test_loaded_rows_are_read_only_and_print_as_dicts(tmp_path):
    sample = load_trace(write(tmp_path, "time,x,y\n0.0,1.5,-2.0\n")).samples[0]
    with pytest.raises(TypeError):
        sample.values["x"] = 0.0
    with pytest.raises(TypeError):
        del sample.values["x"]
    assert sample.values == {"x": 1.5, "y": -2.0}
    assert repr(sample.values) == repr({"x": 1.5, "y": -2.0})
    assert repr(sample) == repr(StateSample({"x": 1.5, "y": -2.0}, 0.0))


def test_missing_variable_in_loaded_row_gives_one_key_error(tmp_path):
    sample = load_trace(write(tmp_path, "time,x\n0.5,1.0\n")).samples[0]
    preds = parse_predicates("p : y >= 0\n")
    message = "unknown variable 'y' in sample at t=0.5"
    with pytest.raises(KeyError, match=message):
        Monitor(compile_formula("p"), preds).step(sample)
    with pytest.raises(KeyError, match=message):
        signed_distance(sample, preds["p"])


def test_loaded_trace_memory_per_cell_and_row(tmp_path):
    rows, cols = 2000, 64
    path = tmp_path / "wide.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["time", *(f"v{c}" for c in range(cols))]) + "\n")
        for r in range(rows):
            fh.write(",".join([repr(r * 0.01), *(repr(r + c / 64) for c in range(cols))]) + "\n")
    tracemalloc.start()
    try:
        trace = load_trace(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == rows
    # a float64 cell is 8 bytes; a sample with its view and time about 150 bytes
    assert peak <= 16 * rows * cols + 256 * rows, f"{peak / (rows * cols):.1f} bytes per cell"


def fixed_trace(values, dt=0.1):
    samples = tuple(StateSample({"x": v}, k * dt) for k, v in enumerate(values))
    return Trace(samples, dt if len(values) >= 2 else None)


def test_predict_hold_repeats_current_sample():
    trace = fixed_trace([3.0, 4.0, 5.0])
    ahead = predict(PredictorMode.HOLD, trace, 0, 2)
    assert [s.values["x"] for s in ahead] == [3.0, 3.0]


def test_predict_perfect_looks_ahead():
    trace = fixed_trace([1.0, 2.0, 3.0])
    ahead = predict(PredictorMode.PERFECT, trace, 0, 2)
    assert [s.values["x"] for s in ahead] == [2.0, 3.0]


def test_predict_none_requires_zero_horizon():
    trace = fixed_trace([1.0, 2.0])
    assert predict(PredictorMode.NONE, trace, 0, 0) == []
    with pytest.raises(ConfigError, match="'none'"):
        predict(PredictorMode.NONE, trace, 0, 1)


def test_predict_perfect_exhausts_near_trace_end():
    trace = fixed_trace([1.0, 2.0, 3.0])
    with pytest.raises(TraceExhausted, match="trace exhausted"):
        predict(PredictorMode.PERFECT, trace, 1, 2)


@pytest.mark.parametrize("mode", list(PredictorMode), ids=[m.value for m in PredictorMode])
def test_predict_takes_a_mode_or_its_value(mode):
    trace = fixed_trace([1.0, 2.0, 3.0])
    horizon = 0 if mode is PredictorMode.NONE else 1
    assert predict(mode.value, trace, 0, horizon) == predict(mode, trace, 0, horizon)


def test_predict_refuses_a_value_that_names_no_mode():
    # "hold" and "none" used to fall through to the perfect lookahead
    trace = fixed_trace([1.0, 2.0, 3.0])
    assert [s.values["x"] for s in predict("hold", trace, 0, 1)] == [1.0]
    with pytest.raises(ConfigError, match="'none'"):
        predict("none", trace, 0, 1)
    with pytest.raises(ValueError, match="'held' is not a valid PredictorMode"):
        predict("held", trace, 0, 1)


@pytest.mark.parametrize("mode", list(PredictorMode))
def test_check_predictor_takes_a_mode_or_its_value(mode):
    """check_predictor reads a mode's value as predict does: "none" used
    to pass for a formula with a horizon, where PredictorMode.NONE did not."""
    if mode is PredictorMode.NONE:
        for given in (mode, mode.value):
            with pytest.raises(ConfigError, match="requires a zero-horizon formula"):
                check_predictor(given, 5)
    else:
        assert check_predictor(mode.value, 5) is check_predictor(mode, 5) is mode
    assert check_predictor(mode.value, 0) is mode
    with pytest.raises(ValueError, match="'held' is not a valid PredictorMode"):
        check_predictor("held", 0)


def test_case_study_trace_geometry():
    trace = gen_case_study_trace(2.0, 0.3, 6.0, 0.01)
    values = [s.values["lambda"] for s in trace.samples]
    assert len(values) == 601
    assert trace.delta_t == 0.01
    assert values[199] == 1.0 and values[200] == 1.2
    assert values[229] == 1.2 and values[230] == 1.0
    assert sum(v == 1.2 for v in values) == 30


def test_case_study_trace_zero_length_excursion():
    trace = gen_case_study_trace(2.0, 0.0, 4.0, 0.01)
    assert all(s.values["lambda"] == 1.0 for s in trace.samples)


def test_case_study_trace_rejects_bad_geometry():
    with pytest.raises(ConfigError, match="geometry"):
        gen_case_study_trace(5.0, 2.0, 6.0, 0.01)
    with pytest.raises(ConfigError, match="positive"):
        gen_case_study_trace(0.0, 1.0, 6.0, 0.0)


def test_write_robustness_csv_returns_count_and_least_robustness(tmp_path):
    path = tmp_path / "out.csv"
    assert write_robustness_csv(str(path), iter([])) == (0, math.inf)
    assert path.read_text() == "step,time,robustness\n"
    rows = iter([(0, 0.0, 2.5), (1, 0.1, -1.0), (2, 0.2, math.inf)])  # an iterator, read once
    assert write_robustness_csv(str(path), rows) == (3, -1.0)
    assert path.read_text() == "step,time,robustness\n0,0.0,2.5\n1,0.1,-1.0\n2,0.2,inf\n"


def test_write_robustness_csv_renders_infinities(tmp_path):
    path = tmp_path / "out.csv"
    write_robustness_csv(str(path), [(0, 0.0, math.inf), (1, 0.1, -math.inf), (2, 0.2, 2.5)])
    lines = path.read_text().splitlines()
    assert lines[0] == "step,time,robustness"
    assert lines[1].endswith(",inf")
    assert lines[2].endswith(",-inf")
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values == [math.inf, -math.inf, 2.5]


def test_write_robustness_csv_passes_an_error_of_the_rows_iterator_through(tmp_path):
    """A TypeError raised while the next row is made, as Monitor.step raises
    one inside mtlmon monitor's row generator, is not taken for a bad row."""
    def rows():
        yield 0, 0.0, 1.0
        raise TypeError("from the generator")

    path = tmp_path / "out.csv"
    with pytest.raises(TypeError, match="^from the generator$"):
        write_robustness_csv(str(path), rows())
    assert path.read_text() == "step,time,robustness\n0,0.0,1.0\n"
