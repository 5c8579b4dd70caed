import math

import pytest

from mtlmon import (
    ConfigError,
    PredictorMode,
    StateSample,
    Trace,
    TraceError,
    TraceExhausted,
    gen_case_study_trace,
    load_trace,
    predict,
    write_robustness_csv,
)


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_uniform_trace(tmp_path):
    path = write(tmp_path, "time,x,y\n0.0,1.0,2.0\n0.1,3.0,4.0\n0.2,5.0,6.0\n")
    trace = load_trace(path)
    assert len(trace) == 3
    assert trace.delta_t == pytest.approx(0.1)
    assert trace.samples[1].values == {"x": 3.0, "y": 4.0}
    assert trace.samples[2].time == pytest.approx(0.2)


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = write(tmp_path, "# a trace\ntime,x\n0.0,1.0\n\n# mid comment\n0.1,2.0\n")
    assert len(load_trace(path)) == 2


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


def test_write_robustness_csv_renders_infinities(tmp_path):
    path = tmp_path / "out.csv"
    write_robustness_csv(str(path), [(0, 0.0, math.inf), (1, 0.1, -math.inf), (2, 0.2, 2.5)])
    lines = path.read_text().splitlines()
    assert lines[0] == "step,time,robustness"
    assert lines[1].endswith(",inf")
    assert lines[2].endswith(",-inf")
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values == [math.inf, -math.inf, 2.5]
