import pytest

import spans


def span(name, start, end, parent=None, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "r", "counts": counts}


def test_self_time_subtracts_direct_children_only():
    recorded = [
        span("stage1", 0.0, 10.0),
        span("twophase.substep", 1.0, 3.0, 0),
        span("linsolve", 1.5, 2.5, 1),
        span("twophase.substep", 4.0, 6.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 1.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [span("p", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 3.0, 6.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(5.0)


def test_recorder_nests_spans_and_records_a_name_once():
    recorder = spans.SpanRecorder("run-1")
    inner = recorder.wrap("linsolve", lambda x: x + 1)
    twice = recorder.wrap("linsolve", lambda x: inner(x) * 2)
    outer = recorder.wrap("flow.solve_pressure", lambda x: twice(x), lambda a, kw, r: {"bytes": r})
    assert outer(1) == 4
    names = [(s["name"], s["parent"], s["run"], s["counts"]) for s in recorder.spans]
    assert names == [("flow.solve_pressure", None, "run-1", {"bytes": 4}), ("linsolve", 0, "run-1", {})]
    assert all(s["start"] <= s["end"] for s in recorder.spans)


def test_layer_metrics_cover_the_timed_run_and_the_setup_build():
    recorded = [
        span("scenario.build", 0.0, 0.5),
        span("pipeline.run", 1.0, 11.0),
        span("scenario.build", 1.0, 1.2, 1),
        span("stage3", 1.2, 10.0, 1),
        span("flow.solve_pressure", 2.0, 6.0, 3),
        span("linsolve", 2.5, 5.5, 4),
        span("solute.step", 6.0, 7.0, 3, substeps=3),
        span("checkpoint.write", 10.0, 10.5, 1, bytes=100),
        span("checkpoint.read", 12.0, 13.0),  # after the run: not counted
    ]
    m = spans.layer_metrics(recorded, root=1)
    assert m["linsolve.calls"] == 1 and m["flow.solves"] == 1
    assert m["linsolve.s"] == pytest.approx(3.0)
    assert m["linsolve.share"] == pytest.approx(0.3)
    assert m["flow.self_s"] == pytest.approx(1.0)
    assert m["stage3.s"] == pytest.approx(8.8)
    assert m["stages.self_s"] == pytest.approx(8.8 - 4.0 - 1.0)
    assert m["solute.substeps"] == 3
    assert m["checkpoint.write_bytes"] == 100
    assert m["checkpoint.read_s"] == 0
    assert m["scenario.build_s"] == pytest.approx(0.5)
