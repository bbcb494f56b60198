import json
import time

import pytest

from hfast.obs.trace import JsonlSink, ListSink, SpanTracer, read_events


def test_span_emits_structured_event():
    sink = ListSink()
    tracer = SpanTracer(sink=sink)
    with tracer.span("load", app="cactus", nranks=16):
        pass
    (ev,) = sink.events
    assert ev["event"] == "span"
    assert ev["name"] == "load"
    assert ev["attrs"] == {"app": "cactus", "nranks": 16}
    assert ev["wall_s"] >= 0.0
    assert ev["peak_rss_kb"] > 0
    assert ev["parent_id"] is None
    assert ev["depth"] == 0


def test_span_nesting_parent_ids_and_depth():
    sink = ListSink()
    tracer = SpanTracer(sink=sink)
    with tracer.span("outer"):
        with tracer.span("mid"):
            with tracer.span("inner"):
                pass
        with tracer.span("mid2"):
            pass
    by_name = {e["name"]: e for e in sink.events}
    # children finish (and emit) before parents
    assert [e["name"] for e in sink.events] == ["inner", "mid", "mid2", "outer"]
    assert by_name["outer"]["parent_id"] is None
    assert by_name["mid"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["inner"]["parent_id"] == by_name["mid"]["span_id"]
    assert by_name["mid2"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["inner"]["depth"] == 2
    # sibling spans get distinct ids
    assert len({e["span_id"] for e in sink.events}) == 4


def test_span_records_exception_and_reraises():
    sink = ListSink()
    tracer = SpanTracer(sink=sink)
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    (ev,) = sink.events
    assert ev["error"] == "ValueError: no"


def test_set_attr_inside_span():
    sink = ListSink()
    tracer = SpanTracer(sink=sink)
    with tracer.span("s") as sp:
        sp.set_attr("bytes", 42)
    assert sink.events[0]["attrs"]["bytes"] == 42


def test_traced_decorator():
    sink = ListSink()
    tracer = SpanTracer(sink=sink)

    @tracer.traced("work", kind="unit")
    def work(x):
        return x * 2

    assert work(21) == 42
    assert sink.events[0]["name"] == "work"
    assert sink.events[0]["attrs"] == {"kind": "unit"}


def test_disabled_tracer_emits_nothing():
    sink = ListSink()
    tracer = SpanTracer(sink=sink, enabled=False)
    with tracer.span("x") as sp:
        sp.set_attr("ignored", 1)  # null span accepts attrs silently
    tracer.emit_event("manifest", {"a": 1})
    assert sink.events == []


def test_disabled_span_overhead_is_tiny():
    tracer = SpanTracer(enabled=False)
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("hot"):
            pass
    per_call = (time.perf_counter() - t0) / n
    # generous bound: a no-op span must stay well under 10 microseconds
    assert per_call < 10e-6


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "sub" / "trace.jsonl"
    tracer = SpanTracer(sink=JsonlSink(path))
    with tracer.span("a"):
        pass
    tracer.emit_event("manifest", {"git_sha": "abc"})
    tracer.close()
    events = read_events(path)
    assert [e["event"] for e in events] == ["span", "manifest"]
    # file is valid JSONL
    lines = path.read_text().strip().splitlines()
    assert all(json.loads(line) for line in lines)


def test_wall_time_uses_injected_clock():
    ticks = iter([10.0, 13.5])
    tracer = SpanTracer(sink=ListSink(), clock=lambda: next(ticks))
    with tracer.span("timed"):
        pass
    assert tracer.sink.events[0]["wall_s"] == pytest.approx(3.5)


# ---------------------------------------------------------------------------
# JsonlSink write buffering


def test_jsonl_sink_buffers_emits_until_flush(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    for i in range(10):
        sink.emit({"event": "span", "i": i})
    # Small events stay in the stream buffer: no per-event flush syscall.
    assert path.read_text() == ""
    sink.flush()
    assert len(path.read_text().splitlines()) == 10
    sink.close()


def test_jsonl_sink_close_loses_no_events(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    n = 500
    for i in range(n):
        sink.emit({"event": "span", "i": i})
    sink.close()
    events = read_events(path)
    assert [e["i"] for e in events] == list(range(n))


def test_jsonl_sink_close_flushes_unowned_stream(tmp_path):
    import io

    stream = io.StringIO()
    sink = JsonlSink(stream)
    sink.emit({"event": "manifest"})
    sink.close()
    # close() flushed but did not close a stream it does not own.
    assert not stream.closed
    assert json.loads(stream.getvalue()) == {"event": "manifest"}


def test_tracer_flush_reaches_the_sink(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = SpanTracer(sink=JsonlSink(path))
    with tracer.span("a"):
        pass
    tracer.flush()  # a mid-run flush must not close the sink
    assert [e["name"] for e in read_events(path)] == ["a"]
    with tracer.span("b"):
        pass
    tracer.close()
    assert [e["name"] for e in read_events(path)] == ["a", "b"]
