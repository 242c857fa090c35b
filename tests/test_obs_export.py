"""Tests for trace export (JSONL + Chrome) and the kernel's profiler hook."""

import json

import pytest

from repro.obs.export import (
    records_from_jsonl,
    trace_to_chrome,
    trace_to_jsonl,
    write_chrome_trace,
    write_jsonl_trace,
    write_trace,
)
from repro.sim.core import Simulator
from repro.sim.trace import KIND_SPAN, Tracer


def make_tracer():
    tracer = Tracer()
    tracer.enable()
    tracer.emit(1.0, "insert", "cub:0: scheduled viewer", node="cub:0", slot=7)
    tracer.emit_span(
        2.0, 2.5, "block.service", "cub:1: served block", node="cub:1", block=3
    )
    tracer.emit(3.0, "fault.inject", "cub 1 failed", target="cub:1")
    return tracer


class TestJsonl:
    def test_round_trip(self):
        tracer = make_tracer()
        text = trace_to_jsonl(tracer.records)
        restored = records_from_jsonl(text)
        assert restored == list(tracer.records)

    def test_span_fields_preserved(self):
        tracer = make_tracer()
        restored = records_from_jsonl(trace_to_jsonl(tracer.records))
        span = restored[1]
        assert span.kind == KIND_SPAN
        assert span.duration == pytest.approx(0.5)
        assert span.fields["block"] == 3

    def test_empty(self):
        assert trace_to_jsonl([]) == ""
        assert records_from_jsonl("") == []

    def test_write_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = write_jsonl_trace(str(path), make_tracer().records)
        assert count == 3
        assert len(records_from_jsonl(path.read_text())) == 3


class TestChrome:
    def test_document_structure(self):
        doc = trace_to_chrome(make_tracer().records)
        assert "traceEvents" in doc
        events = doc["traceEvents"]
        # Metadata first: process_name, then one thread_name per node.
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "tiger"
        thread_names = {
            e["args"]["name"] for e in events if e.get("name") == "thread_name"
        }
        # Two component nodes, plus the category fallback for the bare
        # emit without a node field.
        assert thread_names == {"cub:0", "cub:1", "fault.inject"}

    def test_instants_and_spans(self):
        doc = trace_to_chrome(make_tracer().records)
        body = [e for e in doc["traceEvents"] if e["ph"] in ("i", "X")]
        instant = body[0]
        assert instant["ph"] == "i"
        assert instant["ts"] == pytest.approx(1.0e6)  # seconds -> us
        assert instant["args"]["slot"] == 7
        assert "node" not in instant["args"]  # consumed as the thread
        span = body[1]
        assert span["ph"] == "X"
        assert span["dur"] == pytest.approx(0.5e6)

    def test_written_file_is_json_loadable(self, tmp_path):
        path = tmp_path / "t.json"
        count = write_chrome_trace(str(path), make_tracer().records)
        assert count == 3
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 3 + 1 + 3  # events + process + threads

    def test_write_trace_infers_format(self, tmp_path):
        chrome = tmp_path / "a.json"
        jsonl = tmp_path / "a.jsonl"
        write_trace(str(chrome), make_tracer().records)
        write_trace(str(jsonl), make_tracer().records)
        assert "traceEvents" in json.loads(chrome.read_text())
        assert records_from_jsonl(jsonl.read_text())
        with pytest.raises(ValueError):
            write_trace(str(chrome), [], fmt="xml")


class TestTracerBound:
    def test_ring_drops_are_counted(self):
        tracer = Tracer(capacity=3)
        tracer.enable()
        for i in range(5):
            tracer.emit(float(i), "x", str(i))
        assert len(tracer.records) == 3
        assert tracer.dropped == 2
        # Oldest evicted: the ring retains the most recent records.
        assert [r.message for r in tracer.records] == ["2", "3", "4"]

    def test_span_validation_precedes_enabled_check(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.emit_span(2.0, 1.0, "x", "backwards")


class TestProfiler:
    """``Simulator.set_profiler`` is the hook the span recorder in
    ``benchmarks/perf/spans.py`` attaches through."""

    def test_records_handlers_through_simulator(self):
        sim = Simulator()
        recorded = []

        class Recorder:
            def record(self, fn, wall_s, sim_now):
                recorded.append((fn, wall_s, sim_now))

        sim.set_profiler(Recorder())
        calls = []

        def handler():
            calls.append(sim.now)

        sim.call_at(1.0, handler)
        sim.call_at(2.0, handler)
        sim.run(until=5.0)
        assert calls == [1.0, 2.0]
        assert [(fn, now) for fn, _, now in recorded] == [
            (handler, 1.0), (handler, 2.0),
        ]
        assert all(wall >= 0.0 for _, wall, _ in recorded)

    def test_no_profiler_means_no_overhead_attribute(self):
        sim = Simulator()
        assert sim.profiler is None
        sim.call_at(1.0, lambda: None)
        sim.run(until=2.0)  # dispatch works with the profiler detached
