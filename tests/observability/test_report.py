"""Tests for the ``repro report`` HTML health report."""

from __future__ import annotations

import json

from repro.observability.report import (
    load_report_data,
    render_report_html,
    write_report,
)


def make_cell(key, **overrides):
    cell = {
        "key": key,
        "status": "ok",
        "attempts": 1,
        "error_type": None,
        "wall_s": 1.0,
        "spans": None,
        "actual_speedup": 1.5,
        "estimated_speedup": 1.4,
        "stack_segments": None,
        "resumed_from_cycle": None,
    }
    cell.update(overrides)
    return cell


def spans_for(key, wall_us=1_000_000):
    return [
        {"id": 0, "parent": None, "name": "queue.run", "cat": "queue",
         "t0_us": 0, "dur_us": wall_us, "origin": "w-1"},
        {"id": 1, "parent": 0, "name": key, "cat": "cell",
         "t0_us": 100, "dur_us": wall_us - 200, "origin": "w-1"},
        {"id": 2, "parent": 1, "name": "engine.advance", "cat": "cell",
         "t0_us": 200, "dur_us": wall_us // 2, "origin": "w-1"},
    ]


class TestRenderQueueShaped:
    def data(self):
        return {
            "source": "/tmp/queue",
            "kind": "queue",
            "cells": [
                make_cell(
                    "fft:2", wall_s=1.0, spans=spans_for("fft:2"),
                    stack_segments={"LLC interference": 0.4,
                                    "spinning": 0.2},
                ),
                make_cell(
                    "lud:2", wall_s=3.0,
                    spans=spans_for("lud:2", wall_us=3_000_000),
                    resumed_from_cycle=50_000,
                ),
                make_cell("bfs:2", status="quarantined", attempts=3,
                          wall_s=None, actual_speedup=None,
                          estimated_speedup=None),
            ],
            "heartbeats": {
                "w-1": [
                    {"timestamp": 100.0, "current_cell": "fft:2"},
                    {"timestamp": 101.0, "current_cell": None},
                    {"timestamp": 109.0, "current_cell": "lud:2"},
                ],
            },
        }

    def test_report_contains_every_section(self):
        document = render_report_html(self.data())
        for heading in (
            "Health", "Per-cell wall clock", "Span waterfall",
            "Worker utilization", "Speedup stacks", "Cells",
        ):
            assert heading in document
        assert document.startswith("<!doctype html>")
        assert "<script" not in document  # self-contained, no JS

    def test_counts_and_badges(self):
        document = render_report_html(self.data())
        assert "quarantined" in document
        assert "crash-resumed" in document
        assert "crash-resumed from cycle 50000" in document

    def test_waterfall_orders_slowest_first_and_escapes(self):
        data = self.data()
        data["cells"][0]["spans"][1]["name"] = "<script>alert(1)</script>"
        document = render_report_html(data)
        assert "<script>alert(1)</script>" not in document
        assert "&lt;script&gt;" in document
        # lud:2 (3s) must appear before fft:2 (1s) in the waterfall
        waterfall = document[document.index("Span waterfall"):]
        assert waterfall.index("lud:2") < waterfall.index("fft:2")

    def test_worker_strip_shows_busy_and_idle(self):
        document = render_report_html(self.data())
        strip = document[document.index("Worker utilization"):]
        assert "w-1" in strip
        assert "█" in strip  # busy heartbeat
        assert "░" in strip  # idle heartbeat

    def test_stack_section_renders_components(self):
        document = render_report_html(self.data())
        stacks = document[document.index("Speedup stacks"):]
        assert "LLC interference" in stacks
        assert "spinning" in stacks


class TestJournalSource:
    def test_journal_degrades_gracefully(self, tmp_path):
        journal = tmp_path / "journal.json"
        journal.write_text(json.dumps({
            "version": 1,
            "cells": {
                "fft:2": {"status": "ok", "attempts": 1,
                          "total_cycles": 123, "truncated": False},
                "lud:2": {"status": "failed", "attempts": 2,
                          "error_type": "SimDeadlockError"},
            },
        }))
        data = load_report_data(journal)
        assert data["kind"] == "journal"
        assert len(data["cells"]) == 2
        document = render_report_html(data)
        assert "no wall-clock data" in document
        assert "no spans recorded" in document
        assert "no worker heartbeat history" in document
        assert "fft:2" in document

    def test_write_report_creates_file(self, tmp_path):
        journal = tmp_path / "journal.json"
        journal.write_text(json.dumps({"version": 1, "cells": {}}))
        out = tmp_path / "report.html"
        data = write_report(journal, out)
        assert out.exists()
        assert data["cells"] == []
        assert "<h1>" in out.read_text()


class TestQueueSource:
    def test_real_queue_sweep_report(self, tmp_path):
        from repro.experiments.runner import RunPolicy
        from repro.observability.spans import SpanRecorder
        from repro.queue import CellSpec, run_queue_sweep
        from repro.robustness.journal import SweepJournal
        from repro.workloads.suite import by_name

        spans = SpanRecorder()
        report = run_queue_sweep(
            [CellSpec(by_name("fft"), 2, scale=0.05)],
            workers=1,
            policy=RunPolicy(
                checkpoint_dir=str(tmp_path / "ckpt"),
            ),
            journal=SweepJournal(str(tmp_path / "journal.json")),
            spans=spans,
            queue_dir=tmp_path / "queue",
        )
        assert report.ok
        data = load_report_data(tmp_path / "queue")
        assert data["kind"] == "queue"
        (cell,) = data["cells"]
        assert cell["status"] == "ok"
        assert cell["wall_s"] is not None and cell["wall_s"] > 0
        assert cell["stack_segments"]
        assert any(
            row["name"] == "queue.claim" for row in cell["spans"]
        )
        document = render_report_html(data)
        assert "fft:2" in document
        assert "queue.run" in document
