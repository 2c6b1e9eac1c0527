"""Unit tests for the hierarchical span recorder."""

from __future__ import annotations

import threading

import pytest

from repro.observability.spans import (
    SpanRecorder,
    maybe_span,
    span_roots,
    validate_span_rows,
)


def ticking_clock(step_ns=1000):
    """A deterministic monotonic clock advancing ``step_ns`` per call."""
    state = {"now": 0}

    def clock():
        state["now"] += step_ns
        return state["now"]

    return clock


def make_recorder(**kwargs):
    kwargs.setdefault("clock", ticking_clock())
    kwargs.setdefault("epoch_ns", 0)
    return SpanRecorder(**kwargs)


class TestRecording:
    def test_nested_spans_link_to_innermost_parent(self):
        recorder = make_recorder()
        with recorder.span("outer") as outer_id:
            with recorder.span("inner") as inner_id:
                pass
        rows = {row["name"]: row for row in recorder.to_dicts()}
        assert rows["outer"]["parent"] is None
        assert rows["inner"]["parent"] == outer_id
        assert inner_id != outer_id

    def test_explicit_parent_none_forces_root(self):
        recorder = make_recorder()
        with recorder.span("outer"):
            root_id = recorder.start("forced-root", parent=None)
            recorder.finish(root_id)
        rows = {row["name"]: row for row in recorder.to_dicts()}
        assert rows["forced-root"]["parent"] is None

    def test_rows_carry_fixed_key_order_and_origin(self):
        recorder = make_recorder(origin="w-1")
        with recorder.span("a", cat="queue", key="fft:2"):
            pass
        (row,) = recorder.to_dicts()
        assert list(row) == [
            "id", "parent", "name", "cat", "t0_us", "dur_us",
            "origin", "args",
        ]
        assert row["origin"] == "w-1"
        assert row["args"] == {"key": "fft:2"}

    def test_finish_is_idempotent_and_tolerates_unknown_ids(self):
        recorder = make_recorder()
        span_id = recorder.start("a")
        recorder.finish(span_id)
        first = recorder.to_dicts()[0]["dur_us"]
        recorder.finish(span_id)
        recorder.finish(999)
        assert recorder.to_dicts()[0]["dur_us"] == first

    def test_open_spans_export_with_elapsed_duration(self):
        recorder = make_recorder()
        recorder.start("still-open")
        (row,) = recorder.to_dicts()
        assert row["dur_us"] >= 0

    def test_record_is_retroactive_and_thread_stack_free(self):
        recorder = make_recorder()
        with recorder.span("outer"):
            t0 = recorder.now_us()
            recorder.record("side", "queue", t0, 5)
        rows = {row["name"]: row for row in recorder.to_dicts()}
        # record() never consults the thread stack: no parent unless
        # explicitly given
        assert rows["side"]["parent"] is None
        assert rows["side"]["dur_us"] == 5

    def test_thread_local_parent_stacks(self):
        recorder = make_recorder()
        seen = {}

        def other_thread():
            with recorder.span("thread-b") as span_id:
                seen["id"] = span_id

        with recorder.span("thread-a"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        rows = {row["name"]: row for row in recorder.to_dicts()}
        # the other thread's span must not adopt thread-a as a parent
        assert rows["thread-b"]["parent"] is None

    def test_maybe_span_noop_on_none(self):
        with maybe_span(None, "anything") as span_id:
            assert span_id is None
        recorder = make_recorder()
        with maybe_span(recorder, "real") as span_id:
            assert span_id is not None
        assert len(recorder) == 1


class TestMerge:
    def test_absorb_remaps_ids_and_preserves_internal_links(self):
        worker = make_recorder(origin="w-7")
        with worker.span("queue.run"):
            with worker.span("cell"):
                pass
        parent_side = make_recorder()
        merge_id = parent_side.start("queue.merge")
        parent_side.absorb(worker.to_dicts(), parent=merge_id)
        parent_side.finish(merge_id)
        rows = {row["name"]: row for row in parent_side.to_dicts()}
        assert rows["queue.run"]["parent"] == rows["queue.merge"]["id"]
        assert rows["cell"]["parent"] == rows["queue.run"]["id"]
        assert rows["cell"]["origin"] == "w-7"
        ids = [row["id"] for row in parent_side.to_dicts()]
        assert len(ids) == len(set(ids))

    def test_subtree_is_self_contained(self):
        recorder = make_recorder()
        with recorder.span("chunk"):
            with recorder.span("cell-a") as cell_a:
                with recorder.span("phase"):
                    pass
            with recorder.span("cell-b"):
                pass
        rows = recorder.subtree(cell_a)
        names = {row["name"] for row in rows}
        assert names == {"cell-a", "phase"}
        assert span_roots(rows)[0]["name"] == "cell-a"
        assert validate_span_rows(rows) == []

    def test_absorbed_document_validates(self):
        worker = make_recorder(origin="w-1")
        with worker.span("queue.run"):
            pass
        merged = make_recorder()
        merged.absorb(worker.to_dicts())
        assert validate_span_rows(merged.to_dicts()) == []


class TestValidation:
    def test_valid_document(self):
        recorder = make_recorder()
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        assert validate_span_rows(recorder.to_dicts()) == []

    @pytest.mark.parametrize("mutation,fragment", [
        (lambda rows: rows[1].update(id=rows[0]["id"]), "duplicate id"),
        (lambda rows: rows[1].update(parent=999), "not a previously seen"),
        (lambda rows: rows[0].update(t0_us=-1), "negative t0_us"),
        (lambda rows: rows[0].update(dur_us=-5), "negative dur_us"),
        (lambda rows: rows[0].pop("name"), "bad 'name'"),
        (lambda rows: rows[0].update(origin=7), "bad 'origin'"),
    ])
    def test_invalid_documents(self, mutation, fragment):
        recorder = make_recorder()
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        rows = recorder.to_dicts()
        mutation(rows)
        problems = validate_span_rows(rows)
        assert any(fragment in problem for problem in problems), problems

    def test_child_before_same_origin_parent_flagged(self):
        rows = [
            {"id": 0, "parent": None, "name": "p", "cat": "runner",
             "t0_us": 100, "dur_us": 10, "origin": "main"},
            {"id": 1, "parent": 0, "name": "c", "cat": "runner",
             "t0_us": 50, "dur_us": 5, "origin": "main"},
        ]
        assert any(
            "precedes its parent" in p for p in validate_span_rows(rows)
        )

    def test_cross_origin_child_may_precede_parent(self):
        # worker epochs differ from the parent's; no ordering claim holds
        rows = [
            {"id": 0, "parent": None, "name": "merge", "cat": "queue",
             "t0_us": 100, "dur_us": 10, "origin": "main"},
            {"id": 1, "parent": 0, "name": "run", "cat": "queue",
             "t0_us": 3, "dur_us": 5, "origin": "w-1"},
        ]
        assert validate_span_rows(rows) == []


class TestEngineAdvanceChildren:
    """``engine.advance`` and ``st.reference`` split into ``engine.warm``
    (cache warmup) and ``engine.loop`` (the scheduling loop) on both
    cell paths."""

    @staticmethod
    def _check(rows):
        by_id = {row["id"]: row for row in rows}
        for name in ("engine.advance", "st.reference"):
            assert any(row["name"] == name for row in rows), name
        advances = [
            row for row in rows
            if row["name"] in ("engine.advance", "st.reference")
        ]
        for advance in advances:
            children = {
                row["name"]: row for row in rows
                if row["parent"] == advance["id"]
            }
            assert set(children) == {"engine.warm", "engine.loop"}
            assert (children["engine.warm"]["dur_us"]
                    + children["engine.loop"]["dur_us"]
                    <= advance["dur_us"])
            assert by_id[advance["parent"]]["cat"] == "cell"

    def _cell(self):
        from repro.config import MachineConfig
        from repro.workloads.spec import build_program
        from repro.workloads.suite import by_name

        spec = by_name("blackscholes_small")
        return (spec, MachineConfig(n_cores=2),
                build_program(spec, 2, scale=0.05))

    def test_run_experiment(self):
        from repro.experiments.runner import run_experiment

        from repro.workloads.spec import build_program

        spec, machine, program = self._cell()
        st_program = build_program(spec, 1, scale=0.05)
        recorder = SpanRecorder()
        with recorder.span(f"{spec.full_name}:2", cat="cell"):
            run_experiment(spec.full_name, machine, program, st_program,
                           spans=recorder)
        self._check(recorder.to_dicts())

    def test_batch_runner(self):
        from repro.experiments.runner import BatchRunner, RunPolicy
        from repro.workloads.suite import by_name

        recorder = SpanRecorder()
        runner = BatchRunner(policy=RunPolicy(), scale=0.05, spans=recorder)
        runner.run_sweep([(by_name("blackscholes_small"), 2)])
        self._check(recorder.to_dicts())

    def test_spans_off_runs_the_engine_once(self, monkeypatch):
        from repro.experiments.runner import run_experiment
        from repro.sim.engine import Simulation

        calls = []
        real_run = Simulation.run

        def counting_run(self, *args, **kwargs):
            calls.append(kwargs.get("pause_at"))
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Simulation, "run", counting_run)
        spec, machine, program = self._cell()
        run_experiment(spec.full_name, machine, program)
        assert calls == [None]
