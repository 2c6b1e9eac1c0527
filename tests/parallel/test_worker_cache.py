"""Warm-worker cache correctness and crash recovery of completed cells.

A queue worker keeps one warm runner per (scale, machine) — with its
single-threaded reference memo — across every cell it claims.  That
only earns its keep if it is *invisible*: a worker that has already
run other benchmarks and other machines must produce exactly the
record a cold worker produces.  These tests run warm/cold
differentials in-process on :class:`~repro.queue.QueueWorker`, then
kill a worker mid-sweep: cells it completed before dying stay done
(journaled, never re-executed), and only the victim is lost.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.experiments.runner import BatchRunner, RunPolicy
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import SpanRecorder
from repro.queue import (
    POISON_CELL,
    Lease,
    QueueStore,
    QueueWorker,
    cells_from_sweep,
    run_queue_sweep,
)
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

POLICY = RunPolicy(on_error="skip", max_cycles=2_000_000)
SCALE = 0.2

#: an LLC half the default size: different stacks, so cross-machine
#: cache bleed would be loud
SMALL_LLC = MachineConfig().with_llc_size(1024 * 1024)


def _worker(tmp_path, cells) -> QueueWorker:
    root = tmp_path / f"q{len(list(tmp_path.iterdir()))}"
    return QueueWorker(QueueStore.create(root, cells, POLICY))


def _run(worker: QueueWorker, cell) -> dict:
    """One cell through the worker's execution path (its warm runner)."""
    lease = Lease(key=cell.key, cell=cell, worker="w", token=1, deadline=0.0)
    return worker._run_cell(lease)


def _cold_run(tmp_path, cell) -> dict:
    return _run(_worker(tmp_path, [cell]), cell)


def test_warm_worker_mixed_benchmarks_match_cold(tmp_path):
    """A worker that has run other benchmarks produces byte-identical
    records for the next one: the ST-reference memo and trace decode it
    warmed up must key on the benchmark, not leak across it."""
    cells = cells_from_sweep(
        sweep_cells(("cholesky", "blackscholes_small"), (2, 4)),
        scale=SCALE,
    )
    cold = [_cold_run(tmp_path, cell) for cell in cells]
    worker = _worker(tmp_path, cells)
    warm = [_run(worker, cell) for cell in cells]
    assert warm == cold
    # the warm pass really did share one runner across all four cells
    assert len(worker._runners) == 1


def test_warm_worker_mixed_machines_match_cold(tmp_path):
    """Two machines interleaved through one worker stay isolated: the
    runner cache keys on machine_json, so the small-LLC cell can never
    see the default machine's warm cache arrays (or vice versa)."""
    sweep = sweep_cells(("cholesky",), (2,))
    default_cell = cells_from_sweep(sweep, scale=SCALE)[0]
    small_cell = cells_from_sweep(sweep, scale=SCALE, machine=SMALL_LLC)[0]
    cold_default = _cold_run(tmp_path, default_cell)
    cold_small = _cold_run(tmp_path, small_cell)
    # a smaller LLC must actually change the result, or this test
    # could not detect bleed at all
    assert cold_small["stack"] != cold_default["stack"]
    worker = _worker(tmp_path, [default_cell])
    interleaved = [
        _run(worker, default_cell),
        _run(worker, small_cell),
        _run(worker, default_cell),
    ]
    assert interleaved[0] == cold_default
    assert interleaved[1] == cold_small
    assert interleaved[2] == cold_default
    assert len(worker._runners) == 2


def test_crash_mid_chunk_spills_completed_cells(tmp_path, monkeypatch):
    """Kill a worker in the middle of a sweep on two workers: every cell
    completed before the death stays done (journaled, not re-executed),
    only the victim fails, the cells behind it still finish, and a
    ``--resume`` run converges on the serial journal."""
    benchmarks = ("cholesky", "blackscholes_small", "facesim_small")
    sweep = sweep_cells(benchmarks, (2, 4))
    serial_journal = tmp_path / "serial.json"
    # both sides collect metrics (they become journal entries, so the
    # byte comparison needs them on the serial side too)
    serial_report = BatchRunner(
        policy=POLICY, scale=SCALE,
        journal=SweepJournal(str(serial_journal)),
        metrics=MetricsRegistry(),
    ).run_sweep(sweep)
    assert not serial_report.failures

    # sweep order is benchmark-major: the victim at index 3 has cells
    # on both sides of it
    victim = "blackscholes_small:4"
    assert [f"{s.full_name}:{n}" for s, n in sweep][3] == victim
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", victim)
    journal = tmp_path / "journal.json"
    metrics = MetricsRegistry()
    crashed = run_queue_sweep(
        cells_from_sweep(sweep, scale=SCALE),
        workers=2,
        policy=POLICY,
        journal=SweepJournal(str(journal)),
        metrics=metrics,
        poison_after=1,  # one death quarantines the victim
    )
    assert [o.key for o in crashed.failures] == [victim]
    assert crashed.failures[0].error_type == POISON_CELL
    assert len(crashed.completed) == len(sweep) - 1
    assert metrics.counter("runtime.cells_ok").value == len(sweep) - 1
    assert metrics.counter("runtime.worker_crashes").value == 1

    monkeypatch.delenv("REPRO_TEST_KILL_CELL")
    resumed = run_queue_sweep(
        cells_from_sweep(sweep, scale=SCALE),
        workers=2,
        policy=POLICY,
        journal=SweepJournal(str(journal)),
        resume=True,
        metrics=MetricsRegistry(),
    )
    statuses = {o.key: o.status for o in resumed.outcomes}
    assert statuses.pop(victim) == "ok"
    assert set(statuses.values()) == {"resumed"}
    assert journal.read_bytes() == serial_journal.read_bytes()


def test_spilled_cells_not_reexecuted(tmp_path, monkeypatch):
    """The over-retry regression: when the only worker dies on the last
    cell, the three cells it completed before dying are journaled with
    their original attempt counts — not re-run (which would also double
    any side effects)."""
    sweep = sweep_cells(("cholesky", "facesim_small"), (2, 4))
    victim = f"{sweep[-1][0].full_name}:{sweep[-1][1]}"
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", victim)
    metrics = MetricsRegistry()
    spans = SpanRecorder()
    report = run_queue_sweep(
        cells_from_sweep(sweep, scale=SCALE),
        workers=1,
        policy=POLICY,
        journal=SweepJournal(str(tmp_path / "journal.json")),
        metrics=metrics,
        spans=spans,
        poison_after=1,  # one death quarantines the victim
    )
    assert [o.key for o in report.failures] == [victim]
    assert report.failures[0].error_type == POISON_CELL
    assert metrics.counter("runtime.cells_ok").value == 3
    assert metrics.counter("runtime.worker_crashes").value == 1
    assert all(o.attempts == 1 for o in report.completed)
    # each survivor ran exactly once: one queue.run span per done cell
    runs = [
        row["args"]["key"] for row in spans.to_dicts()
        if row["name"] == "queue.run"
    ]
    assert sorted(runs) == sorted(o.key for o in report.completed)
