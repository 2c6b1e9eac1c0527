"""Queue worker: claim → run → complete, forever, and die gracefully.

A :class:`QueueWorker` attaches to a queue directory and loops:

1. claim a pending cell (single-winner rename), preferring the next
   cell of the benchmark it just ran so its warm runner's
   single-threaded reference memo hits;
2. start a renewal thread that extends the lease every TTL/3 and
   refreshes the worker's heartbeat file;
3. run the cell through the standard
   :class:`~repro.experiments.runner.BatchRunner` protocol — faults,
   retry-with-backoff, and crucially *checkpoint resume*: a cell
   reclaimed from a dead worker picks up that worker's config-hash-
   guarded checkpoint and continues from the saved cycle instead of
   cycle 0;
4. commit the terminal record with a fencing-token check — a worker
   whose lease expired mid-run (stalled heartbeat, long GC pause)
   discovers it here and discards its result; the new owner recomputes
   the byte-identical record.

Idle workers run the reclaimer, so a fleet of bare ``repro worker``
processes is self-sufficient: no parent needed for liveness, only for
the final journal merge.  ``repro sweep -j N`` forks its workers
straight into :func:`worker_main`; ``repro worker DIR`` runs the same
loop for an external fleet.  A worker exits 0 once every cell is terminal,
and :data:`~repro.robustness.drain.EXIT_DRAINED` when drained by
SIGTERM/SIGINT — mid-cell the engine checkpoints first (when
checkpointing is armed), then the lease is released with no expiry
penalty.

Chaos hooks (test-only, armed via environment variables, firing at
most once per queue thanks to the store's one-shot markers):

* ``REPRO_TEST_KILL_CELL=<key>`` — ``os._exit(17)`` at claim time,
  before any work: the reclaim path must recover a cell that never
  even started.
* ``REPRO_TEST_KILL_AFTER_SAVE=<key>`` — ``os._exit(29)`` right after
  the first periodic checkpoint save of that cell: the recovering
  worker *must* resume from a cycle > 0 (the acceptance criterion for
  mid-cell crash-resume).
* ``REPRO_TEST_STALL_HEARTBEAT=<key>`` — the renewal thread silently
  stops renewing while holding that cell, simulating a hung worker;
  the reclaimer takes the lease and the worker's completion loses the
  fencing-token check.
"""

from __future__ import annotations

import logging
import os
import sys
import threading
import time
from dataclasses import asdict

from repro.checkpoint import read_header
from repro.errors import CheckpointError
from repro.experiments.runner import BatchRunner, CELL_OK
from repro.observability.spans import SpanRecorder, maybe_span
from repro.queue.cells import CellSpec
from repro.queue.store import Lease, QueueStore
from repro.robustness.drain import (
    EXIT_DRAINED,
    DrainController,
    DrainRequested,
)

logger = logging.getLogger(__name__)

KILL_AT_CLAIM_ENV = "REPRO_TEST_KILL_CELL"
KILL_AFTER_SAVE_ENV = "REPRO_TEST_KILL_AFTER_SAVE"
STALL_HEARTBEAT_ENV = "REPRO_TEST_STALL_HEARTBEAT"

#: distinct exit codes for the chaos kills (assertable in tests)
KILL_AT_CLAIM_EXIT = 17
KILL_AFTER_SAVE_EXIT = 29


class _KillAfterSaveHook:
    """Checkpoint-hook wrapper that hard-kills the process right after
    the first successful periodic save (chaos hook)."""

    def __init__(self, inner) -> None:
        self.inner = inner

    @property
    def path(self):
        return self.inner.path

    @property
    def descriptor(self):
        return self.inner.descriptor

    @property
    def n_saves(self):
        return self.inner.n_saves

    @property
    def last_header(self):
        return self.inner.last_header

    def due(self, now: int) -> bool:
        return self.inner.due(now)

    def wants(self, reason: str) -> bool:
        return self.inner.wants(reason)

    def save(self, sim, reason: str):
        header = self.inner.save(sim, reason)
        if reason == "interval":
            os._exit(KILL_AFTER_SAVE_EXIT)
        return header


class _QueueRunner(BatchRunner):
    """BatchRunner with the kill-after-save chaos hook spliced into the
    cell's checkpoint chain (see module doc)."""

    kill_after_save_key: str | None = None

    def _cell_checkpoint(self, spec, n_threads, machine, fault_info, attempt):
        hook = super()._cell_checkpoint(
            spec, n_threads, machine, fault_info, attempt
        )
        key = f"{spec.full_name}:{n_threads}"
        if hook is not None and key == self.kill_after_save_key:
            return _KillAfterSaveHook(hook)
        return hook


class _LeaseRenewer(threading.Thread):
    """Renews one lease every TTL/3 until stopped (or told to stall).

    With ``spans`` attached each renewal is recorded retroactively —
    :meth:`SpanRecorder.record` is thread-safe, and retroactive rows
    keep the renewer's spans off the worker thread's parent stack.
    """

    def __init__(
        self, store: QueueStore, lease: Lease, stall: bool = False,
        spans: SpanRecorder | None = None,
    ) -> None:
        super().__init__(name=f"lease-renew-{lease.key}", daemon=True)
        self.store = store
        self.lease = lease
        self.stall = stall
        self.spans = spans
        self.lost = threading.Event()
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.store.lease_ttl_s)

    def run(self) -> None:
        interval = self.store.lease_ttl_s / 3.0
        while not self._halt.wait(interval):
            if self.stall:
                logger.warning(
                    "chaos: stalling heartbeat for %s", self.lease.key
                )
                return
            t0 = self.spans.now_us() if self.spans is not None else 0
            renewed = self.store.renew(self.lease)
            if self.spans is not None:
                self.spans.record(
                    "queue.lease_renew", "queue",
                    t0, self.spans.now_us() - t0,
                    key=self.lease.key, renewed=renewed,
                )
            if not renewed:
                logger.warning(
                    "lease on %s lost (reclaimed); result will be "
                    "discarded at completion", self.lease.key,
                )
                self.lost.set()
                return


def result_record(outcome, resumed_from_cycle: int | None = None) -> dict:
    """Reduce a :class:`~repro.experiments.runner.CellOutcome` to the
    terminal queue record (journal-shaped fields + extras)."""
    if outcome.status == CELL_OK:
        result = outcome.result
        record = {
            "status": "ok",
            "attempts": outcome.attempts,
            "total_cycles": result.mt_result.total_cycles,
            "truncated": result.mt_result.truncated,
        }
        if outcome.metrics is not None:
            record["metrics"] = outcome.metrics
        # extras, never merged into the journal: the whole stack in
        # field order (JSON round-trips its floats exactly, so the
        # driver rebuilds an equal SpeedupStack) and the Section 6
        # overhead proxy
        record["stack"] = asdict(result.stack)
        record["parallelization_overhead"] = (
            result.parallelization_overhead
        )
        if resumed_from_cycle is not None:
            record["resumed_from_cycle"] = resumed_from_cycle
        return record
    return {
        "status": "failed",
        "attempts": outcome.attempts,
        "error": outcome.error or "",
        "error_type": outcome.error_type or "",
        "snapshot": outcome.snapshot,
    }


class QueueWorker:
    """One worker process loop over a queue directory."""

    def __init__(
        self,
        store: QueueStore,
        worker_id: str | None = None,
        drain: DrainController | None = None,
        poll_s: float = 0.05,
        metrics=None,
    ) -> None:
        self.store = store
        if metrics is None and store.collect_metrics:
            # the parent sweep runs with a metrics registry: harvest
            # per-cell sim.* metrics here so the merged journal matches
            # a serial instrumented run byte for byte
            from repro.observability.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.drain = drain or DrainController()
        self.poll_s = poll_s
        self.metrics = metrics
        self.cells_run = 0
        #: warm runners, one per (scale, machine) — the policy is the
        #: queue's.  A runner memoizes the single-threaded reference of
        #: every benchmark it has run, so the cells of one benchmark
        #: share one ``Ts`` measurement here as in a serial sweep.
        #: Every key part is a frozen input: cells of different
        #: machines can never share warm state.
        self._runners: dict[tuple, _QueueRunner] = {}

    # -- cell execution -------------------------------------------------

    def _runner(self, cell: CellSpec) -> _QueueRunner:
        key = (cell.scale, cell.machine_json)
        runner = self._runners.get(key)
        if runner is None:
            machine = cell.machine
            runner = _QueueRunner(
                policy=self.store.policy,
                scale=cell.scale,
                machine_factory=(
                    machine.with_cores if machine is not None else None
                ),
                metrics=self.metrics,
                drain=self.drain,
            )
            self._runners[key] = runner
        return runner

    def _run_cell(
        self, lease: Lease, spans: SpanRecorder | None = None
    ) -> dict:
        cell = lease.cell
        runner = self._runner(cell)
        runner.kill_after_save_key = None
        if os.environ.get(KILL_AFTER_SAVE_ENV) == cell.key:
            if self.store.chaos_armed("kill-after-save", cell.key):
                runner.kill_after_save_key = cell.key
        if cell.fault is not None:
            runner.fault_plan = {cell.key: (cell.fault, cell.fault_seed)}
        else:
            runner.fault_plan = {}
        resumed_from = None
        original_try_resume = runner._try_resume

        def _noting_try_resume(hook, spec):
            nonlocal resumed_from
            sim = original_try_resume(hook, spec)
            if sim is not None:
                try:
                    resumed_from = read_header(hook.path)["cycle"]
                except (CheckpointError, OSError, KeyError):
                    resumed_from = None
            return sim

        runner._try_resume = _noting_try_resume
        # the cell's own spans (trace.decode, engine.advance, ...) nest
        # under queue.run via the runner's thread-local span stack;
        # runner.spans is re-pointed per cell, outside the runner key
        runner.spans = spans
        try:
            with maybe_span(spans, "queue.run", cat="queue", key=cell.key):
                outcome = runner.run_cell(cell.spec, cell.n_threads)
        finally:
            runner.spans = None
            runner._try_resume = original_try_resume
        return result_record(outcome, resumed_from_cycle=resumed_from)

    # -- the loop -------------------------------------------------------

    def _heartbeat(self, key: str | None) -> None:
        try:
            self.store.write_worker_heartbeat(self.worker_id, {
                "worker": self.worker_id,
                "pid": os.getpid(),
                "timestamp": time.time(),
                "current_cell": key,
                "cells_run": self.cells_run,
            })
        except OSError:
            logger.debug("worker heartbeat write failed", exc_info=True)

    def run(self, run_reclaimer: bool = True) -> int:
        """Work until the queue is fully terminal (0) or a drain signal
        arrives (:data:`EXIT_DRAINED`)."""
        store = self.store
        logger.info(
            "worker %s attached to %s (%d cells, TTL %.1fs)",
            self.worker_id, store.root, len(store.order),
            store.lease_ttl_s,
        )
        last_key = None
        while True:
            if self.drain.requested:
                self._heartbeat(None)
                return EXIT_DRAINED
            # per-cell recorder, created before claim so the claim span
            # can be recorded retroactively once the winner is known;
            # discarded when the claim comes back empty
            recorder = (
                SpanRecorder(origin=self.worker_id)
                if store.collect_spans else None
            )
            t_claim = recorder.now_us() if recorder is not None else 0
            lease = store.claim(self.worker_id, after=last_key)
            if lease is None:
                recorder = None
                if run_reclaimer:
                    store.reclaim_expired()
                if store.all_terminal():
                    self._heartbeat(None)
                    logger.info(
                        "worker %s: queue drained (%d cells run here)",
                        self.worker_id, self.cells_run,
                    )
                    return 0
                self.drain.wait(self.poll_s)
                continue
            if recorder is not None:
                recorder.record(
                    "queue.claim", "queue",
                    t_claim, recorder.now_us() - t_claim, key=lease.key,
                )
            if os.environ.get(KILL_AT_CLAIM_ENV) == lease.key:
                if store.chaos_armed("kill-at-claim", lease.key):
                    os._exit(KILL_AT_CLAIM_EXIT)
            self._heartbeat(lease.key)
            stall = os.environ.get(STALL_HEARTBEAT_ENV) == lease.key and (
                store.chaos_armed("stall-heartbeat", lease.key)
            )
            renewer = _LeaseRenewer(store, lease, stall=stall, spans=recorder)
            renewer.start()
            try:
                record = self._run_cell(lease, spans=recorder)
            except DrainRequested as exc:
                renewer.stop()
                released = store.release(lease)
                logger.warning(
                    "worker %s drained (%s) mid-cell %s: lease %s%s",
                    self.worker_id, exc.reason, lease.key,
                    "released" if released else "already lost",
                    ", checkpoint saved" if exc.saved else "",
                )
                self._heartbeat(None)
                return EXIT_DRAINED
            renewer.stop()
            if recorder is not None:
                # attached after the renewer stops so late lease-renew
                # rows are included; the driver's merge absorbs this key
                # and never journals it (spans are wall-clock)
                record["spans"] = recorder.to_dicts()
            self.cells_run += 1
            last_key = lease.key
            if not store.complete(lease, record):
                logger.warning(
                    "worker %s: lost lease on %s before completion; "
                    "discarding result (new owner recomputes it)",
                    self.worker_id, lease.key,
                )
            self._heartbeat(None)


def run_worker(
    queue_dir: str,
    worker_id: str | None = None,
    drain: DrainController | None = None,
    poll_s: float = 0.05,
) -> int:
    """Entry point behind ``repro worker <queue-dir>``."""
    store = QueueStore(queue_dir)
    worker = QueueWorker(
        store, worker_id=worker_id, drain=drain, poll_s=poll_s
    )
    return worker.run()


def worker_main(queue_dir: str, worker_id: str) -> None:
    """Body of a worker process forked by ``repro sweep -j N``.

    A forked child inherits the parent's signal handlers, which would
    flag the *parent's* drain controller; the worker installs its own
    so SIGTERM/SIGINT drain this process.  Exits with
    :func:`run_worker`'s code.
    """
    drain = DrainController().install()
    sys.exit(run_worker(queue_dir, worker_id=worker_id, drain=drain))
