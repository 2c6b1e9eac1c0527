"""Queue sweep driver: start workers, watch the queue, merge the journal.

The parent process behind ``repro sweep -j N`` (and ``--queue-dir``):

1. create (or, with ``--resume``, attach to) the
   :class:`~repro.queue.store.QueueStore`, enqueueing every cell the
   journal does not already record as ok — without ``queue_dir`` the
   queue is private: a temporary directory removed after the merge;
2. start ``workers`` worker processes running
   :func:`~repro.queue.worker.worker_main` — and respawn any that die,
   within a budget, emitting
   :class:`~repro.observability.events.WorkerCrashed`.  A worker that
   dies expires its lease at once (one expiry), so its cell is
   requeued without waiting out the TTL; a cell that kills every
   worker it meets is quarantined after ``poison_after`` expiries;
3. run the reclaimer and translate queue state transitions into the
   standard sweep event stream (``CellStarted`` / ``CellFinished`` /
   ``LeaseExpired`` / ``CellRequeued`` / ``CellQuarantined``) and
   ``runtime.*`` metrics, so ``--progress`` / ``--heartbeat`` work
   unchanged;
4. once every cell is terminal, merge the results into the
   :class:`~repro.robustness.journal.SweepJournal` **in canonical
   (manifest) order** — the journal file is byte-identical to a serial
   sweep's no matter how many workers ran, died, or stalled, because
   cells are deterministic and journal fields come from the same
   in-cell values serial writes.

A drain signal (SIGINT/SIGTERM via the attached
:class:`~repro.robustness.drain.DrainController`) forwards SIGTERM to
every worker, waits for them to drain (finish or checkpoint + release
their lease), merges what is terminal, and returns with
``report.interrupted`` — re-running with ``--resume`` finishes the
rest.
"""

from __future__ import annotations

import logging
import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.stack import SpeedupStack
from repro.errors import ConfigError, ExperimentError
from repro.experiments.runner import (
    CELL_FAILED,
    CELL_OK,
    CELL_RESUMED,
    CellOutcome,
    RunPolicy,
    SweepReport,
)
from repro.observability.events import (
    CellFinished,
    CellQuarantined,
    CellRequeued,
    CellStarted,
    LeaseExpired,
    SweepFinished,
    SweepStarted,
    WorkerCrashed,
    WorkerHeartbeat,
)
from repro.observability.spans import maybe_span
from repro.queue.cells import CellSpec
from repro.queue.store import (
    DONE,
    LEASED,
    MANIFEST_NAME,
    POISON_CELL,
    QUARANTINED,
    QueueStore,
    TERMINAL_STATES,
)
from repro.queue.worker import worker_main
from repro.robustness.journal import SweepJournal

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QueueCellResult:
    """What an ok outcome of a queue sweep carries: the cell's full
    speedup stack, rebuilt from its done record, and the Section 6
    overhead proxy (the same surface ``ExperimentResult`` offers the
    CLI and the differential tests)."""

    name: str
    n_threads: int
    stack: SpeedupStack
    parallelization_overhead: float | None


def _start_worker(queue_dir: Path, worker_id: str) -> multiprocessing.Process:
    """Start one worker with multiprocessing's default start method: on
    Linux a fork, so the worker begins with the parent's imports
    instead of a fresh interpreter (the driver starts no threads of its
    own, which keeps the fork safe; the target and its string arguments
    also suit a spawning start method).  Daemonic, so an abandoned
    driver never leaves workers behind."""
    proc = multiprocessing.Process(
        target=worker_main, args=(str(queue_dir), worker_id),
        name=f"repro-{worker_id}", daemon=True,
    )
    proc.start()
    return proc


class _WorkerFleet:
    """Spawn/respawn bookkeeping for the worker processes (anything
    with the :class:`multiprocessing.Process` surface)."""

    def __init__(self, queue_dir: Path, n: int, max_respawns: int, spawn):
        self.queue_dir = queue_dir
        self.spawn = spawn
        self.max_respawns = max_respawns
        self.respawns = 0
        self._next_index = 0
        self.procs: dict[str, multiprocessing.Process] = {}
        for _ in range(n):
            self._spawn()

    def _spawn(self) -> None:
        worker_id = f"w{self._next_index}"
        self._next_index += 1
        self.procs[worker_id] = self.spawn(self.queue_dir, worker_id)

    def reap_and_respawn(self) -> list[str]:
        """Collect dead workers; respawn crashed ones within budget.
        Returns the ids of the workers that crashed since last call."""
        crashed = []
        for worker_id, proc in list(self.procs.items()):
            code = proc.exitcode
            if code is None:
                continue
            del self.procs[worker_id]
            if code == 0:
                continue  # clean exit: queue fully terminal
            crashed.append(worker_id)
            logger.warning(
                "queue worker %s (pid %d) died with exit code %d",
                worker_id, proc.pid, code,
            )
            if self.respawns < self.max_respawns:
                self.respawns += 1
                self._spawn()
            else:
                logger.error(
                    "worker respawn budget (%d) exhausted", self.max_respawns
                )
        return crashed

    @property
    def any_alive(self) -> bool:
        return any(proc.exitcode is None for proc in self.procs.values())

    def stop(self, grace_s: float, settle_s: float = 0.0) -> None:
        """Give workers ``settle_s`` to exit on their own (an idle
        worker does once the queue is terminal), then SIGTERM the rest —
        a signalled worker drains: it finishes or checkpoints its cell
        and releases the lease — and kill any still alive after
        ``grace_s``."""
        deadline = time.monotonic() + settle_s
        for proc in self.procs.values():
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in self.procs.values():
            if proc.exitcode is None:
                proc.terminate()
        deadline = time.monotonic() + grace_s
        for worker_id, proc in self.procs.items():
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.exitcode is None:
                logger.warning(
                    "worker %s ignored SIGTERM; killing", worker_id
                )
                proc.kill()
                proc.join()


def run_queue_sweep(
    cells: list[CellSpec],
    workers: int,
    policy: RunPolicy | None = None,
    journal: SweepJournal | None = None,
    resume: bool = False,
    bus=None,
    metrics=None,
    spans=None,
    *,
    queue_dir: str | Path | None = None,
    lease_ttl_s: float = 30.0,
    poison_after: int = 3,
    poll_s: float = 0.1,
    drain=None,
    max_respawns: int | None = None,
    spawn=_start_worker,
) -> SweepReport:
    """Run a sweep on ``workers`` worker processes (see module doc).

    The multi-process counterpart of
    :meth:`~repro.experiments.runner.BatchRunner.run_sweep`: same resume
    semantics, same journal records (written by the parent, in
    canonical order), same :class:`SweepReport` shape — ok outcomes
    carry a :class:`QueueCellResult` instead of an
    ``ExperimentResult``.  Without ``queue_dir`` the sweep runs on a
    private queue in a temporary directory, removed after the merge;
    ``--resume`` then works from the journal alone.  ``spawn(queue_dir,
    worker_id)`` starts one worker (tests inject their own).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if queue_dir is None:
        with tempfile.TemporaryDirectory(
            prefix="repro-queue-", ignore_cleanup_errors=True,
        ) as private:
            return run_queue_sweep(
                cells, workers, policy, journal, resume, bus, metrics,
                spans, queue_dir=private, lease_ttl_s=lease_ttl_s,
                poison_after=poison_after, poll_s=poll_s, drain=drain,
                max_respawns=max_respawns, spawn=spawn,
            )
    policy = policy or RunPolicy()
    journal = journal or SweepJournal(None)
    queue_dir = Path(queue_dir)
    if max_respawns is None:
        max_respawns = 3 * workers

    resumed_keys = {
        cell.key for cell in cells
        if resume and journal.completed(cell.name, cell.n_threads)
    }
    live_cells = [cell for cell in cells if cell.key not in resumed_keys]

    if (queue_dir / MANIFEST_NAME).exists():
        if not resume:
            raise ConfigError(
                f"queue already exists at {queue_dir}; pass --resume to "
                "attach to it or choose a fresh --queue-dir"
            )
        store = QueueStore(queue_dir)
        expected = [cell.key for cell in live_cells]
        unknown = [key for key in store.order if key not in set(expected)]
        if unknown:
            raise ConfigError(
                f"queue at {queue_dir} holds cells not in this sweep: "
                f"{unknown[:5]}"
            )
    else:
        store = QueueStore.create(
            queue_dir, live_cells, policy,
            lease_ttl_s=lease_ttl_s,
            poison_after=poison_after,
            collect_metrics=metrics is not None,
            collect_spans=spans is not None,
        )

    if bus is not None:
        bus.emit(SweepStarted(len(cells), workers))
        for key in resumed_keys:
            bus.emit(CellFinished(key, CELL_RESUMED, 0))

    def merge(interrupted: bool) -> SweepReport:
        return _merge(
            store, cells, resumed_keys, journal,
            bus=bus, metrics=metrics, spans=spans,
            interrupted=interrupted, policy=policy,
        )

    interrupted = False
    if store.order and not store.all_terminal():
        try:
            interrupted = _supervise(
                store, workers, bus=bus, metrics=metrics,
                poll_s=poll_s, drain=drain, max_respawns=max_respawns,
                spawn=spawn,
            )
        except ExperimentError:
            merge(interrupted=True)  # journal what finished, then fail
            raise

    report = merge(interrupted)
    if bus is not None:
        bus.emit(SweepFinished(
            len(report.completed), len(report.failures),
            len(report.resumed),
        ))
    logger.info(
        "queue sweep done (%d workers): %d ok, %d resumed, %d failed%s",
        workers, len(report.completed), len(report.resumed),
        len(report.failures), " [interrupted]" if report.interrupted else "",
    )
    return report


def _supervise(
    store: QueueStore,
    workers: int,
    *,
    bus,
    metrics,
    poll_s: float,
    drain,
    max_respawns: int,
    spawn,
) -> bool:
    """Worker fleet + reclaimer + event translation until the queue is
    terminal (returns False) or a drain cuts it short (True)."""
    fleet = _WorkerFleet(store.root, workers, max_respawns, spawn)
    started: set[str] = set()
    finished: set[str] = set()
    heartbeats_seen: dict[str, float] = {}
    # a resumed queue's earlier reclaims were reported by their driver
    _, reclaim_offset = store.reclaims_since(0)
    grace_s = max(5.0, 2 * store.lease_ttl_s)
    try:
        while True:
            if drain is not None and drain.requested:
                logger.warning(
                    "drain: asking %d worker(s) to finish or checkpoint",
                    len(fleet.procs),
                )
                fleet.stop(grace_s)
                return True
            crashed = fleet.reap_and_respawn()
            suspects = []
            for worker_id in crashed:
                # a dead worker renews nothing: take its lease back now
                suspects += [
                    event.key
                    for event in store.reclaim_expired(worker=worker_id)
                ]
            store.reclaim_expired()
            events, reclaim_offset = store.reclaims_since(reclaim_offset)
            _emit_reclaims(events, bus, metrics)
            if crashed:
                if metrics is not None:
                    metrics.counter("runtime.worker_crashes").inc(
                        len(crashed)
                    )
                if bus is not None:
                    bus.emit(WorkerCrashed(tuple(suspects)))
            _emit_transitions(store, started, finished, bus)
            _emit_heartbeats(store, heartbeats_seen, bus)
            if store.all_terminal():
                fleet.stop(grace_s, settle_s=0.5)
                return False
            if not fleet.any_alive:
                raise ExperimentError(
                    "queue", 0,
                    "all queue workers died and the respawn budget "
                    f"({max_respawns}) is exhausted; "
                    f"{store.counts().terminal}/{len(store.order)} cells "
                    "terminal — re-run with --resume to continue",
                )
            if drain is not None:
                drain.wait(poll_s)
            else:
                time.sleep(poll_s)
    finally:
        fleet.stop(grace_s)


def _emit_reclaims(events, bus, metrics) -> None:
    for event in events:
        if metrics is not None:
            metrics.counter("runtime.lease_expiries").inc()
            if event.quarantined:
                metrics.counter("runtime.quarantined").inc()
            else:
                metrics.counter("runtime.requeues").inc()
        if bus is None:
            continue
        bus.emit(LeaseExpired(event.key, event.worker, event.expiries))
        if event.quarantined:
            bus.emit(CellQuarantined(event.key, event.expiries))
        else:
            bus.emit(CellRequeued(event.key, event.delay_s))


def _emit_heartbeats(store, seen: dict[str, float], bus) -> None:
    """Translate fresh worker heartbeat files into
    :class:`WorkerHeartbeat` events (one per new timestamp)."""
    if bus is None:
        return
    for worker, doc in store.worker_heartbeats().items():
        ts = doc.get("timestamp")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            continue
        if seen.get(worker) == ts:
            continue
        seen[worker] = ts
        bus.emit(WorkerHeartbeat(worker, ts, doc.get("current_cell")))


def _emit_transitions(store, started, finished, bus) -> None:
    if bus is None:
        return
    for key, state in store.states().items():
        if state == LEASED and key not in started:
            started.add(key)
            bus.emit(CellStarted(key, 1))
        elif state in TERMINAL_STATES and key not in finished:
            finished.add(key)
            started.add(key)
            status = CELL_OK if state == DONE else CELL_FAILED
            record = store.result(key) or {}
            bus.emit(CellFinished(
                key, status, record.get("attempts", 0)
            ))


def _merge(
    store: QueueStore,
    cells: list[CellSpec],
    resumed_keys: set[str],
    journal: SweepJournal,
    *,
    bus,
    metrics,
    spans=None,
    interrupted: bool,
    policy: RunPolicy,
) -> SweepReport:
    """Fold terminal queue records into the journal in canonical order.

    Journal fields come from the same in-cell values the serial runner
    writes (``attempts`` is in-cell retry attempts — infrastructure
    requeues never touch it), so the merged journal is byte-identical
    to a serial sweep's.  Worker span rows riding on the done records
    are absorbed into the parent recorder here (under one
    ``queue.merge`` span) and never journaled — spans are wall-clock.
    """
    merge_id = (
        spans.start("queue.merge", cat="queue") if spans is not None else None
    )
    try:
        return _merge_inner(
            store, cells, resumed_keys, journal,
            bus=bus, metrics=metrics, spans=spans, merge_id=merge_id,
            interrupted=interrupted, policy=policy,
        )
    finally:
        if spans is not None:
            spans.finish(merge_id)


def _merge_inner(
    store: QueueStore,
    cells: list[CellSpec],
    resumed_keys: set[str],
    journal: SweepJournal,
    *,
    bus,
    metrics,
    spans,
    merge_id,
    interrupted: bool,
    policy: RunPolicy,
) -> SweepReport:
    report = SweepReport(interrupted=interrupted)
    for cell in cells:
        key = cell.key
        if key in resumed_keys:
            report.outcomes.append(CellOutcome(
                name=cell.name,
                n_threads=cell.n_threads,
                status=CELL_RESUMED,
            ))
            continue
        record = store.result(key)
        if record is None:
            # non-terminal (drained mid-sweep): nothing to journal; a
            # --resume re-run picks the cell up from the queue
            report.interrupted = True
            continue
        if spans is not None and record.get("spans"):
            spans.absorb(record["spans"], parent=merge_id)
        if record.get("status") == "ok":
            with maybe_span(spans, "journal.write", cat="sweep"):
                journal.record_ok(
                    cell.name, cell.n_threads,
                    attempts=record["attempts"],
                    total_cycles=record["total_cycles"],
                    truncated=record["truncated"],
                    metrics=record.get("metrics"),
                )
            if metrics is not None:
                if record.get("metrics") is not None:
                    metrics.absorb(record["metrics"])
                metrics.counter("runtime.cells_ok").inc()
            report.outcomes.append(CellOutcome(
                name=cell.name,
                n_threads=cell.n_threads,
                status=CELL_OK,
                attempts=record["attempts"],
                result=QueueCellResult(
                    name=cell.name,
                    n_threads=cell.n_threads,
                    stack=SpeedupStack(**record["stack"]),
                    parallelization_overhead=record[
                        "parallelization_overhead"
                    ],
                ),
                metrics=record.get("metrics"),
            ))
        elif record.get("status") == QUARANTINED:
            error = (
                f"poison cell: {record['expiries']} lease expiries "
                f"(last worker {record.get('last_worker', 'unknown')})"
            )
            with maybe_span(spans, "journal.write", cat="sweep"):
                journal.record_failure(
                    cell.name, cell.n_threads,
                    attempts=record["expiries"],
                    error=error,
                    error_type=POISON_CELL,
                    snapshot=record.get("postmortem"),
                )
            if metrics is not None:
                metrics.counter("runtime.cells_failed").inc()
            report.outcomes.append(CellOutcome(
                name=cell.name,
                n_threads=cell.n_threads,
                status=CELL_FAILED,
                attempts=record["expiries"],
                error=error,
                error_type=POISON_CELL,
                snapshot=record.get("postmortem"),
            ))
        else:
            with maybe_span(spans, "journal.write", cat="sweep"):
                journal.record_failure(
                    cell.name, cell.n_threads,
                    attempts=record["attempts"],
                    error=record.get("error", ""),
                    error_type=record.get("error_type", ""),
                    snapshot=record.get("snapshot"),
                )
            if metrics is not None:
                metrics.counter("runtime.cells_failed").inc()
            report.outcomes.append(CellOutcome(
                name=cell.name,
                n_threads=cell.n_threads,
                status=CELL_FAILED,
                attempts=record["attempts"],
                error=record.get("error"),
                error_type=record.get("error_type"),
                snapshot=record.get("snapshot"),
            ))
    return report
