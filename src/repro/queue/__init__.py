"""The sweep executor: a durable filesystem work queue.

``repro sweep -j N`` runs its cells on N forked worker processes that
lease cells from a queue directory — a private temporary one, or a
shared ``--queue-dir`` that external ``repro worker`` processes may
join.  Workers lease cells under a TTL, renew through heartbeats,
crash-resume from the checkpoint files, and a reclaimer guarantees no
killed or hung worker ever strands a cell — all on atomic renames over
a directory, no external services.  See ``docs/distributed.md`` for
the queue layout, the lease state machine, and the failure matrix.

* :mod:`repro.queue.cells` — :class:`CellSpec`, the plain-data cell a
  manifest holds;
* :mod:`repro.queue.store` — :class:`QueueStore`, the on-disk state
  machine (pending → leased → done/failed/quarantined);
* :mod:`repro.queue.worker` — :class:`QueueWorker` /
  :func:`run_worker`, the worker process loop;
* :mod:`repro.queue.driver` — :func:`run_queue_sweep`, the parent that
  forks workers and merges the byte-identical journal.
"""

from repro.queue.cells import CellSpec, cells_from_sweep
from repro.queue.driver import QueueCellResult, run_queue_sweep
from repro.queue.store import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    POISON_CELL,
    QUARANTINED,
    Lease,
    QueueCounts,
    QueueStore,
    ReclaimEvent,
)
from repro.queue.worker import QueueWorker, result_record, run_worker

__all__ = [
    "DONE",
    "FAILED",
    "LEASED",
    "PENDING",
    "POISON_CELL",
    "QUARANTINED",
    "CellSpec",
    "Lease",
    "QueueCellResult",
    "QueueCounts",
    "QueueStore",
    "QueueWorker",
    "ReclaimEvent",
    "cells_from_sweep",
    "result_record",
    "run_queue_sweep",
    "run_worker",
]
