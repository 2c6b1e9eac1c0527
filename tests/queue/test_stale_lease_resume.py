"""Checkpoint resume under a stale lease (the PR's core guarantee).

Worker A claims a cell, checkpoints mid-run, and dies without
releasing its lease.  The reclaimer requeues the cell; worker B claims
it, finds A's config-hash-matched checkpoint on disk, and resumes from
A's last saved cycle — never from cycle 0 — producing a result
byte-identical to an uninterrupted serial run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.checkpoint import read_header
from repro.experiments.runner import BatchRunner, RunPolicy
from repro.queue import (
    DONE,
    LEASED,
    PENDING,
    QueueStore,
    QueueWorker,
    cells_from_sweep,
    run_queue_sweep,
)
from repro.queue.worker import KILL_AFTER_SAVE_EXIT
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

SRC = str(Path(__file__).resolve().parents[2] / "src")
SCALE = 0.2
CHECKPOINT_EVERY = 5_000


def _policy(tmp_path) -> RunPolicy:
    return RunPolicy(
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=CHECKPOINT_EVERY,
    )


def test_worker_b_resumes_worker_a_checkpoint(tmp_path):
    cells = cells_from_sweep(sweep_cells(("cholesky",), (4,)), scale=SCALE)
    store = QueueStore.create(
        tmp_path / "q", cells, _policy(tmp_path), lease_ttl_s=5.0,
    )

    # --- worker A: claims, saves at the first checkpoint interval,
    # dies on the spot (never releases, never completes) ---------------
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TEST_KILL_AFTER_SAVE"] = "cholesky:4"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "worker", str(tmp_path / "q"),
         "--worker-id", "wa"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == KILL_AFTER_SAVE_EXIT

    # A's corpse: a stale lease and a mid-run checkpoint
    assert store.state_of("cholesky:4") == LEASED
    ckpt = Path(store.policy.checkpoint_dir) / "cholesky_n4.ckpt"
    saved_cycle = read_header(ckpt)["cycle"]
    assert saved_cycle >= CHECKPOINT_EVERY

    # --- the reclaimer notices the expired lease and requeues ---------
    [event] = store.reclaim_expired(now=time.time() + 6.0)
    assert event.key == "cholesky:4" and event.worker == "wa"
    assert store.state_of("cholesky:4") == PENDING
    # collapse the requeue backoff so worker B claims immediately
    pending = tmp_path / "q" / "pending" / "cholesky@4.json"
    record = json.loads(pending.read_text())
    record["not_before"] = 0.0
    pending.write_text(json.dumps(record))

    # --- worker B: picks the cell up mid-flight -----------------------
    assert QueueWorker(store, worker_id="wb").run() == 0
    done = store.result("cholesky:4")
    assert done["status"] == "ok"
    # the proof it resumed A's run instead of starting over
    assert done["resumed_from_cycle"] == saved_cycle > 0

    # --- and the spliced A+B run is byte-identical to serial ----------
    serial = tmp_path / "serial.json"
    BatchRunner(
        policy=RunPolicy(), scale=SCALE,
        journal=SweepJournal(str(serial)),
    ).run_sweep(sweep_cells(("cholesky",), (4,)))
    queue_journal = tmp_path / "queue.json"
    report = run_queue_sweep(
        cells, workers=1, policy=store.policy,
        journal=SweepJournal(str(queue_journal)),
        resume=True, queue_dir=tmp_path / "q",
    )
    assert report.ok
    assert store.state_of("cholesky:4") == DONE
    assert queue_journal.read_bytes() == serial.read_bytes()
