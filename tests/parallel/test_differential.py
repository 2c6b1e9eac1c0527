"""Differential tests: ``--jobs N`` sweeps must be indistinguishable from serial.

The contract of the sweep executor (:func:`repro.queue.run_queue_sweep`)
is *bit-for-bit* equivalence with the serial
:class:`~repro.experiments.runner.BatchRunner` path at any ``--jobs``
level and for any sweep: identical speedup-stack components (the Eq. 4
decomposition), identical Eq. 4 / Eq. 6 scalar metrics, and
byte-identical journal files — healthy, under injected faults, across
a worker kill, and across a poison cell + ``--resume`` cycle.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments.runner import BatchRunner, RunPolicy, SweepReport
from repro.queue import (
    POISON_CELL,
    CellSpec,
    QueueStore,
    cells_from_sweep,
    run_queue_sweep,
)
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

#: 8-cell sweep: four benchmarks at two thread counts, scaled down so
#: each full sweep stays in the single-second range
BENCHMARKS = ("cholesky", "blackscholes_small", "facesim_small",
              "swaptions_small")
THREADS = (2, 4)
SCALE = 0.2
POLICY = RunPolicy(on_error="skip", max_cycles=2_000_000)

FAULT_PLAN = {"cholesky:2": "deadlock", "blackscholes_small:2": "mem-spike"}

#: sweep lengths each differential is repeated under (prefixes of the
#: benchmark-major sweep): fewer cells than workers (idle workers must
#: exit cleanly), a prefix that cuts a benchmark's cells in half (its
#: ST reference is memoized by one worker only), six cells, and the
#: whole sweep
CELL_COUNTS = (1, 3, 6, None)


def _cells(n_cells=None):
    return sweep_cells(BENCHMARKS, THREADS)[:n_cells]


def _serial(journal_path, fault_plan=None, n_cells=None):
    runner = BatchRunner(
        policy=POLICY, scale=SCALE,
        journal=SweepJournal(str(journal_path)),
        fault_plan=dict(fault_plan or {}),
    )
    return runner.run_sweep(_cells(n_cells))


def _parallel(
    journal_path, jobs, fault_plan=None, resume=False, n_cells=None,
    **kwargs,
):
    return run_queue_sweep(
        cells_from_sweep(_cells(n_cells), scale=SCALE,
                         fault_kinds=dict(fault_plan or {})),
        workers=jobs,
        policy=POLICY,
        journal=SweepJournal(str(journal_path)),
        resume=resume,
        **kwargs,
    )


def _assert_equivalent(serial_report, parallel_report):
    """Every observable of every cell must match exactly (no tolerance:
    both sides are integer-cycle deterministic)."""
    assert (
        [(o.key, o.status) for o in serial_report.outcomes]
        == [(o.key, o.status) for o in parallel_report.outcomes]
    )
    for ser, par in zip(serial_report.outcomes, parallel_report.outcomes):
        if ser.status == "ok":
            s_res, p_res = ser.result, par.result
            # full Eq. 4 decomposition: SpeedupStack is a frozen
            # dataclass, == compares every component field
            assert s_res.stack == p_res.stack, ser.key
            assert s_res.stack.segments() == p_res.stack.segments()
            # Eq. 4 estimate and Eq. 6 estimation error
            assert s_res.stack.estimated_speedup == p_res.stack.estimated_speedup
            assert s_res.stack.actual_speedup == p_res.stack.actual_speedup
            assert s_res.stack.estimation_error == p_res.stack.estimation_error
            # Section 6 instruction-overhead proxy
            assert (s_res.parallelization_overhead
                    == p_res.parallelization_overhead), ser.key
        else:
            assert ser.error == par.error, ser.key
            assert ser.error_type == par.error_type, ser.key
            assert ser.attempts == par.attempts, ser.key


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    """Serial report and journal bytes per sweep length (memoized)."""
    runs = {}

    def run(n_cells=None):
        if n_cells not in runs:
            path = tmp_path_factory.mktemp("serial") / "journal.json"
            report = _serial(path, n_cells=n_cells)
            runs[n_cells] = (report, path.read_bytes())
        return runs[n_cells]

    return run


@pytest.mark.parametrize("n_cells", CELL_COUNTS)
@pytest.mark.parametrize("jobs", [2, 4])
def test_differential_healthy(serial_run, tmp_path, jobs, n_cells):
    serial_report, serial_journal = serial_run(n_cells)
    journal = tmp_path / "journal.json"
    parallel_report = _parallel(journal, jobs=jobs, n_cells=n_cells)
    _assert_equivalent(serial_report, parallel_report)
    assert journal.read_bytes() == serial_journal


@pytest.mark.parametrize("n_cells", CELL_COUNTS)
def test_differential_with_faults(tmp_path, n_cells):
    """Fault-injected cells fail identically in both execution modes,
    and the healthy cells around them are untouched — a fault must not
    leak into the other cells a worker runs on its warm runner."""
    s_journal = tmp_path / "serial.json"
    p_journal = tmp_path / "parallel.json"
    serial_report = _serial(s_journal, fault_plan=FAULT_PLAN, n_cells=n_cells)
    parallel_report = _parallel(
        p_journal, jobs=2, fault_plan=FAULT_PLAN, n_cells=n_cells
    )
    assert [o.key for o in serial_report.failures] == ["cholesky:2"]
    assert serial_report.failures[0].error_type == "DeadlockError"
    # mem-spike degrades but does not fail the cell
    if len(serial_report.outcomes) > 2:
        assert {o.key for o in serial_report.completed} >= {
            "blackscholes_small:2"
        }
    _assert_equivalent(serial_report, parallel_report)
    assert p_journal.read_bytes() == s_journal.read_bytes()


def test_worker_kill_is_reclaimed_at_once(serial_run, tmp_path, monkeypatch):
    """A worker that dies mid-sweep gives its cell back at once: with
    the default 30 s lease TTL the sweep still finishes in seconds, and
    the re-run cell leaves the journal byte-identical to serial."""
    serial_report, serial_journal = serial_run()
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", "facesim_small:4")
    journal = tmp_path / "journal.json"
    start = time.monotonic()
    report = _parallel(journal, jobs=2)
    assert time.monotonic() - start < 20.0  # well inside one 30 s TTL
    _assert_equivalent(serial_report, report)
    assert journal.read_bytes() == serial_journal


def test_poison_cell_quarantined(tmp_path, monkeypatch):
    """A cell that kills every worker that claims it is quarantined as
    a poison cell after ``poison_after`` lease expiries, and the rest of
    the sweep completes around it."""
    victim = "blackscholes_small:2"
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", victim)
    # re-arm the one-shot kill hook for every claim (forked workers
    # inherit the patch)
    monkeypatch.setattr(QueueStore, "chaos_armed", lambda *args: True)
    report = _parallel(tmp_path / "journal.json", jobs=2, n_cells=4)
    [failure] = report.failures
    assert failure.key == victim
    assert failure.error_type == POISON_CELL
    assert failure.attempts == 3  # the default poison_after
    assert len(report.completed) == 3


def test_worker_kill_then_resume(serial_run, tmp_path, monkeypatch):
    """A cell quarantined by a worker death fails exactly that cell;
    ``--resume`` re-runs only that cell and converges on the serial
    journal bytes."""
    serial_report, serial_journal = serial_run()
    journal = tmp_path / "journal.json"
    victim = "facesim_small:4"
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", victim)
    # one death quarantines the cell
    crashed = _parallel(journal, jobs=2, poison_after=1)
    assert [o.key for o in crashed.failures] == [victim]
    assert crashed.failures[0].error_type == POISON_CELL
    entry = json.loads(journal.read_text())["cells"][victim]
    assert entry["status"] == "failed"
    assert entry["error_type"] == POISON_CELL
    # every non-victim cell survived the worker death
    assert len(crashed.completed) == len(serial_report.outcomes) - 1

    monkeypatch.delenv("REPRO_TEST_KILL_CELL")
    resumed = _parallel(journal, jobs=2, resume=True)
    statuses = {o.key: o.status for o in resumed.outcomes}
    assert statuses.pop(victim) == "ok"
    assert set(statuses.values()) == {"resumed"}
    _assert_equivalent(
        serial_report,
        # splice the resumed victim into the crash run's ok cells for a
        # full-sweep comparison
        _spliced(crashed, resumed, victim),
    )
    # journal dict order is insertion order and record_ok overwrites the
    # victim's entry in place, so the bytes converge on serial's exactly
    assert journal.read_bytes() == serial_journal


def _spliced(crashed, resumed, victim):
    """Crash-run report with the victim's outcome replaced by its
    resumed re-run (same shape as one clean sweep)."""
    fixed = {o.key: o for o in resumed.outcomes if o.status == "ok"}
    report = SweepReport()
    for outcome in crashed.outcomes:
        report.outcomes.append(fixed.get(outcome.key, outcome))
    return report


def test_cellspec_rejects_unknown_fault():
    spec, n_threads = _cells()[0]
    with pytest.raises(ValueError, match="unknown fault kind"):
        CellSpec(spec=spec, n_threads=n_threads, fault="gamma-ray")


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="workers"):
        run_queue_sweep([], workers=0)
