"""The engine's incremental frontier against a brute-force scan.

The engine keeps a min-heap of core availabilities and re-keys only the
cores whose availability can change.  The oracle here is the plain
two-min scan over every core: the earliest available core (ties to the
lowest core id) and the runner-up time, which is the fast-forward
horizon.  After every scheduling event the engine must have stepped the
core the scan picked, with the horizon the scan computed.

The engine consults a checkpoint hook once per scheduling event, after
the step, so a stand-in hook observes every event without touching the
engine.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.accounting.accountant import CycleAccountant
from repro.config import MachineConfig, SchedConfig
from repro.errors import DeadlockError
from repro.sim.engine import Simulation
from repro.workloads.program import (
    BarrierWait,
    Compute,
    FutexWait,
    FutexWake,
    Load,
    LockAcquire,
    LockRelease,
    Program,
    Store,
    YieldCpu,
)

INF = float("inf")
FUTEX_ADDR = 0x7000_0000


def oracle_pick(cores):
    """The brute-force scan: ``(core, avail, horizon)``."""
    best = None
    best_time = second_time = INF
    for core in cores:
        if core.current is not None:
            avail = core.now
        elif core.queue:
            earliest = min(t.ready_time for t in core.queue)
            avail = earliest if earliest > core.now else core.now
        else:
            continue
        if avail < best_time:
            second_time = best_time
            best_time = avail
            best = core
        elif avail < second_time:
            second_time = avail
    return best, best_time, second_time


def _signature(core):
    # Every scheduling event advances the stepped core's clock, takes an
    # op or changes its running thread; a wakeup only touches queues.
    thread = core.current
    if thread is None:
        return core.now, None, None
    return core.now, thread.tid, thread.ops_taken


class FrontierOracle:
    """Checkpoint-hook stand-in that checks every scheduling event."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.events = 0
        self._expect()

    def _expect(self) -> None:
        self.expected = oracle_pick(self.sim.cores)
        self.before = [_signature(core) for core in self.sim.cores]

    def due(self, now: int) -> bool:
        best, _, horizon = self.expected
        changed = [
            core.core_id for core, before in zip(self.sim.cores, self.before)
            if _signature(core) != before
        ]
        assert best is not None
        assert changed == [best.core_id], (self.events, changed, best.core_id)
        assert self.sim._ff_limit == horizon, self.events
        self.events += 1
        self._expect()
        return False

    def wants(self, reason: str) -> bool:
        return False


_ACTION = st.sampled_from(
    ["compute", "load", "store", "cs", "barrier", "yield", "futex"]
)


@st.composite
def programs(draw):
    """Random programs over the events that move the frontier: more
    threads than cores, FIFO lock handoff, futex wait/wake, yields,
    preemption under a small timeslice, barriers, and streams that end
    right after a sync op (so the next block's first pull ends them)."""
    n_cores = draw(st.integers(min_value=1, max_value=4))
    n_threads = draw(st.integers(min_value=1, max_value=6))
    actions = draw(st.lists(_ACTION, min_size=0, max_size=10))
    compute_n = draw(st.integers(min_value=1, max_value=400))
    fifo = draw(st.booleans())
    timeslice = draw(st.sampled_from([300, 2_000, 100_000]))
    wake_all = draw(st.booleans())

    def body(tid: int):
        barrier_id = 0
        for index, action in enumerate(actions):
            if action == "compute":
                yield Compute(compute_n + 37 * tid)
            elif action == "load":
                yield Load(0x100_0000 + ((index + tid) % 8) * 64)
            elif action == "store":
                yield Store(0x200_0000 + (tid << 22) + index * 64)
            elif action == "cs":
                yield LockAcquire(index % 2)
                yield Compute(40)
                yield Store(0x9000_0000 + (index % 2) * 64)
                yield LockRelease(index % 2)
            elif action == "barrier":
                yield BarrierWait(barrier_id)
                barrier_id += 1
            elif action == "yield":
                yield YieldCpu()
            elif action == "futex":
                if tid == 0:
                    yield Compute(3_000)
                    yield FutexWake(FUTEX_ADDR + index, wake_all=wake_all)
                else:
                    yield FutexWait(FUTEX_ADDR + index)

    def factory() -> Program:
        return Program(
            "frontier", [body(t) for t in range(n_threads)],
            lock_fifo_handoff=fifo,
        )

    machine = MachineConfig(
        n_cores=n_cores, sched=SchedConfig(timeslice_cycles=timeslice)
    )
    return machine, factory


def _observed_run(machine, factory, fast_forward: bool) -> int:
    sim = Simulation(machine, factory(), fast_forward=fast_forward)
    oracle = FrontierOracle(sim)
    try:
        sim.run(max_cycles=10**8, checkpoint=oracle)
    except DeadlockError:
        # a lost futex wakeup: the scan must agree nothing is runnable
        assert oracle.expected[0] is None
    else:
        assert oracle.expected[0] is None  # every thread finished
    return oracle.events


@settings(max_examples=60, deadline=None)
@given(programs())
def test_frontier_matches_scan(case):
    machine, factory = case
    events_on = _observed_run(machine, factory, fast_forward=True)
    events_off = _observed_run(machine, factory, fast_forward=False)
    assert events_on <= events_off


def test_futex_wake_onto_idle_core_rekeys_it():
    """Thread 1 blocks, leaving core 1 idle with an empty queue (off the
    frontier); thread 0's wake must put core 1 back on it."""

    def waker():
        yield Compute(5_000)
        yield FutexWake(FUTEX_ADDR)
        yield Compute(5_000)

    def waiter():
        yield FutexWait(FUTEX_ADDR)
        yield Compute(100)

    machine = MachineConfig(n_cores=2)
    sim = Simulation(machine, Program("wake", [waker(), waiter()]))
    oracle = FrontierOracle(sim)
    result = sim.run(checkpoint=oracle)
    assert result.threads[1].n_yields == 1
    assert result.threads[1].instrs == 100
    assert oracle.events > 4


def test_stream_ending_as_first_op_of_a_block():
    """Empty bodies and bodies ending right after a sync op end on the
    first pull of a fused block."""

    def after_lock():
        yield LockAcquire(0)
        yield LockRelease(0)

    def empty():
        return
        yield  # pragma: no cover - makes this a generator

    machine = MachineConfig(n_cores=2)
    program = Program("ends", [after_lock(), empty(), after_lock()])
    sim = Simulation(machine, program)
    oracle = FrontierOracle(sim)
    result = sim.run(checkpoint=oracle)
    assert result.unfinished_tids == []
    assert [t.ops_taken for t in result.threads] == [2, 0, 2]


def _canon(state: dict) -> str:
    return json.dumps(state, sort_keys=True)


def _final_state(sim: Simulation, **run_args) -> str:
    try:
        sim.run(max_cycles=10**8, **run_args)
    except DeadlockError:
        pass
    return _canon(sim.state_dict())


def _accounted(machine, factory) -> Simulation:
    return Simulation(machine, factory(), CycleAccountant(machine))


@settings(max_examples=30, deadline=None)
@given(programs(), st.floats(min_value=0.05, max_value=0.95))
def test_pause_and_restore_end_in_same_state(case, fraction):
    """A mid-run pause, and a restore of the paused state into a fresh
    simulation, both end in the uninterrupted run's final state (the
    frontier is rebuilt on each run entry, never checkpointed)."""
    machine, factory = case
    reference = _accounted(machine, factory)
    expected = _final_state(reference)
    pause_at = int(max(core.now for core in reference.cores) * fraction)

    paused = _accounted(machine, factory)
    try:
        first = paused.run(max_cycles=10**8, pause_at=pause_at)
    except DeadlockError:
        assert _canon(paused.state_dict()) == expected
        return
    if not first.paused:
        assert _canon(paused.state_dict()) == expected
        return
    mid = json.loads(json.dumps(paused.state_dict()))
    assert _final_state(paused) == expected

    restored = _accounted(machine, factory)
    restored.load_state_dict(mid)
    assert _final_state(restored) == expected
