"""The fused op block's inline L1-hit path against the chip's methods.

``Simulation.run`` handles an L1 hit itself when the core has no miss in
flight (and, for a store, no peer sharer); everything else goes through
``Chip.load``/``store``/``compute``.  The reference is the same run with
``_l1_fast_path`` off, where every plain op calls the chip.  Both must
end in the same full ``state_dict()`` tree: caches in LRU order with
dirty bits and hit counters, the directory's sharers and word versions,
per-core stats, the miss windows and, when accounted, the accountant
with its spin-detector tables.

The programs use a tiny L1 (8 sets of 2 ways) and LLC, so hits, evictions,
DRAM misses with a window of outstanding misses, shared stores that
invalidate a peer's copy, repeated loads the Tian table marks, lock
spinning and, with more threads than cores, preemption all occur.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.accounting.accountant import CycleAccountant
from repro.config import CacheConfig, CoreConfig, MachineConfig, SchedConfig
from repro.osmodel.thread import FINISHED
from repro.session.kernel import SimulationKernel
from repro.session.session import Session
from repro.sim.engine import Simulation
from repro.workloads.program import (
    BarrierWait,
    Compute,
    Load,
    LockAcquire,
    LockRelease,
    Program,
    Store,
)
from repro.workloads.spec import BenchmarkSpec

LINE = 64
PRIVATE_BASE = 0x100_0000
SHARED_BASE = 0x800_0000
LOCK_DATA = 0x900_0000
PRIVATE_LINES = 6
SHARED_LINES = 3


class ReferenceSimulation(Simulation):
    """Every plain op through ``Chip.load``/``store``/``compute``."""

    _l1_fast_path = False


_ACTIONS = st.tuples(
    st.sampled_from([
        "compute", "load", "load", "store", "dependent_load",
        "shared_load", "shared_load", "shared_store", "shared_store", "cs",
    ]),
    st.integers(min_value=0, max_value=15),
)


def _op_stream(tid: int, actions, final_barrier: bool):
    private = PRIVATE_BASE + tid * 0x1_0000
    for action, index in actions:
        word = (index % 4) * 8
        pc = 0x2000 + (index % 3) * 4
        if action == "compute":
            yield Compute(1 + index * 7)
        elif action == "load":
            yield Load(private + (index % PRIVATE_LINES) * LINE + word, pc)
        elif action == "dependent_load":
            yield Load(private + (index % PRIVATE_LINES) * LINE, pc,
                       False, True)
        elif action == "store":
            yield Store(private + (index % PRIVATE_LINES) * LINE + word, pc)
        elif action == "shared_load":
            yield Load(SHARED_BASE + (index % SHARED_LINES) * LINE + word, pc)
        elif action == "shared_store":
            yield Store(SHARED_BASE + (index % SHARED_LINES) * LINE + word,
                        pc)
        else:
            lock = index % 2
            yield LockAcquire(lock)
            yield Compute(20)
            yield Store(LOCK_DATA + lock * LINE, 0x3000)
            yield LockRelease(lock)
    if final_barrier:
        yield BarrierWait(0)


@st.composite
def cases(draw):
    """``(machine, program factory)`` over small caches.  The L1 has
    room for a thread's working set, so most ops hit, but the sets of
    the shared and lock lines overflow, so some lines are evicted."""
    n_cores = draw(st.integers(min_value=1, max_value=4))
    n_threads = draw(st.integers(min_value=1, max_value=6))
    streams = [
        draw(st.lists(_ACTIONS, max_size=40)) for _ in range(n_threads)
    ]
    final_barrier = draw(st.booleans())
    warm = draw(st.booleans())
    machine = MachineConfig(
        n_cores=n_cores,
        core=CoreConfig(rob_size=draw(st.sampled_from([8, 128]))),
        l1d=CacheConfig(
            size_bytes=16 * LINE, assoc=2,
            replacement=draw(st.sampled_from(["lru", "fifo", "random"])),
            # an independent hit stalls 2 cycles or none
            hidden_latency=draw(st.sampled_from([0, 2])),
        ),
        llc=CacheConfig(
            size_bytes=64 * LINE, assoc=4, hit_latency=30, hidden_latency=30
        ),
        sched=SchedConfig(
            timeslice_cycles=draw(st.sampled_from([400, 100_000]))
        ),
    )

    def factory() -> Program:
        warmup = None
        if warm:
            warmup = [
                [SHARED_BASE + i * LINE for i in range(SHARED_LINES)]
                + [PRIVATE_BASE + tid * 0x1_0000 + i * LINE
                   for i in range(PRIVATE_LINES)]
                for tid in range(n_threads)
            ]
        return Program(
            "fast_path",
            [_op_stream(t, streams[t], final_barrier)
             for t in range(n_threads)],
            warmup=warmup,
        )

    return machine, factory


def _sim(cls, machine, factory, accounted: bool) -> Simulation:
    if accounted:
        return cls(machine, factory(), CycleAccountant(machine))
    return cls(machine, factory())


def _canon(sim: Simulation) -> str:
    return json.dumps(sim.state_dict(), sort_keys=True)


def _final(cls, machine, factory, accounted: bool) -> str:
    sim = _sim(cls, machine, factory, accounted)
    sim.run(max_cycles=10**8)
    return _canon(sim)


def _finished_cores(machine, factory):
    sim = Simulation(machine, factory())
    sim.run(max_cycles=10**8)
    return sim.cores


@settings(max_examples=80, deadline=None)
@given(cases(), st.booleans())
def test_inline_hits_match_the_chip_calls(case, accounted):
    machine, factory = case
    assert (_final(Simulation, machine, factory, accounted)
            == _final(ReferenceSimulation, machine, factory, accounted))


@settings(max_examples=30, deadline=None)
@given(cases(), st.floats(min_value=0.1, max_value=0.9),
       st.sampled_from(["tian", "li"]))
def test_spin_detector_swap_mid_run(case, fraction, detector):
    """A ``Session.swap("spin_detector")`` between steps reaches the
    detector the inline path feeds."""
    machine, factory = case
    end = max(core.now for core in _finished_cores(machine, factory))
    states = []
    for cls in (Simulation, ReferenceSimulation):
        kernel = SimulationKernel.from_simulation(
            _sim(cls, machine, factory, True), max_cycles=10**8
        )
        session = Session(kernel, BenchmarkSpec("fast_path"), 1.0)
        session.step(int(end * fraction))
        if not all(t.state == FINISHED for t in kernel.sim.threads):
            session.swap("spin_detector", detector)
        session.run()
        states.append(_canon(kernel.sim))
    assert states[0] == states[1]


@settings(max_examples=30, deadline=None)
@given(cases(), st.floats(min_value=0.1, max_value=0.9), st.booleans())
def test_json_checkpoint_restore(case, fraction, accounted):
    """A run paused on the inline path, saved to JSON and restored into
    a fresh simulation ends where the all-reference run ends."""
    machine, factory = case
    expected = _final(ReferenceSimulation, machine, factory, accounted)
    end = max(core.now for core in _finished_cores(machine, factory))
    paused = _sim(Simulation, machine, factory, accounted)
    paused.run(max_cycles=10**8, pause_at=int(end * fraction))
    saved = json.loads(json.dumps(paused.state_dict()))
    restored = _sim(Simulation, machine, factory, accounted)
    restored.load_state_dict(saved)
    restored.run(max_cycles=10**8)
    assert _canon(restored) == expected


def test_hits_skip_the_chip():
    """Once a blocking miss has brought the line in, loads, stores and
    compute ops on it never call the chip; the reference calls it for
    every op."""

    def stream():
        yield Load(PRIVATE_BASE, 0x2000, False, True)
        for i in range(50):
            yield Load(PRIVATE_BASE + (i % 8) * 8, 0x2000)
            yield Store(PRIVATE_BASE + (i % 8) * 8, 0x2004)
            yield Compute(10)

    machine = MachineConfig(n_cores=1)
    calls = {}
    for cls in (Simulation, ReferenceSimulation):
        sim = cls(machine, Program("hits", [stream()]),
                  CycleAccountant(machine))
        chip = sim.chip
        counted = []
        for name in ("load", "store", "compute"):
            real = getattr(chip, name)

            def wrapper(*args, _real=real, **kwargs):
                counted.append(1)
                return _real(*args, **kwargs)

            setattr(chip, name, wrapper)
        sim.run()
        calls[cls] = len(counted)
        assert sim.chip.stats[0].l1_hits == 100
    assert calls == {Simulation: 1, ReferenceSimulation: 151}


def test_store_to_a_line_a_peer_holds_invalidates_it():
    """The writer's store finds the reader's copy in the directory, so
    it takes the chip path, which invalidates that copy."""

    def writer():
        yield Load(SHARED_BASE, 0x2000, False, True)
        yield Compute(2_000)
        yield Store(SHARED_BASE, 0x2004)

    def reader():
        yield Load(SHARED_BASE, 0x2000, False, True)
        yield Compute(400)

    machine = MachineConfig(n_cores=2)
    states = []
    for cls in (Simulation, ReferenceSimulation):
        sim = cls(machine, Program("peer", [writer(), reader()]))
        sim.run()
        assert sim.chip.directory.n_invalidations == 1
        assert not sim.chip.l1d[1].contains(SHARED_BASE // LINE)
        states.append(_canon(sim))
    assert states[0] == states[1]


def test_a_hit_promotes_the_line_under_lru():
    """A, B fill a 2-way set; a hit on A makes B the LRU victim of C."""
    a, b, c = (PRIVATE_BASE + k * 8 * LINE for k in range(3))

    def stream():
        for addr in (a, b, a, c):
            yield Load(addr, 0x2000, False, True)

    machine = MachineConfig(
        n_cores=1, l1d=CacheConfig(size_bytes=16 * LINE, assoc=2)
    )
    states = []
    for cls in (Simulation, ReferenceSimulation):
        sim = cls(machine, Program("lru", [stream()]))
        sim.run()
        assert sim.chip.l1d[0].lines_in_set(0) == [a // LINE, c // LINE]
        states.append(_canon(sim))
    assert states[0] == states[1]
