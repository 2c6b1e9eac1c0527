"""Parity suite: the fused warmup kernel against the per-line loop.

:func:`repro.sim.warmup.fused_warmup` must leave the chip (L1s, LLC,
directory) and the accountant (ATDs) in exactly the state that one
:meth:`~repro.sim.cmp.Chip.warm_line` call per address leaves them in.
Every check compares the canonical JSON of the full ``state_dict``
trees, so one misplaced line, eviction count or sharer-order difference
fails.  Configurations the kernel does not model must be refused, with
nothing touched, and warmed by the per-line loop instead.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.accounting.accountant import CycleAccountant
from repro.accounting.interface import NULL_ACCOUNTANT
from repro.config import KB, AccountingConfig, CacheConfig, MachineConfig
from repro.sim.engine import Simulation
from repro.sim.warmup import fused_warmup
from repro.workloads.program import Compute, Program
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name

#: the golden-fixture scale
SCALE = 0.2
LINE = 64


def canon(state) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def small_machine(
    n_cores: int, replacement: str = "lru", **overrides
) -> MachineConfig:
    """A machine whose caches are small enough that a few hundred warm
    lines exercise LLC and L1 evictions, inclusive drops and ATD
    sampling (period 2: every other LLC set is sampled)."""
    return replace(
        MachineConfig(
            n_cores=n_cores,
            l1d=CacheConfig(size_bytes=512, assoc=2, replacement=replacement),
            llc=CacheConfig(
                size_bytes=4 * KB, assoc=4, replacement=replacement,
                hit_latency=30, hidden_latency=30,
            ),
            accounting=AccountingConfig(atd_sample_period=2),
        ),
        **overrides,
    )


def stream_program(warmup: list[list[int]]) -> Program:
    return Program(
        "warm", [iter([Compute(1)]) for _ in warmup], warmup=warmup
    )


def warmed_state(machine, program, *, fused: bool, accounted: bool = True):
    """Canonical chip + accountant state after one warmup path."""
    accountant = CycleAccountant(machine) if accounted else NULL_ACCOUNTANT
    sim = Simulation(machine, program, accountant)
    if fused:
        assert fused_warmup(sim.chip, accountant, program.warmup), (
            "the fused kernel refused a configuration it models"
        )
    else:
        sim._warm_per_line()
    return canon([
        sim.chip.state_dict(),
        accountant.state_dict() if accounted else None,
    ])


def assert_parity(machine, program, *, accounted: bool = True) -> None:
    assert warmed_state(
        machine, program, fused=True, accounted=accounted
    ) == warmed_state(machine, program, fused=False, accounted=accounted)


def conflict_streams(n_threads: int, n_lines: int = 200) -> list[list[int]]:
    """Per-thread streams mixing shared and private lines, all mapping
    onto few cache sets so the small machine thrashes."""
    streams = []
    for tid in range(n_threads):
        private = [(0x10_0000 * (tid + 1)) + i * LINE for i in range(n_lines)]
        shared = [0x800_0000 + (i * 7 % 96) * LINE for i in range(n_lines)]
        streams.append(
            [addr for pair in zip(shared, private) for addr in pair]
        )
    return streams


# ----------------------------------------------------------------------
# suite cells
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["cholesky", "fft", "canneal_medium"])
def test_suite_cell_parity(name):
    machine = MachineConfig(n_cores=4)
    program = build_program(by_name(name), 4, scale=SCALE)
    assert_parity(machine, program)


def test_full_state_tree_parity_on_suite_cell(monkeypatch):
    """Whole run, not just warmup: the complete serialized state tree
    (caches, directory, ATDs, detectors, threads, sync) after a
    cholesky:4 run is the same whichever path warmed the caches."""
    import repro.sim.engine as engine

    spec = by_name("cholesky")
    machine = MachineConfig(n_cores=4)

    def run() -> str:
        sim = Simulation(
            machine, build_program(spec, 4, scale=SCALE),
            CycleAccountant(machine),
        )
        sim.run(max_cycles=20_000_000, on_timeout="truncate")
        return canon(sim.state_dict())

    fused = run()
    monkeypatch.setattr(engine, "fused_warmup", lambda *args: False)
    assert run() == fused


# ----------------------------------------------------------------------
# stream shapes and replacement policies
# ----------------------------------------------------------------------


@pytest.mark.parametrize("replacement", ["lru", "fifo"])
@pytest.mark.parametrize("accounted", [True, False])
def test_policy_parity(replacement, accounted):
    machine = small_machine(4, replacement)
    program = stream_program(conflict_streams(4))
    assert_parity(machine, program, accounted=accounted)


def test_more_threads_than_cores():
    # threads 0, 3 and 6 share core 0: one L1 warmed by three streams
    machine = small_machine(3)
    program = stream_program(conflict_streams(7, n_lines=60))
    assert_parity(machine, program)


def test_uneven_and_empty_streams():
    streams = conflict_streams(5)
    streams[1] = []
    streams[2] = streams[2][:3]
    streams[4] = streams[4] * 2
    assert_parity(small_machine(5), stream_program(streams))


def test_all_streams_empty_is_a_no_op():
    machine = small_machine(2)
    program = stream_program([[], []])
    cold = canon([
        Simulation(machine, program, CycleAccountant(machine))
        .chip.state_dict()
    ])
    assert_parity(machine, program)
    sim = Simulation(machine, program, CycleAccountant(machine))
    sim._warm_caches()
    assert canon([sim.chip.state_dict()]) == cold


# ----------------------------------------------------------------------
# fallback configurations
# ----------------------------------------------------------------------

FALLBACKS = {
    "random": small_machine(4, "random"),
    "llc_quotas": small_machine(4, llc_quotas=(1, 1, 1, 1)),
    "atd_shadow_oracle": small_machine(
        4, accounting=AccountingConfig(
            atd_sample_period=2, atd_shadow_oracle=True,
        ),
    ),
}


@pytest.mark.parametrize("config", sorted(FALLBACKS))
def test_fallback_configs_use_the_per_line_loop(config):
    machine = FALLBACKS[config]
    program = stream_program(conflict_streams(4))
    accountant = CycleAccountant(machine)
    sim = Simulation(machine, program, accountant)
    cold = canon([sim.chip.state_dict(), accountant.state_dict()])
    assert not fused_warmup(sim.chip, accountant, program.warmup)
    assert canon([sim.chip.state_dict(), accountant.state_dict()]) == cold
    # the engine's warmup still matches the per-line reference
    sim._warm_caches()
    assert canon(
        [sim.chip.state_dict(), accountant.state_dict()]
    ) == warmed_state(machine, program, fused=False)


@pytest.mark.parametrize("touch", ["warm_line", "llc_fill"])
def test_warm_chip_is_refused(touch):
    machine = small_machine(2)
    program = stream_program(conflict_streams(2))
    accountant = CycleAccountant(machine)
    sim = Simulation(machine, program, accountant)
    if touch == "warm_line":
        sim.chip.warm_line(0, 0x40)
    else:  # an LLC line with no L1 copy: the directory stays empty
        sim.chip.llc.fill(0x40 >> 6)
    assert not fused_warmup(sim.chip, accountant, program.warmup)


# ----------------------------------------------------------------------
# property: random address streams
# ----------------------------------------------------------------------


@st.composite
def warm_cases(draw):
    n_cores = draw(st.integers(1, 4))
    n_threads = draw(st.integers(1, 6))
    # a small line pool: many hits, cross-thread sharing and conflicts
    pool = draw(st.integers(4, 160))
    streams = draw(st.lists(
        st.lists(st.integers(0, pool - 1), max_size=120),
        min_size=n_threads, max_size=n_threads,
    ))
    replacement = draw(st.sampled_from(["lru", "fifo"]))
    accounted = draw(st.booleans())
    warmup = [[line * LINE for line in stream] for stream in streams]
    return small_machine(n_cores, replacement), warmup, accounted


@settings(max_examples=60, deadline=None)
@given(warm_cases())
def test_random_streams_parity(case):
    machine, warmup, accounted = case
    assert_parity(machine, stream_program(warmup), accounted=accounted)
