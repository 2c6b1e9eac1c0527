"""The per-thread cycle-accounting architecture (Section 4).

:class:`CycleAccountant` is the software model of the hardware the
paper proposes: per core, an auxiliary tag directory (ATD), an open row
array (ORA) and a spin-detection table, plus a handful of raw cycle and
event counters.  It receives only hardware-observable events from the
simulator through the hook interface, and afterwards the
:meth:`CycleAccountant.report` step performs the software-side
extrapolation (negative interference via the sampling factor) and
interpolation (positive interference via the average miss penalty).

The accounting is per *core*; speedup stacks are built for the pinned
one-thread-per-core configuration the paper evaluates, where core *i*
runs thread *i*.  Over-subscribed runs (more threads than cores, as in
Figure 7) report raw speedups only — the paper explicitly scopes
scheduling effects out ("this is out of the scope for this paper").
"""

from __future__ import annotations

from repro.accounting.atd import AuxiliaryTagDirectory
from repro.accounting.interface import INTER_THREAD_HIT, INTER_THREAD_MISS
from repro.observability.events import InterThreadAccess, SpinTruncated
from repro.accounting.ora import OpenRowArray
from repro.accounting.report import (
    AccountingReport,
    CoreRawCounters,
    ThreadComponents,
)
from repro.components.registry import resolve
from repro.config import MachineConfig
from repro.errors import CheckpointError, SimulationError
from repro.sim.memory import DramAccessResult


def _component_state(component, kind: str) -> dict:
    """``state_dict()`` of a registry-resolved component, or a clear
    error when a third-party component is not checkpointable."""
    state_fn = getattr(component, "state_dict", None)
    if state_fn is None:
        raise CheckpointError(
            f"{kind} component {type(component).__name__!r} does not "
            "implement state_dict()/load_state_dict() and cannot be "
            "checkpointed"
        )
    return state_fn()


class CycleAccountant:
    """Hardware cycle-component accounting for one simulated run."""

    enabled = True

    def __init__(self, machine: MachineConfig, bus=None) -> None:
        self.machine = machine
        #: optional observability EventBus; the accountant emits only
        #: sampled classifications and episode-level spin truncations —
        #: both far off the per-access hot path
        self.bus = bus
        config = machine.accounting
        n = machine.n_cores
        self.atds = [
            AuxiliaryTagDirectory(machine.llc, config.atd_sample_period)
            for _ in range(n)
        ]
        #: optional full-tag shadow ATDs (verification only — never used
        #: for the reported components)
        self.oracle_atds = (
            [AuxiliaryTagDirectory(machine.llc, 1) for _ in range(n)]
            if config.atd_shadow_oracle
            else None
        )
        self.oras = [OpenRowArray(machine.dram.n_banks) for _ in range(n)]
        #: one spin detector per core, built from the registered
        #: ``spin_detector`` factory; every detector receives both event
        #: streams (loads and backward branches) and uses the one its
        #: scheme needs
        detector_factory = resolve("spin_detector", config.spin_detector)
        self.spin_detectors = [detector_factory(config) for _ in range(n)]
        self._account_coherency = config.account_coherency

        self.llc_accesses = [0] * n
        self.llc_load_misses = [0] * n
        self.llc_load_miss_blocked_stall = [0] * n
        self.neg_llc_sampled_stall = [0] * n
        self.neg_mem_stall = [0] * n
        self.spin_truncated = [0] * n
        self.coherency_stall = [0] * n
        self.yield_cycles: dict[int, int] = {}

    # ------------------------------------------------------------------
    # hardware event hooks (called by the simulator)
    # ------------------------------------------------------------------

    def classify_llc_access(
        self,
        core_id: int,
        line_addr: int,
        set_index: int,
        shared_hit: bool,
        is_load: bool,
    ) -> str | None:
        self.llc_accesses[core_id] += 1
        if not shared_hit and is_load:
            self.llc_load_misses[core_id] += 1
        if self.oracle_atds is not None:
            self.oracle_atds[core_id].observe(
                line_addr, set_index, shared_hit, is_load
            )
        classification = self.atds[core_id].observe(
            line_addr, set_index, shared_hit, is_load
        )
        bus = self.bus
        if bus is not None and classification is not None:
            if classification == INTER_THREAD_MISS:
                bus.emit(InterThreadAccess(core_id, "miss"))
            elif classification == INTER_THREAD_HIT:
                bus.emit(InterThreadAccess(core_id, "hit"))
        return classification

    def warm_llc_access(self, core_id: int, line_addr: int, set_index: int) -> None:
        self.atds[core_id].warm(line_addr, set_index)
        if self.oracle_atds is not None:
            self.oracle_atds[core_id].warm(line_addr, set_index)

    def note_dram_access(self, core_id: int, dram_result: DramAccessResult) -> bool:
        return self.oras[core_id].observe(dram_result)

    def on_miss_blocked(
        self,
        core_id: int,
        blocked_cycles: int,
        classification: str | None,
        dram_result: DramAccessResult,
        is_load: bool,
        ora_conflict: bool = False,
    ) -> None:
        if is_load:
            self.llc_load_miss_blocked_stall[core_id] += blocked_cycles
        # Memory-subsystem interference (bus/bank waits caused by other
        # cores, ORA-attributed page conflicts) is measured for every
        # blocked miss, capped by the time the miss actually blocked.
        interference = dram_result.bus_wait_other + dram_result.bank_wait_other
        if ora_conflict:
            interference += dram_result.page_extra_cycles
        if interference > blocked_cycles:
            interference = blocked_cycles
        self.neg_mem_stall[core_id] += interference
        if classification == INTER_THREAD_MISS:
            # The rest of a sampled inter-thread miss's penalty — the
            # part not already attributed to the memory subsystem — is
            # negative LLC interference (extrapolated at report time).
            # Splitting avoids double-counting the same stall cycles in
            # both components.
            self.neg_llc_sampled_stall[core_id] += blocked_cycles - interference

    def on_retired_load(
        self,
        core_id: int,
        pc: int,
        addr: int,
        value_version: int,
        writer_core: int,
        now: int,
    ) -> None:
        self.spin_detectors[core_id].on_load(
            pc, addr, value_version, writer_core, now, core_id
        )

    def on_backward_branch(
        self, core_id: int, pc: int, state_signature: int, now: int
    ) -> None:
        self.spin_detectors[core_id].on_backward_branch(pc, state_signature, now)

    def on_coherency_miss(self, core_id: int, blocked_cycles: int) -> None:
        if self._account_coherency:
            self.coherency_stall[core_id] += blocked_cycles

    def on_spin_truncated(self, core_id: int, elapsed_cycles: int) -> None:
        self.spin_truncated[core_id] += elapsed_cycles
        if self.bus is not None:
            self.bus.emit(SpinTruncated(core_id, elapsed_cycles))

    def on_context_switch(self, core_id: int) -> None:
        self.spin_detectors[core_id].flush()

    def on_yield_interval(self, thread_id: int, t_out: int, t_in: int) -> None:
        self.yield_cycles[thread_id] = (
            self.yield_cycles.get(thread_id, 0) + (t_in - t_out)
        )

    # ------------------------------------------------------------------
    # checkpointing (Snapshotable)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """All accounting hardware state: ATD tag arrays, ORA rows, spin
        watch tables, and every cumulative counter."""
        state = {
            "atds": [atd.state_dict() for atd in self.atds],
            "oras": [ora.state_dict() for ora in self.oras],
            "spin_detectors": [
                _component_state(detector, "spin_detector")
                for detector in self.spin_detectors
            ],
            "llc_accesses": list(self.llc_accesses),
            "llc_load_misses": list(self.llc_load_misses),
            "llc_load_miss_blocked_stall": list(
                self.llc_load_miss_blocked_stall
            ),
            "neg_llc_sampled_stall": list(self.neg_llc_sampled_stall),
            "neg_mem_stall": list(self.neg_mem_stall),
            "spin_truncated": list(self.spin_truncated),
            "coherency_stall": list(self.coherency_stall),
            "yield_cycles": [
                [tid, cycles] for tid, cycles in self.yield_cycles.items()
            ],
        }
        if self.oracle_atds is not None:
            state["oracle_atds"] = [
                atd.state_dict() for atd in self.oracle_atds
            ]
        return state

    def load_state_dict(self, state: dict) -> None:
        for atd, atd_state in zip(self.atds, state["atds"]):
            atd.load_state_dict(atd_state)
        for ora, ora_state in zip(self.oras, state["oras"]):
            ora.load_state_dict(ora_state)
        for detector, detector_state in zip(
            self.spin_detectors, state["spin_detectors"]
        ):
            load_fn = getattr(detector, "load_state_dict", None)
            if load_fn is None:
                raise CheckpointError(
                    f"spin_detector component {type(detector).__name__!r} "
                    "does not implement load_state_dict()"
                )
            load_fn(detector_state)
        if self.oracle_atds is not None and "oracle_atds" in state:
            for atd, atd_state in zip(self.oracle_atds, state["oracle_atds"]):
                atd.load_state_dict(atd_state)
        self.llc_accesses = list(state["llc_accesses"])
        self.llc_load_misses = list(state["llc_load_misses"])
        self.llc_load_miss_blocked_stall = list(
            state["llc_load_miss_blocked_stall"]
        )
        self.neg_llc_sampled_stall = list(state["neg_llc_sampled_stall"])
        self.neg_mem_stall = list(state["neg_mem_stall"])
        self.spin_truncated = list(state["spin_truncated"])
        self.coherency_stall = list(state["coherency_stall"])
        self.yield_cycles = {
            tid: cycles for tid, cycles in state["yield_cycles"]
        }

    # ------------------------------------------------------------------
    # snapshots (region-based stacks, Section 4.6)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of all cumulative region counters.

        .. deprecated::
            This is the region-differencing *view* retained for the
            region-based stacks (Section 4.6); full state
            externalization lives in :meth:`state_dict`, which this is
            now a thin projection of.
        """
        return {
            "llc_accesses": list(self.llc_accesses),
            "llc_load_misses": list(self.llc_load_misses),
            "llc_load_miss_blocked_stall": list(
                self.llc_load_miss_blocked_stall
            ),
            "neg_llc_sampled_stall": list(self.neg_llc_sampled_stall),
            "neg_mem_stall": list(self.neg_mem_stall),
            "spin": [self.spin_cycles_of(c) for c in range(len(self.atds))],
            "yield": dict(self.yield_cycles),
            "inter_hits": [
                atd.n_sampled_load_inter_hits for atd in self.atds
            ],
            "coherency": list(self.coherency_stall),
        }

    # ------------------------------------------------------------------
    # software post-processing (Section 4.7)
    # ------------------------------------------------------------------

    def spin_cycles_of(self, core_id: int) -> int:
        detector = self.spin_detectors[core_id]
        return detector.spin_cycles + self.spin_truncated[core_id]

    def raw_counters(self, core_id: int) -> CoreRawCounters:
        atd = self.atds[core_id]
        detector = self.spin_detectors[core_id]
        return CoreRawCounters(
            core_id=core_id,
            sample_period=self.machine.accounting.atd_sample_period,
            llc_accesses=self.llc_accesses[core_id],
            llc_load_misses=self.llc_load_misses[core_id],
            llc_load_miss_blocked_stall=self.llc_load_miss_blocked_stall[core_id],
            sampled_accesses=atd.n_sampled_accesses,
            sampled_inter_thread_misses=atd.n_inter_thread_misses,
            sampled_inter_thread_hits=atd.n_inter_thread_hits,
            sampled_inter_miss_blocked_stall=self.neg_llc_sampled_stall[core_id],
            memory_interference_stall=self.neg_mem_stall[core_id],
            spin_detector_cycles=detector.spin_cycles,
            spin_truncated_cycles=self.spin_truncated[core_id],
            coherency_blocked_stall=self.coherency_stall[core_id],
            n_spin_episodes=getattr(detector, "n_episodes", 0),
            oracle_inter_thread_misses=(
                self.oracle_atds[core_id].n_inter_thread_misses
                if self.oracle_atds is not None
                else -1
            ),
            oracle_inter_thread_hits=(
                self.oracle_atds[core_id].n_inter_thread_hits
                if self.oracle_atds is not None
                else -1
            ),
        )

    def report(self, sim_result) -> AccountingReport:
        """Derive per-thread cycle components from the raw hardware
        counts plus the per-thread end times of the run."""
        n_threads = sim_result.n_threads
        if n_threads > self.machine.n_cores:
            raise SimulationError(
                "speedup-stack accounting requires one thread per core; "
                f"got {n_threads} threads on {self.machine.n_cores} cores"
            )
        tp = sim_result.total_cycles
        imbalance = sim_result.imbalance_cycles
        threads = []
        cores = []
        for tid in range(n_threads):
            core_id = tid  # pinned round-robin placement: thread i -> core i
            raw = self.raw_counters(core_id)
            cores.append(raw)
            factor = raw.sampling_factor
            negative_llc = raw.sampled_inter_miss_blocked_stall * factor
            positive_llc = (
                self.atds[core_id].n_sampled_load_inter_hits
                * factor
                * raw.avg_miss_penalty
            )
            components = ThreadComponents(
                thread_id=tid,
                negative_llc=negative_llc,
                negative_memory=float(raw.memory_interference_stall),
                positive_llc=positive_llc,
                spinning=float(self.spin_cycles_of(core_id)),
                yielding=float(self.yield_cycles.get(tid, 0)),
                imbalance=float(imbalance[tid]),
                coherency=float(raw.coherency_blocked_stall),
            )
            # A thread cannot lose more than the whole run to overheads;
            # scale down (extrapolation can overshoot on pathological
            # sampling) so the estimate stays physical.
            total = components.total_overhead
            if total > tp > 0:
                ratio = tp / total
                components.negative_llc *= ratio
                components.negative_memory *= ratio
                components.spinning *= ratio
                components.yielding *= ratio
                components.imbalance *= ratio
                components.coherency *= ratio
            threads.append(components)
        return AccountingReport(
            n_threads=n_threads,
            tp_cycles=tp,
            threads=threads,
            cores=cores,
            truncated=getattr(sim_result, "truncated", False),
        )
