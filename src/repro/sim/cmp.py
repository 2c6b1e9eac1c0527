"""The simulated chip-multiprocessor memory system.

One :class:`Chip` owns the private L1 data caches, the shared
(non-inclusive) LLC, the coherence directory, main memory, and per-core
miss-overlap state.  The LLC is non-inclusive: evicting an LLC line
leaves L1 copies intact (the directory tracks them independently), and
an LLC miss that hits in a peer L1 is served by a cache-to-cache
transfer instead of DRAM — this avoids the inclusion-victim feedback
where streaming threads would wipe every core's hot L1 data through the
shared cache.  The execution engine calls :meth:`Chip.load`, :meth:`Chip.store`
and :meth:`Chip.compute` as the running thread's ops demand; each call
returns the number of cycles the core should advance (stall cycles; the
dispatch cost of instructions is charged by the engine itself).  Their
L1-hit case the engine runs inline, on the state
:meth:`Chip.l1_hit_path` exposes.

Out-of-order behaviour is captured with an interval model:

* cache hits whose latency fits the core's hiding capability cost no
  stall (the paper assumes "a balanced out-of-order processor core can
  hide (most) L1 data cache misses very well", Section 4.5);
* ``overlappable`` LLC misses do not stall immediately — they stay
  outstanding while the core keeps dispatching up to a ROB's worth of
  younger instructions (memory-level parallelism), and the pipeline
  drains when the ROB fills, a dependent operation arrives, or a
  synchronization boundary is reached;
* on a drain, each outstanding miss is charged the interval during
  which it blocked the ROB head (in-order retirement), which is the
  paper's accounting gate: "we only account interference cycles in case
  a miss blocks the ROB head and causes the ROB to fill up".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from repro.accounting.interface import NULL_ACCOUNTANT
from repro.config import MachineConfig
from repro.observability.events import MissBlocked
from repro.sim.cache import SetAssocCache
from repro.sim.coherence import CoherenceDirectory
from repro.sim.partition import WayPartitionedCache
from repro.sim.memory import DramAccessResult, MainMemory

#: Maximum outstanding misses per core (MSHR count).
MSHR_LIMIT = 8

#: Extra latency of a cache-to-cache transfer over an LLC hit.
C2C_EXTRA_LATENCY = 12


@dataclass
class CoreStats:
    """Raw per-core event counters."""

    instrs: int = 0
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    llc_load_misses: int = 0
    c2c_transfers: int = 0
    dram_accesses: int = 0
    stall_cycles: int = 0
    llc_load_miss_stall: int = 0
    coherency_misses: int = 0
    busy_cycles: int = 0


class _OutstandingMiss:
    __slots__ = ("end_time", "classification", "dram_result", "is_load",
                 "ora_conflict")

    def __init__(
        self,
        end_time: int,
        classification: str | None,
        dram_result: DramAccessResult,
        is_load: bool,
        ora_conflict: bool,
    ) -> None:
        self.end_time = end_time
        self.classification = classification
        self.dram_result = dram_result
        self.is_load = is_load
        self.ora_conflict = ora_conflict


class _CoreMemState:
    """Per-core in-flight miss window (interval-model MLP)."""

    __slots__ = ("outstanding", "insts_since_first")

    def __init__(self) -> None:
        self.outstanding: list[_OutstandingMiss] = []
        self.insts_since_first = 0


class L1HitPath(NamedTuple):
    """What :meth:`Chip.l1_hit_path` hands the engine; per-core lists
    are indexed by core id."""

    #: per core, the L1's list of sets (``line -> dirty``, LRU first)
    sets: list
    #: per core, the L1 itself (for its ``n_hits`` counter)
    caches: list
    line_shift: int
    set_mask: int
    #: the replacement policy moves a hit line to the MRU end
    promote: bool
    hit_latency: int
    #: the stall of an independent L1 hit
    hit_stall: int
    stats: list
    #: per core, the in-flight miss window (``.outstanding``)
    mem_state: list
    #: the directory's ``line -> sharer cores``
    sharers: dict
    #: the directory's ``word -> (version, writer)``
    word_versions: dict
    #: the accountant's per-core spin detectors (None when unaccounted)
    spin_detectors: list | None


class Chip:
    """Memory hierarchy shared by ``n_cores`` cores."""

    def __init__(
        self,
        machine: MachineConfig,
        accountant=NULL_ACCOUNTANT,
        bus=None,
    ) -> None:
        self.machine = machine
        self.accountant = accountant
        #: optional observability EventBus; consulted only on the
        #: blocked-miss path (never per access), and only constructs an
        #: event when a MissBlocked handler is actually subscribed
        self.bus = bus
        self.n_cores = machine.n_cores
        self.l1d = [SetAssocCache(machine.l1d) for _ in range(self.n_cores)]
        if machine.llc_quotas is not None:
            self.llc = WayPartitionedCache(machine.llc, machine.llc_quotas)
        else:
            self.llc = SetAssocCache(machine.llc)
        self.directory = CoherenceDirectory(self.n_cores)
        self.memory = MainMemory(machine.dram)
        self.stats = [CoreStats() for _ in range(self.n_cores)]
        self._mem_state = [_CoreMemState() for _ in range(self.n_cores)]
        self._l1_geometry = self.l1d[0].geometry
        self._llc_geometry = self.llc.geometry
        self._l1_line_shift = self._l1_geometry._line_shift
        self._llc_line_shift = self._llc_geometry._line_shift
        self._llc_set_mask = self._llc_geometry._set_mask
        self._l1_stall = max(0, machine.l1d.hit_latency - machine.l1d.hidden_latency)
        self._llc_stall = max(0, machine.llc.hit_latency - machine.llc.hidden_latency)

    # ------------------------------------------------------------------
    # public per-op entry points (called by the engine)
    # ------------------------------------------------------------------

    def compute(self, core_id: int, n_instrs: int, now: int) -> int:
        """Advance a compute chunk; may drain the miss window (ROB full)."""
        stats = self.stats[core_id]
        stats.instrs += n_instrs
        state = self._mem_state[core_id]
        stall = 0
        if state.outstanding:
            state.insts_since_first += n_instrs
            if state.insts_since_first >= self.machine.core.rob_size:
                stall = self._drain(core_id, now)
        return stall

    def load(
        self,
        core_id: int,
        addr: int,
        pc: int,
        now: int,
        *,
        overlappable: bool = True,
        dependent: bool = False,
    ) -> int:
        """Execute one load; returns stall cycles charged to the core."""
        stats = self.stats[core_id]
        stats.instrs += 1
        stats.loads += 1

        accountant = self.accountant
        if accountant.enabled:
            version, writer = self.directory.load_value(addr)
            accountant.on_retired_load(core_id, pc, addr, version, writer, now)

        line = addr >> self._l1_line_shift
        if self.l1d[core_id].lookup(line):
            stats.l1_hits += 1
            stall = self._track_inflight(core_id, 1, now)
            if dependent:
                stall += self.machine.l1d.hit_latency
            else:
                stall += self._l1_stall
            stats.stall_cycles += stall
            return stall
        stats.l1_misses += 1
        return self._miss(
            core_id, addr, line, now, is_load=True,
            overlappable=overlappable, dependent=dependent,
        )

    def store(self, core_id: int, addr: int, pc: int, now: int) -> int:
        """Execute one store; stores retire via the store buffer, so a
        store miss never stalls the core directly, but it occupies the
        miss window (it still holds a ROB slot) and memory resources."""
        stats = self.stats[core_id]
        stats.instrs += 1
        stats.stores += 1

        self.directory.record_store(addr, core_id)
        line = addr >> self._l1_line_shift
        victims = self.directory.write_invalidate(line, core_id)
        if victims:
            for victim_core in victims:
                self.l1d[victim_core].invalidate(line)

        if self.l1d[core_id].lookup(line):
            stats.l1_hits += 1
            self.l1d[core_id].mark_dirty(line)
            stall = self._track_inflight(core_id, 1, now)
            stats.stall_cycles += stall
            return stall
        stats.l1_misses += 1
        return self._miss(
            core_id, addr, line, now, is_load=False,
            overlappable=True, dependent=False,
        )

    def warm_line(self, core_id: int, addr: int) -> None:
        """Untimed warmup access: pre-fill the LLC, the core's L1 and the
        accounting ATD state without advancing time or counting events.

        Used to start measurement from a steady cache state, mirroring
        the paper's methodology of measuring only the parallel fraction
        (after the sequential initialization has populated the caches).
        """
        line = addr >> self._l1_line_shift
        directory = self.directory
        victim = self.llc.warm_fill(line, owner=core_id)
        if victim is not None:
            victim_line = victim[0]
            for victim_core in directory.drop_line(victim_line):
                self.l1d[victim_core].invalidate(victim_line)
        accountant = self.accountant
        if accountant.enabled:
            accountant.warm_llc_access(
                core_id, line,
                (addr >> self._llc_line_shift) & self._llc_set_mask,
            )
        l1_victim = self.l1d[core_id].fill(line)
        if l1_victim is not None:
            directory.remove_sharer(l1_victim[0], core_id)
        directory.add_sharer(line, core_id)

    def drain(self, core_id: int, now: int) -> int:
        """Force completion of all outstanding misses (sync boundary,
        context switch, or end of thread)."""
        return self._drain(core_id, now)

    def has_outstanding(self, core_id: int) -> bool:
        return bool(self._mem_state[core_id].outstanding)

    def l1_hit_path(self) -> L1HitPath:
        """The state the engine's inline L1-hit path reads and writes.

        The engine binds it once per ``run()`` and handles the hit case
        of :meth:`load`, :meth:`store` and :meth:`compute` itself when
        the core has no outstanding miss (and, for a store, no peer
        sharer), updating exactly what these methods would.  Every
        other case calls them.  The containers are live: rebind after
        :meth:`load_state_dict`, which replaces some of them.
        """
        accountant = self.accountant
        return L1HitPath(
            sets=[cache._sets for cache in self.l1d],
            caches=self.l1d,
            line_shift=self._l1_line_shift,
            set_mask=self.l1d[0]._set_mask,
            promote=self.l1d[0]._promote_on_hit,
            hit_latency=self.machine.l1d.hit_latency,
            hit_stall=self._l1_stall,
            stats=self.stats,
            mem_state=self._mem_state,
            sharers=self.directory._sharers,
            word_versions=self.directory._word_versions,
            spin_detectors=(
                accountant.spin_detectors if accountant.enabled else None
            ),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _track_inflight(self, core_id: int, n_instrs: int, now: int) -> int:
        """Charge ROB occupancy for an instruction executed while misses
        are outstanding; drains if the ROB fills."""
        state = self._mem_state[core_id]
        if not state.outstanding:
            return 0
        state.insts_since_first += n_instrs
        if state.insts_since_first >= self.machine.core.rob_size:
            return self._drain(core_id, now)
        return 0

    def _miss(
        self,
        core_id: int,
        addr: int,
        line: int,
        now: int,
        *,
        is_load: bool,
        overlappable: bool,
        dependent: bool,
    ) -> int:
        stats = self.stats[core_id]
        coherency_miss = self.directory.consume_coherency_miss(line, core_id)
        if coherency_miss:
            stats.coherency_misses += 1

        set_index = (addr >> self._llc_line_shift) & self._llc_set_mask
        shared_hit = self.llc.lookup(line)
        classification = self.accountant.classify_llc_access(
            core_id, line, set_index, shared_hit, is_load
        )

        l1_latency = self.machine.l1d.hit_latency
        llc_latency = self.machine.llc.hit_latency

        if shared_hit:
            stats.llc_hits += 1
            self._fill_l1(core_id, line, dirty=not is_load)
            stall = self._track_inflight(core_id, 1, now)
            if dependent:
                stall += l1_latency + llc_latency
            elif is_load:
                stall += self._llc_stall
            if coherency_miss and self.accountant.enabled:
                self.accountant.on_coherency_miss(core_id, stall)
            stats.stall_cycles += stall
            return stall

        # LLC miss.  Non-inclusive hierarchy: a peer L1 may still hold
        # the line; if so it is served by a cache-to-cache transfer at
        # LLC-like latency instead of going to memory.
        peers = self.directory.sharers_of(line)
        if peers and any(peer != core_id for peer in peers):
            stats.llc_hits += 1
            stats.c2c_transfers += 1
            self.llc.fill(line, owner=core_id)
            self._fill_l1(core_id, line, dirty=not is_load)
            stall = self._track_inflight(core_id, 1, now)
            if dependent:
                stall += l1_latency + llc_latency + C2C_EXTRA_LATENCY
            elif is_load:
                stall += self._llc_stall
            if coherency_miss and self.accountant.enabled:
                self.accountant.on_coherency_miss(core_id, stall)
            stats.stall_cycles += stall
            return stall

        stats.llc_misses += 1
        if is_load:
            stats.llc_load_misses += 1
        stats.dram_accesses += 1

        stall_before = 0
        if not overlappable or dependent:
            # In-order consumer: older misses must retire first.
            stall_before = self._drain(core_id, now)
            now += stall_before

        dram = self.memory.access(addr, core_id, now + l1_latency + llc_latency)
        ora_conflict = self.accountant.note_dram_access(core_id, dram)
        latency = l1_latency + llc_latency + dram.latency
        self._fill_llc(core_id, line, now)
        self._fill_l1(core_id, line, dirty=not is_load)

        state = self._mem_state[core_id]
        if overlappable and not dependent:
            if len(state.outstanding) >= MSHR_LIMIT:
                stall_before = self._drain(core_id, now)
                now += stall_before
                dram_end = now + latency
            else:
                dram_end = now + latency
            if not state.outstanding:
                state.insts_since_first = 0
            state.outstanding.append(
                _OutstandingMiss(dram_end, classification, dram, is_load,
                                 ora_conflict)
            )
            state.insts_since_first += 1
            stats.stall_cycles += stall_before
            return stall_before

        # Blocking miss: full latency stalls the core.
        blocked = latency
        self._account_blocked(
            core_id, blocked, classification, dram, is_load, ora_conflict,
            start=now,
        )
        total = stall_before + blocked
        stats.stall_cycles += total
        return total

    def _drain(self, core_id: int, now: int) -> int:
        state = self._mem_state[core_id]
        if not state.outstanding:
            return 0
        t = now
        for miss in state.outstanding:
            blocked = miss.end_time - t
            if blocked > 0:
                self._account_blocked(
                    core_id, blocked, miss.classification, miss.dram_result,
                    miss.is_load, miss.ora_conflict, start=t,
                )
                t = miss.end_time
        state.outstanding.clear()
        state.insts_since_first = 0
        stall = t - now
        self.stats[core_id].stall_cycles += stall
        return stall

    def _account_blocked(
        self,
        core_id: int,
        blocked: int,
        classification: str | None,
        dram: DramAccessResult,
        is_load: bool,
        ora_conflict: bool,
        start: int = 0,
    ) -> None:
        stats = self.stats[core_id]
        if is_load:
            stats.llc_load_miss_stall += blocked
        if self.accountant.enabled:
            self.accountant.on_miss_blocked(
                core_id, blocked, classification, dram, is_load, ora_conflict
            )
        bus = self.bus
        if bus is not None and MissBlocked in bus:
            # same attribution as the accountant's on_miss_blocked, so
            # trace-track sums reconcile with the negative-memory stall
            interference = dram.bus_wait_other + dram.bank_wait_other
            if ora_conflict:
                interference += dram.page_extra_cycles
            if interference > blocked:
                interference = blocked
            bus.emit(MissBlocked(
                core_id, start, start + blocked, interference, is_load
            ))

    def _fill_l1(self, core_id: int, line: int, *, dirty: bool) -> None:
        victim = self.l1d[core_id].fill(line, dirty=dirty)
        self.directory.add_sharer(line, core_id)
        if victim is not None:
            victim_line, victim_dirty = victim
            self.directory.remove_sharer(victim_line, core_id)
            if victim_dirty:
                # Dirty L1 victims write back into the LLC (allocating
                # there if the non-inclusive LLC no longer has the line).
                if self.llc.contains(victim_line):
                    self.llc.mark_dirty(victim_line)
                else:
                    self.llc.fill(victim_line, dirty=True, owner=core_id)

    def _fill_llc(self, core_id: int, line: int, now: int) -> None:
        victim = self.llc.fill(line, owner=core_id)
        if victim is None:
            return
        victim_line, victim_dirty = victim
        # Non-inclusive LLC: L1 copies survive the eviction (the
        # directory keeps tracking them for coherence and C2C serving).
        # Dirty victims write back to memory (fire-and-forget traffic).
        if victim_dirty:
            self.memory.writeback(
                victim_line * self.machine.llc.line_bytes, core_id, now
            )

    # ------------------------------------------------------------------
    # checkpointing (Snapshotable)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The whole memory hierarchy: caches, directory, DRAM, per-core
        stats, and the in-flight miss windows (MLP state)."""
        return {
            "l1d": [cache.state_dict() for cache in self.l1d],
            "llc": self.llc.state_dict(),
            "directory": self.directory.state_dict(),
            "memory": self.memory.state_dict(),
            "stats": [asdict(stats) for stats in self.stats],
            "mem_state": [
                {
                    "insts_since_first": state.insts_since_first,
                    "outstanding": [
                        {
                            "end_time": miss.end_time,
                            "classification": miss.classification,
                            "is_load": miss.is_load,
                            "ora_conflict": miss.ora_conflict,
                            "dram": asdict(miss.dram_result),
                        }
                        for miss in state.outstanding
                    ],
                }
                for state in self._mem_state
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        for cache, cache_state in zip(self.l1d, state["l1d"]):
            cache.load_state_dict(cache_state)
        self.llc.load_state_dict(state["llc"])
        self.directory.load_state_dict(state["directory"])
        self.memory.load_state_dict(state["memory"])
        for index, stats_state in enumerate(state["stats"]):
            self.stats[index] = CoreStats(**stats_state)
        for mem_state, saved in zip(self._mem_state, state["mem_state"]):
            mem_state.insts_since_first = saved["insts_since_first"]
            mem_state.outstanding = [
                _OutstandingMiss(
                    end_time=miss["end_time"],
                    classification=miss["classification"],
                    dram_result=DramAccessResult(**miss["dram"]),
                    is_load=miss["is_load"],
                    ora_conflict=miss["ora_conflict"],
                )
                for miss in saved["outstanding"]
            ]
