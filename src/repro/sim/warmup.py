"""Fused cache-warmup kernel.

Every run starts with an untimed warmup that streams each thread's
working-set addresses, round-robin across threads, through the LLC, the
thread's L1 and the accounting ATDs (DESIGN.md §5).  The reference path
is one :meth:`~repro.sim.cmp.Chip.warm_line` call per address; this
module computes the *same* final state in one pass whose working state
is bounded by cache capacity:

* the LLC never promotes during warmup (``warm_fill(promote=False)``),
  so each set evolves in pure FIFO-insert order — the stack-algorithm
  view of Mattson et al. (IBM Systems Journal, 1970).  A ring of
  ``assoc`` slots per set replaces the per-line insert/evict churn: the
  slot being overwritten is exactly the front-eviction victim, and a
  set of resident lines makes the residency probe O(1);
* one ``line -> owner bitmask`` dict stands in for the directory's
  sharer sets.  Entries are deleted when their mask drops to zero, so
  the dict's insertion order is the reference ``_sharers`` order;
* per-core, per-set L1 lists hold the resident lines in eviction
  order (every warmup fill is clean, and the owner bitmask doubles as
  the L1 residency probe);
* the sampled ATD sets are updated inline with the ATDs' normal warm
  rule (LRU promotes on a hit, FIFO does not).

At the end the LLC rings and L1 lists are written into the reference
stores' per-set ``OrderedDict`` sets and the owner masks into the
directory's sharer sets, so the warmed chip and accountant
``state_dict`` equal the per-line loop's byte for byte.

**Inclusive warmup, non-inclusive runtime.**  Warmup keeps the LLC
inclusive: an LLC victim's L1 copies are dropped with it (``warm_line``
calls ``CoherenceDirectory.drop_line``), and this kernel does the same.
The runtime eviction path (``Chip._fill_llc``) is non-inclusive and
leaves L1 copies alone.  The difference is deliberate and documented in
DESIGN.md §5: the warmed state is what the goldens were recorded with.

:func:`fused_warmup` returns False, touching nothing, for configurations
whose warmup it does not model — random replacement (RNG-drawn
victims), the way-partitioned LLC (``llc_quotas``), shadow-oracle ATDs,
a custom accountant, and chips that are not cold.  The caller then runs the per-line loop, which stays the
reference the kernel is tested against.
"""

from __future__ import annotations

from itertools import islice

from repro.accounting.accountant import CycleAccountant
from repro.components.replacement import FifoPolicy, LruPolicy
from repro.sim.cache import SetAssocCache

#: replacement policies whose victim is always the set front
_FRONT_EVICTING = (LruPolicy, FifoPolicy)


def _supported(chip, accountant) -> bool:
    """Whether the kernel models this chip/accountant exactly."""
    for cache in (chip.llc, *chip.l1d):
        if (
            type(cache) is not SetAssocCache  # way-partitioned LLC
            or type(cache._policy) not in _FRONT_EVICTING
            or any(cache._sets)
        ):
            return False
    directory = chip.directory
    if directory._sharers or any(directory._invalid_tags):
        return False
    # the ATDs share the LLC's geometry and replacement policy
    return not accountant.enabled or (
        type(accountant) is CycleAccountant
        and accountant.oracle_atds is None
    )


def fused_warmup(chip, accountant, warmup) -> bool:
    """Warm ``chip`` (and ``accountant``'s ATDs) from the per-thread
    ``warmup`` address lists; thread ``tid`` warms on core
    ``tid % n_cores``.  Returns False, with nothing touched, when the
    configuration needs the per-line reference loop instead."""
    if not _supported(chip, accountant):
        return False
    n_cores = chip.n_cores
    line_shift = chip._l1_line_shift
    llc = chip.llc
    llc_mask = llc._set_mask
    llc_assoc = llc.assoc
    n_llc_sets = llc_mask + 1
    # set s owns slots [s * assoc, (s + 1) * assoc) of one flat ring
    llc_ring = [None] * (n_llc_sets * llc_assoc)
    llc_ptrs = [0] * n_llc_sets
    llc_resident: set[int] = set()
    l1_mask = chip.l1d[0]._set_mask
    l1_assoc = chip.l1d[0].assoc
    # per core, per set: resident lines in eviction order (front first)
    l1_rows = [[[] for _ in range(l1_mask + 1)] for _ in range(n_cores)]
    owners: dict[int, int] = {}

    # ATD sampling: line sizes are equal across the hierarchy
    # (MachineConfig enforces it), so the ATD set index is the LLC set.
    if accountant.enabled:
        atds = accountant.atds
        atd_sets = [atd._tags._sets for atd in atds]
        atd_promote = atds[0]._tags._promote_on_hit
        atd_mask = atds[0]._tags._set_mask
        atd_assoc = atds[0]._tags.assoc
        period = atds[0].sample_period
        offset = period // 2
        one_period = bytes(offset) + b"\x01" + bytes(period - 1 - offset)
        sampled = (one_period * (n_llc_sets // period + 1))[:n_llc_sets]
    else:
        sampled = bytes(n_llc_sets)
    atd_evictions = [0] * n_cores

    # Eviction counters are derived at the end from the rare events
    # (hits and inclusive drops) instead of being bumped per access:
    # evictions = insertions - final occupancy.
    accesses = [0] * n_cores
    for tid, stream in enumerate(warmup):
        accesses[tid % n_cores] += len(stream)
    llc_hits = 0
    l1_hits = [0] * n_cores
    l1_drops = [0] * n_cores

    # Round-robin interleave across threads, as the per-line loop does:
    # zip runs the columns every live stream still has, then the
    # exhausted streams drop out.
    live = [
        (tid % n_cores, stream) for tid, stream in enumerate(warmup) if stream
    ]
    start = 0
    while live:
        stop = min(len(s) for _, s in live)
        ctx = [(core, 1 << core, l1_rows[core]) for core, _ in live]
        for column in zip(*[islice(s, start, stop) for _, s in live]):
            for (core, bit, rows), addr in zip(ctx, column):
                line = addr >> line_shift
                lset = line & llc_mask
                if line in llc_resident:
                    llc_hits += 1
                    mine = owners.get(line, 0)
                else:
                    mine = 0
                    llc_resident.add(line)
                    ptr = llc_ptrs[lset]
                    slot = lset * llc_assoc + ptr
                    victim = llc_ring[slot]
                    llc_ring[slot] = line
                    llc_ptrs[lset] = ptr + 1 if ptr + 1 < llc_assoc else 0
                    if victim is not None:
                        llc_resident.discard(victim)
                        # inclusive drop: every L1 copy of the victim goes
                        mask = owners.pop(victim, 0)
                        while mask:
                            low = mask & -mask
                            holder = low.bit_length() - 1
                            l1_rows[holder][victim & l1_mask].remove(victim)
                            l1_drops[holder] += 1
                            mask ^= low
                if sampled[lset]:
                    atd_set = atd_sets[core][line & atd_mask]
                    if line in atd_set:
                        if atd_promote:
                            atd_set.move_to_end(line)
                    else:
                        if len(atd_set) >= atd_assoc:
                            atd_set.popitem(last=False)
                            atd_evictions[core] += 1
                        atd_set[line] = False
                # L1 fill: a resident line moves to MRU, an absent one
                # is appended and the front evicted.  The victim's owner
                # entry goes when its last holder does, which keeps the
                # dict in the directory's sharer insertion order.
                row = rows[line & l1_mask]
                if mine & bit:
                    l1_hits[core] += 1
                    if row[-1] != line:
                        row.remove(line)
                        row.append(line)
                    continue
                row.append(line)
                if len(row) > l1_assoc:
                    l1_victim = row.pop(0)
                    left = owners[l1_victim] ^ bit
                    if left:
                        owners[l1_victim] = left
                    else:
                        del owners[l1_victim]
                owners[line] = mine | bit
        start = stop
        live = [(core, s) for core, s in live if len(s) > stop]

    # Ring -> eviction order: a full set's oldest entry sits at its
    # pointer; a set still filling holds slots [0, ptr).  The cold
    # stores' empty per-set dicts are filled in place.
    llc_sets = llc._sets
    llc_occupancy = 0
    for lset, ptr in enumerate(llc_ptrs):
        base = lset * llc_assoc
        if llc_ring[base + ptr] is None:
            if not ptr:
                continue
            order = llc_ring[base:base + ptr]
        else:
            order = (
                llc_ring[base + ptr:base + llc_assoc]
                + llc_ring[base:base + ptr]
            )
        llc_occupancy += len(order)
        cache_set = llc_sets[lset]
        for line in order:
            cache_set[line] = False
    llc.n_evictions += sum(accesses) - llc_hits - llc_occupancy
    for core, l1 in enumerate(chip.l1d):
        l1_sets = l1._sets
        occupancy = 0
        for index, row in enumerate(l1_rows[core]):
            if row:
                occupancy += len(row)
                cache_set = l1_sets[index]
                for line in row:
                    cache_set[line] = False
        l1.n_evictions += (
            accesses[core] - l1_hits[core] - l1_drops[core] - occupancy
        )
    if accountant.enabled:
        for atd, count in zip(accountant.atds, atd_evictions):
            atd._tags.n_evictions += count

    sharers = chip.directory._sharers
    for line, mask in owners.items():
        if not mask & (mask - 1):
            sharers[line] = {mask.bit_length() - 1}
            continue
        holders = set()
        while mask:
            low = mask & -mask
            holders.add(low.bit_length() - 1)
            mask ^= low
        sharers[line] = holders
    return True
