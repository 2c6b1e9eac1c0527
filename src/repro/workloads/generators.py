"""Deterministic address-stream generators for synthetic workloads.

Each thread owns a private data region and all threads share one shared
region; synchronization variables live in their own reserved region
(:data:`repro.sync.primitives.SYNC_REGION_BASE`).  Private regions are
offset by an odd number of DRAM pages per thread so that concurrently
streaming threads spread across banks instead of pathologically
colliding on bank 0.

All randomness comes from :class:`random.Random` instances seeded from
``(benchmark name, thread id)``, so every simulation is reproducible.
A uniform line index is drawn with the rejection loop that
``Random.randrange(n)`` runs on CPython 3.11 and 3.12 (``getrandbits``
of ``n.bit_length()`` bits until the draw is below ``n``), written out
inline: the same values and RNG state, without randrange's three Python
frames per draw.
"""

from __future__ import annotations

import random
import zlib
from math import gcd
from typing import Iterator

LINE = 64
PAGE = 4096

#: Layout constants.  Regions are far apart so they can never overlap
#: for any plausible working-set size.
PRIVATE_BASE = 0x1000_0000
PRIVATE_STRIDE = 0x400_0000  # 64 MB per thread
SHARED_BASE = 0x4000_0000_0000


def seed_for(name: str, thread_id: int) -> int:
    """Stable cross-run seed for one thread of one benchmark."""
    return zlib.crc32(f"{name}/{thread_id}".encode()) & 0x7FFF_FFFF


def private_base(thread_id: int) -> int:
    """Base address of a thread's private region (bank-interleaved)."""
    return PRIVATE_BASE + thread_id * PRIVATE_STRIDE + thread_id * 13 * PAGE


class AddressStream:
    """Mixes strided (streaming) and random accesses over a region."""

    def __init__(
        self,
        base: int,
        size_bytes: int,
        rng: random.Random,
        stride_fraction: float = 0.5,
        stride: int = LINE,
    ) -> None:
        if size_bytes < LINE:
            raise ValueError("region smaller than one cache line")
        self.base = base
        self.size = size_bytes
        self.rng = rng
        self.stride_fraction = stride_fraction
        self.stride = stride
        self._cursor = 0
        self._n_lines = size_bytes // LINE
        self._bits = self._n_lines.bit_length()
        self._random = rng.random
        self._getrandbits = rng.getrandbits

    def next_addr(self) -> int:
        if self._random() < self.stride_fraction:
            addr = self.base + self._cursor
            self._cursor = (self._cursor + self.stride) % self.size
            return addr
        # rng.randrange(self._n_lines), inlined (module docstring)
        n, bits = self._n_lines, self._bits
        line = self._getrandbits(bits)
        while line >= n:
            line = self._getrandbits(bits)
        return self.base + line * LINE


class SharedStream:
    """Accesses over the shared region with a hot-subset bias.

    A fraction of accesses go to a small hot set (lines every thread
    reuses, maximizing inter-thread hits); the rest sweep the full
    shared region.
    """

    def __init__(
        self,
        size_bytes: int,
        rng: random.Random,
        hot_fraction: float = 0.6,
        hot_lines: int = 512,
    ) -> None:
        if size_bytes < LINE:
            raise ValueError("shared region smaller than one cache line")
        self.size = size_bytes
        self.rng = rng
        self.hot_fraction = hot_fraction
        self._n_lines = size_bytes // LINE
        self._hot_lines = min(hot_lines, self._n_lines)
        self._random = rng.random
        self._getrandbits = rng.getrandbits

    def next_addr(self) -> int:
        if self._random() < self.hot_fraction:
            n = self._hot_lines
        else:
            n = self._n_lines
        # rng.randrange(n), inlined (module docstring)
        bits = n.bit_length()
        line = self._getrandbits(bits)
        while line >= n:
            line = self._getrandbits(bits)
        return SHARED_BASE + line * LINE


def round_robin_lock(
    thread_id: int, counter: int, n_locks: int
) -> int:
    """Deterministic lock selection spreading contention across locks."""
    if n_locks <= 1:
        return 0
    return (thread_id + counter) % n_locks


def skew_factor(thread_id: int, phase: int, n_threads: int, amplitude: float) -> float:
    """Per-phase work multiplier creating deterministic load imbalance.

    Values are centred on 1.0 (the mean over threads is ~1), with spread
    proportional to ``amplitude``; the skewed thread rotates with the
    phase so no single thread is always the straggler.
    """
    if n_threads <= 1 or amplitude <= 0:
        return 1.0
    # Walk the threads with a step coprime to the thread count so the
    # positions form a permutation of 0..n-1 (mean multiplier exactly 1).
    step = next(k for k in (7, 5, 9, 11, 3, 1) if gcd(k, n_threads) == 1)
    position = ((thread_id * step + phase * 3) % n_threads) / (n_threads - 1)
    return 1.0 + amplitude * (position - 0.5) * 2.0


def chunks(total: int, chunk: int) -> Iterator[int]:
    """Split ``total`` into chunks of at most ``chunk``."""
    remaining = total
    while remaining > 0:
        step = chunk if remaining >= chunk else remaining
        yield step
        remaining -= step
