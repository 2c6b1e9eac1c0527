"""Address-stream generators: determinism, ranges, skew."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import generators as g


class TestSeeding:
    def test_stable_across_calls(self):
        assert g.seed_for("bench", 3) == g.seed_for("bench", 3)

    def test_distinct_per_thread_and_name(self):
        seeds = {g.seed_for(name, tid)
                 for name in ("a", "b") for tid in range(8)}
        assert len(seeds) == 16


class TestPrivateBase:
    def test_regions_disjoint(self):
        for tid in range(15):
            end = g.private_base(tid) + 32 * 1024 * 1024
            assert end <= g.private_base(tid + 1)

    def test_bank_interleaving(self):
        """Thread bases must not all land on the same DRAM bank."""
        banks = {(g.private_base(tid) >> 12) & 7 for tid in range(16)}
        assert len(banks) > 1


class TestAddressStream:
    def test_deterministic(self):
        a = g.AddressStream(0x1000, 4096, random.Random(7))
        b = g.AddressStream(0x1000, 4096, random.Random(7))
        assert [a.next_addr() for __ in range(50)] == [
            b.next_addr() for __ in range(50)
        ]

    def test_addresses_within_region(self):
        stream = g.AddressStream(0x1000, 4096, random.Random(1))
        for __ in range(500):
            addr = stream.next_addr()
            assert 0x1000 <= addr < 0x1000 + 4096

    def test_pure_stride_wraps(self):
        stream = g.AddressStream(
            0, 256, random.Random(1), stride_fraction=1.0, stride=64
        )
        addrs = [stream.next_addr() for __ in range(6)]
        assert addrs == [0, 64, 128, 192, 0, 64]

    def test_sub_line_stride(self):
        stream = g.AddressStream(
            0, 256, random.Random(1), stride_fraction=1.0, stride=8
        )
        addrs = [stream.next_addr() for __ in range(9)]
        # 8 accesses per 64-byte line before moving on
        assert len({a // 64 for a in addrs[:8]}) == 1
        assert addrs[8] // 64 == 1

    def test_too_small_region_rejected(self):
        with pytest.raises(ValueError):
            g.AddressStream(0, 32, random.Random(1))


class TestSharedStream:
    def test_hot_bias(self):
        stream = g.SharedStream(
            1024 * 1024, random.Random(3), hot_fraction=0.9, hot_lines=16
        )
        addrs = [stream.next_addr() for __ in range(1000)]
        hot = sum(1 for a in addrs if (a - g.SHARED_BASE) // 64 < 16)
        assert hot > 800

    def test_within_region(self):
        stream = g.SharedStream(4096, random.Random(3))
        for __ in range(200):
            addr = stream.next_addr()
            assert g.SHARED_BASE <= addr < g.SHARED_BASE + 4096


class TestSkew:
    def test_disabled_for_single_thread(self):
        assert g.skew_factor(0, 0, 1, 0.9) == 1.0

    def test_disabled_for_zero_amplitude(self):
        assert g.skew_factor(3, 2, 8, 0.0) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 20),
           st.floats(0.05, 0.95))
    def test_mean_close_to_one(self, n_threads, phase, amplitude):
        values = [
            g.skew_factor(tid, phase, n_threads, amplitude)
            for tid in range(n_threads)
        ]
        mean = sum(values) / n_threads
        assert abs(mean - 1.0) < 0.15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 20), st.floats(0.05, 0.95))
    def test_bounded_by_amplitude(self, n_threads, phase, amplitude):
        for tid in range(n_threads):
            value = g.skew_factor(tid, phase, n_threads, amplitude)
            assert 1.0 - amplitude - 1e-9 <= value <= 1.0 + amplitude + 1e-9

    def test_straggler_rotates_across_phases(self):
        slowest = {
            max(range(8), key=lambda t: g.skew_factor(t, p, 8, 0.5))
            for p in range(8)
        }
        assert len(slowest) > 1


class TestChunks:
    def test_exact_division(self):
        assert list(g.chunks(300, 100)) == [100, 100, 100]

    def test_remainder(self):
        assert list(g.chunks(250, 100)) == [100, 100, 50]

    def test_zero(self):
        assert list(g.chunks(0, 100)) == []

    @given(st.integers(0, 10_000), st.integers(1, 500))
    def test_sum_preserved(self, total, chunk):
        parts = list(g.chunks(total, chunk))
        assert sum(parts) == total
        assert all(0 < p <= chunk for p in parts)


def _sampler_sizes() -> list[int]:
    """1, 2, 3, 2^k and 2^k +- 1, and every line count of a suite
    working set (private, shared and cold regions)."""
    from repro.workloads.suite import SUITE

    sizes = {1, 2, 3}
    for k in (2, 3, 6, 9, 12, 16):
        sizes.update((2**k - 1, 2**k, 2**k + 1))
    for spec in SUITE:
        for kb in (spec.private_ws_kb, spec.shared_ws_kb, spec.cold_ws_kb):
            if kb:
                sizes.add(kb * 1024 // g.LINE)
    return sorted(sizes)


class TestInlineSampler:
    """The streams draw line indices with randrange's rejection loop
    written out; it must match ``random.Random.randrange`` draw for draw
    and leave the generator in the same state, or every op stream moves
    (tests/workloads/test_op_stream_pin.py)."""

    DRAWS = 64

    @pytest.mark.parametrize("n", _sampler_sizes())
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_address_stream_matches_randrange(self, n, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        stream = g.AddressStream(0, n * g.LINE, rng, stride_fraction=0.0)
        drawn = [stream.next_addr() for __ in range(self.DRAWS)]
        expected = []
        for __ in range(self.DRAWS):
            ref.random()
            expected.append(ref.randrange(n) * g.LINE)
        assert drawn == expected
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", _sampler_sizes())
    @pytest.mark.parametrize("hot_fraction", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_shared_stream_matches_randrange(self, n, hot_fraction, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        stream = g.SharedStream(n * g.LINE, rng, hot_fraction=hot_fraction)
        bound = min(512, n) if hot_fraction else n
        drawn = [stream.next_addr() for __ in range(self.DRAWS)]
        expected = []
        for __ in range(self.DRAWS):
            ref.random()
            expected.append(g.SHARED_BASE + ref.randrange(bound) * g.LINE)
        assert drawn == expected
        assert rng.getstate() == ref.getstate()
