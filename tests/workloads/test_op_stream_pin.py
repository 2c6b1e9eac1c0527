"""Pin the synthesized op streams byte for byte.

The thread-body generator in :mod:`repro.workloads.spec` is on the
engine's per-op hot path, so it gets optimized; the streams it emits are
part of the workload definition (every stack, journal and golden depends
on them).  These digests were recorded from the straightforward
implementation and must never move: each one is a sha256 over every
op's class and fields, for every thread body of a spec at N=1 and N=4.

The specs together reach every branch of the memory-access mix: stream
produce and consume (including a consume before anything was produced),
shared loads and stores, cold loads with and without address
dependence, false-sharing stores, and private strided and random
accesses.  :func:`test_pin_specs_cover_every_access_kind` checks that
coverage so a spec edit cannot silently drop a branch.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.workloads import generators as g
from repro.workloads.program import Load, Store
from repro.workloads.spec import (
    FALSE_SHARING_BASE,
    STREAM_BASE,
    BenchmarkSpec,
    build_program,
)
from repro.workloads.suite import by_name

#: every access kind at a high rate, plus locks, phases and imbalance
MIX = BenchmarkSpec(
    name="pin_mix", total_kinstrs=60, mem_per_kinstr=180,
    private_ws_kb=32, stride_fraction=0.5, stride_bytes=16,
    store_fraction=0.3, false_sharing_fraction=0.5, false_sharing_lines=4,
    shared_ws_kb=64, shared_fraction=0.2, shared_store_fraction=0.3,
    stream_fraction=0.25, stream_window=8, stream_produce_fraction=0.3,
    cold_ws_kb=64, cold_fraction=0.25, cold_stride_fraction=0.5,
    dependent_fraction=0.3, n_locks=3, cs_per_kinstr=2.0, cs_len_instrs=50,
    cs_stores=2, n_phases=3, imbalance=0.2,
)

#: private accesses only, no dependence, no false sharing
PLAIN = BenchmarkSpec(name="pin_plain", total_kinstrs=30)

SPECS = {
    "pin_mix": MIX,
    "pin_plain": PLAIN,
    "ferret_medium": by_name("ferret_medium").scaled(0.01),
    "canneal_medium": by_name("canneal_medium").scaled(0.01),
}

EXPECTED = {
    ("canneal_medium", 1): "122b2a5e9082ed409445833c722911c6fa8c199527198695c0f0c625a20dacb8",
    ("canneal_medium", 4): "c976901c9fd29e8f085781c4a550319eb537fdf77b425c65bca953141eff995f",
    ("ferret_medium", 1): "61f135fdfe14ff3ea8d659b7ff4ec6676cf986ab67f7854f30d43ad1d47135bd",
    ("ferret_medium", 4): "425c32fc131a8b8b80f7457b32c7dcc2f2d0496de69a958b1ec57ab3e4651e2a",
    ("pin_mix", 1): "e615d68c5da79c92e61fdd461081f1fef8a9decdeb33df50dc4e1dfa1f3532bf",
    ("pin_mix", 4): "614bf761eedbef5d0f302c5155355bc2e4f3c893872e68af25a53e5bd423bcd8",
    ("pin_plain", 1): "1ea03568bc51ac4b70f88b50adbfcf6b093b863f278b8be456c2a3f01c7420fb",
    ("pin_plain", 4): "24ab081d51e65825cc8430263864239b0831fae8f0f27358cda0ca5c93a21532",
}


def _fields(op) -> tuple:
    return (type(op).__name__,) + tuple(
        getattr(op, slot) for slot in type(op).__slots__
    )


def stream_digest(spec: BenchmarkSpec, n_threads: int) -> str:
    digest = hashlib.sha256()
    for tid, body in enumerate(build_program(spec, n_threads).thread_bodies):
        digest.update(f"thread {tid}\n".encode())
        for op in body:
            digest.update(repr(_fields(op)).encode())
            digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("n_threads", [1, 4])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_op_stream_digest_is_pinned(name, n_threads):
    assert stream_digest(SPECS[name], n_threads) == EXPECTED[name, n_threads]


def _kinds(spec: BenchmarkSpec, n_threads: int) -> set[str]:
    stream_end = STREAM_BASE + 0x1000_0000
    kinds = set()
    for tid, body in enumerate(build_program(spec, n_threads).thread_bodies):
        private = g.private_base(tid)
        cold = private + 0x100_0000
        for op in body:
            if not isinstance(op, (Load, Store)):
                continue
            store = isinstance(op, Store)
            addr = op.addr
            if FALSE_SHARING_BASE <= addr:
                kinds.add("false_sharing")
            elif STREAM_BASE <= addr < stream_end:
                kinds.add("stream_produce" if store else "stream_consume")
            elif g.SHARED_BASE <= addr < g.SHARED_BASE + spec.shared_ws_kb * 1024:
                kinds.add("shared_store" if store else "shared_load")
            elif cold <= addr < cold + spec.cold_ws_kb * 1024:
                kinds.add("cold_dependent" if op.dependent else "cold_load")
            elif private <= addr < private + spec.private_ws_kb * 1024:
                if store:
                    kinds.add("private_store")
                else:
                    kinds.add("private_load_dependent" if op.dependent
                              else "private_load")
                if addr % g.LINE:  # only the strided branch leaves lines
                    kinds.add("private_strided")
    return kinds


def test_pin_specs_cover_every_access_kind():
    seen = set()
    for spec in SPECS.values():
        for n_threads in (1, 4):
            seen |= _kinds(spec, n_threads)
    assert seen >= {
        "stream_produce", "stream_consume", "shared_load", "shared_store",
        "cold_load", "cold_dependent", "false_sharing", "private_store",
        "private_load", "private_load_dependent", "private_strided",
    }
