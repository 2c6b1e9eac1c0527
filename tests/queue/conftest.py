"""Shared fixtures for the work-queue tests."""

from __future__ import annotations

import pytest

from repro.experiments.runner import RunPolicy
from repro.queue import CellSpec, QueueStore


@pytest.fixture
def tiny_cells(tiny_spec) -> list[CellSpec]:
    return [
        CellSpec(spec=tiny_spec, n_threads=2),
        CellSpec(spec=tiny_spec, n_threads=4),
    ]


@pytest.fixture
def policy() -> RunPolicy:
    # jitter off so backoff arithmetic in assertions stays exact
    return RunPolicy(backoff_s=1.0, backoff_factor=2.0, backoff_jitter=False)


@pytest.fixture
def store(tmp_path, tiny_cells, policy) -> QueueStore:
    return QueueStore.create(
        tmp_path / "q", tiny_cells, policy,
        lease_ttl_s=10.0, poison_after=3,
    )
