"""The on-disk lease protocol: claims, fencing, reclaim, quarantine.

Every test drives :class:`~repro.queue.store.QueueStore` with an
explicit ``now`` — no sleeps, no wall-clock races; the chaos tests in
``test_chaos.py`` cover the real-time multi-process behaviour.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.queue import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    QueueStore,
)
from repro.queue.store import RECLAIM_LOG

T0 = 1_000.0


class TestCreate:
    def test_layout_and_manifest(self, store, tiny_cells):
        assert store.order == ["tiny:2", "tiny:4"]
        assert store.counts().pending == 2
        for sub in ("pending", "leased", "done", "failed",
                    "quarantined", "tmp", "workers", "chaos"):
            assert (store.root / sub).is_dir()
        # a second store attaches to the same manifest
        reattached = QueueStore(store.root)
        assert reattached.order == store.order
        assert reattached.lease_ttl_s == store.lease_ttl_s
        assert reattached.cells["tiny:4"].n_threads == 4

    def test_create_twice_rejected(self, store, tiny_cells, policy):
        with pytest.raises(ConfigError, match="already exists"):
            QueueStore.create(store.root, tiny_cells, policy)

    def test_duplicate_keys_rejected(self, tmp_path, tiny_cells, policy):
        with pytest.raises(ConfigError, match="duplicate"):
            QueueStore.create(
                tmp_path / "q", tiny_cells + tiny_cells[:1], policy
            )

    def test_bad_knobs_rejected(self, tmp_path, tiny_cells, policy):
        with pytest.raises(ConfigError, match="TTL"):
            QueueStore.create(tmp_path / "a", tiny_cells, policy,
                              lease_ttl_s=0.0)
        with pytest.raises(ConfigError, match="poison_after"):
            QueueStore.create(tmp_path / "b", tiny_cells, policy,
                              poison_after=0)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no queue manifest"):
            QueueStore(tmp_path / "nowhere")

    def test_version_mismatch_rejected(self, store):
        manifest = json.loads((store.root / "queue.json").read_text())
        manifest["version"] = 99
        (store.root / "queue.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="version"):
            QueueStore(store.root)


class TestClaims:
    def test_claim_is_single_winner(self, store):
        a = store.claim("wa", now=T0)
        b = store.claim("wb", now=T0)
        assert a.key == "tiny:2" and b.key == "tiny:4"
        assert store.claim("wc", now=T0) is None
        assert store.counts().leased == 2

    def test_lease_carries_the_cell(self, store):
        lease = store.claim("wa", now=T0)
        assert lease.cell.spec.name == "tiny"
        assert lease.deadline == T0 + store.lease_ttl_s
        assert lease.token == 1

    def test_not_before_skips_backed_off_cells(self, store):
        lease = store.claim("wa", now=T0)
        assert store.release(lease, delay_s=5.0, now=T0)
        # tiny:2 is backed off until T0+5: claims pick tiny:4 instead
        assert store.claim("wb", now=T0 + 1).key == "tiny:4"
        assert store.claim("wc", now=T0 + 1) is None
        assert store.claim("wc", now=T0 + 6).key == "tiny:2"

    def test_corrupt_pending_rebuilt_from_manifest(self, store):
        (store.root / PENDING / "tiny@2.json").write_text("{garbage")
        lease = store.claim("wa", now=T0)
        assert lease.key == "tiny:2"
        assert lease.expiries == 0

    def test_duplicate_pending_cannot_shadow_a_live_lease(self, store):
        lease = store.claim("wa", now=T0)
        # simulate the aftermath of a repaired-too-eagerly orphan: a
        # pending file reappears for a cell that is already leased
        (store.root / PENDING / "tiny@2.json").write_text(json.dumps(
            {"key": "tiny:2", "expiries": 0, "lease_seq": 0,
             "not_before": 0.0}
        ))
        # the duplicate is dropped (link into leased/ refuses to
        # clobber); the claim moves on to the next cell
        other = store.claim("wb", now=T0)
        assert other.key == "tiny:4"
        assert store.state_of("tiny:2") == LEASED
        # the original owner is unharmed
        assert store.renew(lease, now=T0 + 1)


class TestFencing:
    def test_renew_extends_the_deadline(self, store):
        lease = store.claim("wa", now=T0)
        assert store.renew(lease, now=T0 + 4)
        assert lease.deadline == T0 + 4 + store.lease_ttl_s

    def test_stale_lease_cannot_renew_or_complete(self, store):
        stale = store.claim("wa", now=T0)
        [event] = store.reclaim_expired(now=T0 + 11)
        assert event.key == "tiny:2" and not event.quarantined
        fresh = store.claim("wb", now=T0 + 100)
        assert fresh.key == "tiny:2" and fresh.token == 2
        # the zombie's token is fenced out everywhere
        assert not store.renew(stale, now=T0 + 101)
        assert not store.complete(stale, {"status": "ok", "attempts": 1})
        assert not store.release(stale)
        # and the rightful owner is untouched by those attempts
        assert store.renew(fresh, now=T0 + 101)
        assert store.complete(fresh, {"status": "ok", "attempts": 1})
        assert store.state_of("tiny:2") == DONE

    def test_complete_routes_by_status(self, store):
        a = store.claim("wa", now=T0)
        b = store.claim("wb", now=T0)
        assert store.complete(a, {"status": "ok", "attempts": 1})
        assert store.complete(b, {"status": "failed", "attempts": 2,
                                  "error": "boom", "error_type": "X"})
        assert store.state_of("tiny:2") == DONE
        assert store.state_of("tiny:4") == FAILED
        assert store.all_terminal()
        assert store.result("tiny:4")["error"] == "boom"

    def test_complete_rejects_bad_status(self, store):
        lease = store.claim("wa", now=T0)
        with pytest.raises(ValueError, match="status"):
            store.complete(lease, {"status": "quarantined"})


class TestReclaimer:
    def test_live_leases_are_left_alone(self, store):
        store.claim("wa", now=T0)
        assert store.reclaim_expired(now=T0 + 5) == []
        assert store.state_of("tiny:2") == LEASED

    def test_expired_lease_requeues_with_backoff(self, store, policy):
        store.claim("wa", now=T0)
        [event] = store.reclaim_expired(now=T0 + 11)
        assert (event.key, event.worker, event.expiries) == ("tiny:2", "wa", 1)
        assert event.delay_s == policy.backoff_delay(2, "tiny:2") == 1.0
        record = json.loads(
            (store.root / PENDING / "tiny@2.json").read_text()
        )
        assert record["expiries"] == 1
        assert record["not_before"] == T0 + 11 + 1.0

    def test_third_expiry_quarantines(self, store):
        now = T0
        for expiry in range(1, 4):
            lease = store.claim("wa", now=now + 1000)
            assert lease.key == "tiny:2"
            [event] = store.reclaim_expired(now=now + 2000)
            assert event.expiries == expiry
            now += 2000
        assert event.quarantined
        assert store.state_of("tiny:2") == QUARANTINED
        record = store.result("tiny:2")
        assert record["status"] == QUARANTINED
        assert record["expiries"] == 3
        assert record["last_worker"] == "wa"
        assert record["postmortem"] is None  # no checkpoint_dir armed
        # quarantined cells never return to circulation
        assert store.claim("wb", now=now + 5000).key == "tiny:4"

    def test_corrupt_lease_is_reclaimed(self, store):
        store.claim("wa", now=T0)
        (store.root / LEASED / "tiny@2.json").write_text("not json")
        [event] = store.reclaim_expired(now=T0 + 1)
        assert event.corrupt and event.key == "tiny:2"
        assert store.state_of("tiny:2") == PENDING

    def test_orphan_needs_two_sightings(self, store):
        store.claim("wa", now=T0)
        (store.root / LEASED / "tiny@2.json").unlink()
        # first scan: noted, not repaired (could be mid-transition)
        assert store.reclaim_expired(now=T0 + 1) == []
        assert store.state_of("tiny:2") is None
        # second scan: rebuilt from the manifest
        [event] = store.reclaim_expired(now=T0 + 2)
        assert event.corrupt
        assert store.state_of("tiny:2") == PENDING


    def test_every_reclaim_is_logged_for_the_driver(self, store):
        """An idle worker's reclaim reaches the driver through the log,
        not only the reclaiming process's return value."""
        driver = QueueStore(store.root)
        _, offset = driver.reclaims_since(0)
        assert offset == 0
        store.claim("wa", now=T0)
        [event] = store.reclaim_expired(now=T0 + 11)  # the worker's scan
        assert driver.reclaim_expired(now=T0 + 11) == []
        events, offset = driver.reclaims_since(offset)
        assert events == [event]
        # a half-written line stays unread until it is complete
        with open(store.root / RECLAIM_LOG, "a") as handle:
            handle.write('{"key": "tiny:4"')
        assert driver.reclaims_since(offset) == ([], offset)


class TestChaosMarkers:
    def test_armed_exactly_once(self, store):
        assert store.chaos_armed("kill", "tiny:2")
        assert not store.chaos_armed("kill", "tiny:2")
        assert store.chaos_armed("kill", "tiny:4")
        assert store.chaos_armed("stall", "tiny:2")
