"""Tests for the state-store registry and the committed-snapshot
pointer protocol."""

import pytest

from repro.errors import MapNotFoundError, StoreError
from repro.state.snapshots import SnapshotTableBase


def test_create_map_idempotent(env):
    store = env.store
    first = store.create_map("orders")
    second = store.create_map("orders")
    assert first is second
    assert store.map_names() == ["orders"]


def test_get_unknown_map_raises(env):
    with pytest.raises(MapNotFoundError):
        env.store.get_map("nope")


def test_snapshot_pointer_protocol(env):
    store = env.store
    assert store.committed_ssid is None
    store.begin_snapshot(1)
    assert store.in_progress_ssid == 1
    # Not yet visible to queries.
    assert store.committed_ssid is None
    store.commit_snapshot(1)
    assert store.committed_ssid == 1
    assert store.in_progress_ssid is None
    assert store.available_ssids() == [1]


def test_two_snapshots_in_progress_rejected(env):
    store = env.store
    store.begin_snapshot(1)
    with pytest.raises(StoreError):
        store.begin_snapshot(2)


def test_commit_without_begin_rejected(env):
    with pytest.raises(StoreError):
        env.store.commit_snapshot(5)


def test_snapshot_ids_must_increase(env):
    store = env.store
    store.begin_snapshot(2)
    store.commit_snapshot(2)
    with pytest.raises(StoreError):
        store.begin_snapshot(2)
    with pytest.raises(StoreError):
        store.begin_snapshot(1)


def test_abort_clears_in_progress(env):
    store = env.store
    store.begin_snapshot(1)
    store.abort_snapshot(1)
    assert store.in_progress_ssid is None
    assert store.committed_ssid is None
    # The same id cannot be reused after an abort... but a later one can.
    store.begin_snapshot(2)
    store.commit_snapshot(2)
    assert store.committed_ssid == 2


def test_retire_snapshots_keeps_most_recent(env):
    store = env.store
    for ssid in (1, 2, 3, 4):
        store.begin_snapshot(ssid)
        store.commit_snapshot(ssid)
    retired = store.retire_snapshots(keep=2)
    assert retired == [1, 2]
    assert store.available_ssids() == [3, 4]


def test_retire_noop_when_under_limit(env):
    store = env.store
    store.begin_snapshot(1)
    store.commit_snapshot(1)
    assert store.retire_snapshots(keep=2) == []


def test_retire_notifies_snapshot_tables(env):
    dropped = []

    class FakeTable(SnapshotTableBase):
        def drop_snapshot(self, ssid):
            dropped.append(ssid)

    store = env.store
    store.register_snapshot_table(
        "snapshot_x", FakeTable("snapshot_x", 1, lambda instance: 0)
    )
    for ssid in (1, 2, 3):
        store.begin_snapshot(ssid)
        store.commit_snapshot(ssid)
    store.retire_snapshots(keep=1)
    assert dropped == [1, 2]


def test_duplicate_table_registration_rejected(env):
    store = env.store
    store.register_snapshot_table("snapshot_x", object())
    with pytest.raises(StoreError):
        store.register_snapshot_table("snapshot_x", object())
    store.register_live_table("x", object())
    with pytest.raises(StoreError):
        store.register_live_table("x", object())


def test_live_table_lookup(env):
    store = env.store
    sentinel = object()
    store.register_live_table("orders", sentinel)
    assert store.has_live_table("orders")
    assert store.get_live_table("orders") is sentinel
    with pytest.raises(MapNotFoundError):
        store.get_live_table("other")


def test_key_lock_helpers(env):
    store = env.store
    assert store.lock_key("m", "k", "owner")
    assert not store.lock_key("m", "k", "other")
    store.unlock_key("m", "k", "owner")
    assert store.lock_key("m", "k", "other")
    store.unlock_key("m", "k", "other")


def test_node_failure_hash_placed_map_survives_via_backups(env):
    """Hash-placed maps are replicated: killing a node promotes the
    backup replicas, so no entries are lost."""
    store = env.store
    imap = store.create_map("orders")
    for i in range(100):
        imap.put(i, i)
    assert imap.partitions_on_node(1)
    env.cluster.kill_node(1)
    assert imap.partitions_on_node(1) == []
    assert len(imap) == 100


def test_node_failure_instance_placed_map_loses_dead_partitions(env):
    """Operator live-state maps follow the job's instance assignment;
    until the job reassigns (after the store's failure handler), the
    dead node's partitions have no surviving replica and are dropped —
    live state is mirrored asynchronously (§VII-B)."""
    from repro.kvstore import InstancePlacement

    store = env.store
    placement = InstancePlacement(3, lambda i: i % 3, node_count=3)
    imap = store.create_map("live_orders", placement)
    for i in range(99):
        imap.put(i, i)
    before = imap.partition_size(1)
    assert before > 0
    env.cluster.kill_node(1)
    assert len(imap) == 99 - before
    assert imap.partition_size(1) == 0
