"""Tests for the S-QUERY backend (manager)."""

import pytest

from repro.config import SQueryConfig
from repro.state import (
    FullSnapshotTable, IncrementalSnapshotTable, LsmSnapshotTable,
    SQueryBackend,
)

from ..conftest import build_average_job, make_squery_backend


def test_registration_creates_tables(env):
    backend = make_squery_backend(env)
    backend.register_vertex("My Operator", 2, lambda i: i % 2, True)
    assert env.store.has_live_table("myoperator")
    assert env.store.has_snapshot_table("snapshot_myoperator")


def test_stateless_vertex_gets_no_tables(env):
    backend = make_squery_backend(env)
    backend.register_vertex("mapper", 2, lambda i: 0, False)
    assert not env.store.has_live_table("mapper")
    assert not env.store.has_snapshot_table("snapshot_mapper")


def test_live_only_configuration(env):
    backend = make_squery_backend(env, snapshot_state=False)
    backend.register_vertex("op", 2, lambda i: 0, True)
    assert env.store.has_live_table("op")
    assert not env.store.has_snapshot_table("snapshot_op")
    assert backend.live_update_cost("op") > 0


def test_snapshot_only_configuration(env):
    backend = make_squery_backend(env, live_state=False)
    backend.register_vertex("op", 2, lambda i: 0, True)
    assert not env.store.has_live_table("op")
    assert env.store.has_snapshot_table("snapshot_op")
    assert backend.live_update_cost("op") == 0.0


def test_live_update_mirrored_to_store(env):
    backend = make_squery_backend(env)
    backend.register_vertex("op", 2, lambda i: 0, True)
    backend.on_state_update("op", "k", {"v": 1})
    assert backend.live_table("op").get("k") == {"v": 1}
    backend.on_state_update("op", "k", None)
    assert backend.live_table("op").get("k") is None
    assert backend.live_updates_mirrored == 2


def test_colocation_disabled_raises_mirror_cost(env):
    local = make_squery_backend(env)
    local.register_vertex("op", 2, lambda i: 0, True)
    remote = SQueryBackend(env.cluster, env.store, SQueryConfig(
        colocate_state=False
    ))
    remote.register_vertex("op2", 2, lambda i: 0, True)
    assert remote.live_update_cost("op2") > local.live_update_cost("op")


def test_snapshot_write_lands_in_table(env):
    backend = make_squery_backend(env)
    backend.register_vertex("op", 2, lambda i: 0, True)
    env.store.begin_snapshot(1)
    done = []
    backend.write_snapshot("op", 0, 0, 1, {"a": 1}, set(),
                           lambda: done.append(True))
    env.sim.run()
    assert done == [True]
    table = backend.snapshot_table("op")
    assert table.instance_state(1, 0) == {"a": 1}


def test_restore_refreshes_live_partition(env):
    backend = make_squery_backend(env)
    backend.register_vertex("op", 2, lambda i: 0, True)
    env.store.begin_snapshot(1)
    backend.write_snapshot("op", 0, 0, 1, {"a": "snap"}, set(),
                           lambda: None)
    env.sim.run()
    # Live state has drifted past the snapshot.
    live = backend.live_table("op")
    live.apply_update("a", "dirty")
    state = backend.restore_instance_state("op", 0, 1)
    assert state == {"a": "snap"}
    assert live.get("a") == "snap"


@pytest.mark.parametrize("kind, policy", [
    ("full", FullSnapshotTable), ("chain", IncrementalSnapshotTable),
    ("lsm", LsmSnapshotTable),
])
def test_snapshot_backend_names_the_table_policy(env, kind, policy):
    backend = make_squery_backend(env, snapshot_backend=kind)
    backend.register_vertex("op", 1, lambda i: 0, True)
    assert type(backend.snapshot_table("op")) is policy
    assert backend.incremental is (kind != "full")


def test_incremental_flag_requires_snapshot_state(env):
    backend = make_squery_backend(env, snapshot_state=False,
                                  snapshot_backend="chain")
    assert backend.incremental is False


def test_incremental_mode_writes_deltas(env):
    backend = make_squery_backend(env, snapshot_backend="chain")
    backend.register_vertex("op", 1, lambda i: 0, True)
    env.store.begin_snapshot(1)
    backend.write_snapshot("op", 0, 0, 1, {"a": 1, "b": 1}, set(),
                           lambda: None)
    env.sim.run()
    env.store.commit_snapshot(1)
    env.store.begin_snapshot(2)
    backend.write_snapshot("op", 0, 0, 2, {"a": 2}, {"b"}, lambda: None)
    env.sim.run()
    table = backend.snapshot_table("op")
    assert table.instance_state(2, 0) == {"a": 2}
    assert table.instance_state(1, 0) == {"a": 1, "b": 1}


def test_snapshot_disabled_falls_back_to_blobs(env):
    backend = make_squery_backend(env, snapshot_state=False)
    backend.register_vertex("op", 1, lambda i: 0, True)
    backend.write_snapshot("op", 0, 0, 1, {"a": 1}, set(), lambda: None)
    env.sim.run()
    assert backend.restore_instance_state("op", 0, 1) == {"a": 1}


def commit_one_write(env, backend, ssid):
    env.store.begin_snapshot(ssid)
    backend.write_snapshot("op", 0, 0, ssid, {"a": ssid}, set(),
                           lambda: None)
    env.sim.run()
    env.store.commit_snapshot(ssid)


def test_store_retirement_drops_table_versions(env):
    backend = make_squery_backend(env)
    backend.register_vertex("op", 1, lambda i: 0, True)
    for ssid in (1, 2):
        commit_one_write(env, backend, ssid)
    assert env.store.retire_snapshots(keep=1) == [1]
    assert backend.snapshot_table("op").available_ssids() == [2]


def test_a_write_landing_after_its_abort_is_refused(env):
    backend = make_squery_backend(env)
    backend.register_vertex("op", 1, lambda i: 0, True)
    commit_one_write(env, backend, 1)
    env.store.begin_snapshot(2)
    done = []
    backend.write_snapshot("op", 0, 0, 2, {"a": 2}, set(),
                           lambda: done.append(True))
    env.store.abort_snapshot(2)
    env.sim.run()
    assert done == [True]
    assert backend.snapshot_table("op").available_ssids() == [1]


def test_retained_snapshots_from_config(env):
    assert make_squery_backend(env).retained_snapshots == 2
    assert make_squery_backend(
        env, retained_snapshots=5
    ).retained_snapshots == 5


def test_repeatable_read_defers_update_until_lock_released(env):
    """Key-level locking: a mirror write waits for a query's lock."""
    backend = make_squery_backend(env)
    backend.register_vertex("op", 1, lambda i: 0, True)
    backend.on_state_update("op", "k", "v1")
    query = object()
    assert env.store.locks.try_acquire(("op", "k"), query)
    backend.on_state_update("op", "k", "v2")
    # The update is deferred while the query holds the lock.
    assert backend.live_table("op").get("k") == "v1"
    env.store.locks.release(("op", "k"), query)
    assert backend.live_table("op").get("k") == "v2"


def test_full_job_with_squery_backend_populates_both_tables(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=1000,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(2_400)
    live = backend.live_table("average")
    assert len(live) > 0
    table = backend.snapshot_table("average")
    committed = env.store.committed_ssid
    assert committed is not None
    assert table.snapshot_size(committed) > 0
