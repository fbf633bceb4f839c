"""Tests for the LSM-backed incremental snapshot tables (§VI-B)."""

import pytest

from repro.errors import SnapshotNotFoundError
from repro.state.lsm_backend import LsmSnapshotTable
from repro.state.view import TableView

from ..conftest import build_average_job, make_squery_backend


def make_table(parallelism=1, **kwargs):
    return LsmSnapshotTable("snapshot_op", parallelism, lambda i: 0,
                            **kwargs)


def test_roundtrip_single_delta():
    table = make_table()
    table.write_instance(1, 0, {"a": 1, "b": 2})
    state, scanned = table.materialize_instance(1, 0)
    assert state == {"a": 1, "b": 2}
    assert scanned >= 2


def test_versions_reconstruct_independently():
    table = make_table()
    table.write_instance(1, 0, {"a": 1, "b": 1})
    table.write_instance(2, 0, {"a": 2})
    assert table.instance_state(1, 0) == {"a": 1, "b": 1}
    assert table.instance_state(2, 0) == {"a": 2, "b": 1}
    assert table.available_ssids() == [1, 2]


def test_tombstones_hide_deleted_keys():
    table = make_table()
    table.write_instance(1, 0, {"a": 1, "b": 2})
    table.write_instance(2, 0, {}, deleted={"a"})
    assert table.instance_state(2, 0) == {"b": 2}
    assert table.instance_state(1, 0) == {"a": 1, "b": 2}


def test_rows_have_snapshot_schema():
    table = make_table()
    table.write_instance(3, 0, {"k": {"count": 1}})
    rows = list(table.rows_for_snapshot(3))
    assert rows == [
        {"partitionKey": "k", "key": "k", "ssid": 3, "count": 1},
    ]


def test_missing_snapshot_raises():
    table = make_table()
    with pytest.raises(SnapshotNotFoundError):
        table.materialize_instance(9, 0)
    with pytest.raises(SnapshotNotFoundError):
        table.entries_on_node(0, 9)


def test_drop_snapshot_advances_watermark_and_gc():
    table = make_table(l0_compaction_threshold=1)
    for ssid in range(1, 8):
        table.write_instance(ssid, 0, {"k": ssid})
    before = table.total_entries()
    for old in range(1, 6):
        table.drop_snapshot(old)
    table.compact_all()
    assert table.total_entries() < before
    assert table.instance_state(7, 0) == {"k": 7}
    assert table.instance_state(6, 0) == {"k": 6}


def test_compaction_bounds_reconstruction_cost():
    """The §VI-B claim: with compaction + GC the scan cost stays near
    the live key count no matter how many checkpoints have passed;
    without, it grows with history."""
    keys = {f"k{i}": 0 for i in range(50)}
    table = make_table(l0_compaction_threshold=2)
    for ssid in range(1, 41):
        table.write_instance(ssid, 0, {k: ssid for k in keys})
        if ssid > 2:
            table.drop_snapshot(ssid - 2)  # keep-2 retention
    cost = table.entries_on_node(0, 40)
    # Bounded: within a small multiple of the live key count, despite
    # 40 checkpoints x 50 keys = 2000 versions written.
    assert cost <= len(keys) * 8


def test_entries_on_node_respects_placement():
    table = LsmSnapshotTable("t", 2, lambda i: i)
    table.write_instance(1, 0, {f"a{i}": i for i in range(5)})
    table.write_instance(1, 1, {f"b{i}": i for i in range(3)})
    assert table.entries_on_node(0, 1) >= 5
    assert table.row_count_on_node(1, 1) == 3
    keys0 = {row["key"] for row in table.rows_on_node(0, 1)}
    assert keys0 == {f"a{i}" for i in range(5)}


def test_multi_version_rows():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {"a": 2})
    rows = list(TableView(table, (1, 2)).rows_on_node(0))
    assert [(r["ssid"], r["value"]) for r in rows] == [(1, 1), (2, 2)]


def test_job_with_lsm_backend_end_to_end(env):
    backend = make_squery_backend(env, incremental=True,
                                  incremental_backend="lsm")
    job = build_average_job(env, backend=backend, rate=2000, keys=12,
                            limit_per_instance=250,
                            checkpoint_interval_ms=400)
    job.start()
    env.run_until(30_000)
    from repro.query import QueryService

    service = QueryService(env)
    result = service.execute(
        'SELECT SUM(count) AS s FROM "snapshot_average"'
    ).result
    assert result.rows[0]["s"] == 750


def test_lsm_and_chain_backends_answer_identically(env):
    answers = {}
    for backend_kind in ("chain", "lsm"):
        from repro import ClusterConfig, Environment

        local_env = Environment(
            ClusterConfig(nodes=3, processing_workers_per_node=2)
        )
        backend = make_squery_backend(
            local_env, incremental=True,
            incremental_backend=backend_kind,
        )
        job = build_average_job(local_env, backend=backend, rate=2000,
                                keys=10, limit_per_instance=200,
                                checkpoint_interval_ms=400)
        job.start()
        local_env.run_until(30_000)
        from repro.query import QueryService

        service = QueryService(local_env)
        result = service.execute(
            'SELECT partitionKey, count, total FROM "snapshot_average" '
            "ORDER BY partitionKey"
        ).result
        answers[backend_kind] = result.tuples()
    assert answers["chain"] == answers["lsm"]


def test_recovery_restores_from_lsm_table(env):
    backend = make_squery_backend(env, incremental=True,
                                  incremental_backend="lsm")
    job = build_average_job(env, backend=backend, rate=2000, keys=10,
                            limit_per_instance=300,
                            checkpoint_interval_ms=400)
    job.start()
    env.run_until(1_500)
    env.cluster.kill_node(2)
    env.run_until(30_000)
    state = job.operator_state("average")
    assert sum(s.count for s in state.values()) == 900


def test_point_rows_and_owner(env):
    table = make_table(parallelism=1)
    table.write_instance(1, 0, {"a": {"v": 1}})
    table.write_instance(2, 0, {"a": {"v": 2}})
    assert table.owner_node_of("a") == 0
    assert table.point_rows("a", 1) == [
        {"partitionKey": "a", "key": "a", "ssid": 1, "v": 1},
    ]
    assert table.point_rows("a", 2)[0]["v"] == 2
    assert table.point_rows("missing", 2) == []
    with pytest.raises(SnapshotNotFoundError):
        table.point_rows("a", 9)


def test_point_lookup_query_with_lsm_backend(env):
    from repro.query import QueryService

    backend = make_squery_backend(env, incremental=True,
                                  incremental_backend="lsm")
    job = build_average_job(env, backend=backend, rate=2000, keys=10,
                            checkpoint_interval_ms=400)
    job.start()
    env.run_until(1_300)
    service = QueryService(env)
    execution = service.execute(
        'SELECT count FROM "snapshot_average" WHERE key = 4'
    )
    assert execution.point_keys == (4,)
    assert len(execution.result) == 1
