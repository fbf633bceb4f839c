"""Tests for the LSM snapshot policy (§VI-B)."""

import pytest

from repro.errors import SnapshotNotFoundError, StoreError
from repro.state import LsmSnapshotTable
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


def test_gc_drops_versions_below_the_watermark():
    table = make_table()
    for ssid in range(1, 11):
        table.write_instance(ssid, 0, {"k": f"v{ssid}"})
    for old in range(1, 8):
        table.drop_snapshot(old)
    table.compact_all()
    # Versions 8, 9 and 10 stay; the seven below go.
    assert table.total_entries() == 3
    for ssid in (8, 9, 10):
        assert table.instance_state(ssid, 0) == {"k": f"v{ssid}"}


def test_a_key_dead_at_the_watermark_vanishes():
    table = make_table()
    table.write_instance(1, 0, {"k": "a", "j": "b"})
    table.write_instance(2, 0, {}, deleted={"k"})
    table.write_instance(3, 0, {"j": "c"})
    table.drop_snapshot(1)
    table.drop_snapshot(2)
    table.compact_all()
    assert table.total_entries() == 1
    assert table.point_rows("k", 3) == []


def test_a_tombstone_stays_while_newer_versions_exist():
    # The watermark is 2: version 1 goes, the tombstone above it stays
    # (version 3 reads through it), and so does the key's rebirth.
    table = make_table()
    table.write_instance(1, 0, {"k": "a"})
    table.write_instance(2, 0, {"k": "b"})
    table.write_instance(3, 0, {}, deleted={"k"})
    table.write_instance(4, 0, {"k": "reborn"})
    table.drop_snapshot(1)
    table.compact_all()
    assert table.total_entries() == 3
    assert table.instance_state(2, 0) == {"k": "b"}
    assert table.instance_state(3, 0) == {}
    assert table.instance_state(4, 0) == {"k": "reborn"}


def test_an_aborted_write_takes_its_runs_with_it():
    # Three runs stay unmerged at threshold 3; had the aborted write's
    # run stayed, the write of 4 would merge and drop version 1.
    table = make_table(l0_compaction_threshold=3)
    for ssid in (1, 2):
        table.write_instance(ssid, 0, {"k": ssid})
    table.drop_snapshot(1)
    table.write_instance(3, 0, {"k": 3})
    table.abort(3)
    table.write_instance(4, 0, {"k": 4})
    assert table.total_entries() == 3
    assert table.materialize_instance(4, 0) == ({"k": 4}, 3)


def test_a_scan_bills_every_stored_version():
    table = make_table()
    for ssid in range(1, 6):
        table.write_instance(ssid, 0, {"k": ssid})
    # Reading version 1 still inspects the four versions above it.
    assert table.materialize_instance(1, 0) == ({"k": 1}, 5)
    assert table.entries_on_node(0, 1) == 5


def test_point_reads_see_each_version():
    table = make_table()
    table.write_instance(1, 0, {"k": "a"})
    table.write_instance(3, 0, {"k": "b"})
    table.write_instance(4, 0, {}, deleted={"k"})
    assert table.point_rows("k", 1)[0]["value"] == "a"
    assert table.point_rows("k", 3)[0]["value"] == "b"
    assert table.point_rows("k", 4) == []


def test_a_read_finds_the_newest_version_at_or_below_it():
    table = make_table()
    for ssid in range(1, 10):
        table.write_instance(ssid, 0,
                             {"k": f"v{ssid}"} if ssid in (2, 5, 9)
                             else {"j": ssid})
    assert table.point_rows("k", 7)[0]["value"] == "v5"
    assert table.point_rows("k", 5)[0]["value"] == "v5"
    assert table.point_rows("k", 4)[0]["value"] == "v2"
    assert table.point_rows("k", 9)[0]["value"] == "v9"


def test_a_key_first_written_later_is_absent_from_older_versions():
    table = make_table()
    table.write_instance(1, 0, {"j": 1})
    table.write_instance(3, 0, {"k": "b"})
    assert table.point_rows("k", 1) == []
    assert table.instance_state(1, 0) == {"j": 1}
    assert table.instance_state(3, 0) == {"k": "b", "j": 1}


def test_a_write_flushes_one_run_per_memtable_limit_entries():
    # 16 entries at a limit of 4 are four runs: at threshold 4 they stay
    # unmerged, and the next write's run is the one past the threshold.
    table = make_table(memtable_limit=4, l0_compaction_threshold=4)
    table.write_instance(1, 0, {i: i for i in range(16)})
    assert table.compactions == 0
    table.write_instance(2, 0, {"x": 1})
    assert table.compactions == 1
    assert table.instance_state(1, 0) == {i: i for i in range(16)}


def test_an_empty_write_adds_no_run():
    table = make_table(l0_compaction_threshold=1)
    for ssid in range(1, 6):
        table.write_instance(ssid, 0, {})
    assert table.compactions == 0
    assert table.available_ssids() == [1, 2, 3, 4, 5]
    table.write_instance(6, 0, {"k": 6})
    assert table.compactions == 0
    table.write_instance(7, 0, {"k": 7})
    assert table.compactions == 1


def test_a_write_spanning_runs_reads_back_whole():
    table = make_table(memtable_limit=2, l0_compaction_threshold=2)
    table.write_instance(1, 0, {"a": "a1", "b": "b1", "c": "c1"})
    table.write_instance(2, 0, {"a": "a2"}, deleted={"b"})
    # Two runs, then a third: the runs merged, with nothing retired.
    assert table.compactions == 1
    assert table.instance_state(1, 0) == {"a": "a1", "b": "b1", "c": "c1"}
    assert table.instance_state(2, 0) == {"a": "a2", "c": "c1"}


def test_merges_past_the_threshold_keep_every_version_readable():
    table = make_table(memtable_limit=2, l0_compaction_threshold=2)
    for i in range(12):
        table.write_instance(i + 1, 0, {i % 4: f"v{i}"})
    assert table.compactions >= 1
    for i in range(12):
        assert table.point_rows(i % 4, i + 1)[0]["value"] == f"v{i}"


def test_a_merge_without_a_watermark_drops_nothing():
    table = make_table(l0_compaction_threshold=1)
    for ssid in range(1, 7):
        table.write_instance(ssid, 0, {"k": ssid})
    table.compact_all()
    assert table.compactions >= 3
    assert table.total_entries() == 6


def test_a_delete_is_stored_and_billed_as_one_entry():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {}, deleted={"a"})
    assert table.total_entries() == 2
    assert table.materialize_instance(2, 0) == ({}, 2)


def test_retirement_alone_reclaims_nothing():
    table = make_table(l0_compaction_threshold=1000)
    for ssid in range(1, 5):
        table.write_instance(ssid, 0, {"k": ssid})
    table.drop_snapshot(1)
    table.drop_snapshot(2)
    assert not table.has_snapshot(1)
    with pytest.raises(SnapshotNotFoundError):
        table.materialize_instance(1, 0)
    assert table.total_entries() == 4
    assert table.materialize_instance(4, 0) == ({"k": 4}, 4)
    table.compact_all()
    # The watermark is 3: the key's version there and the one above.
    assert table.total_entries() == 2
    assert table.materialize_instance(4, 0) == ({"k": 4}, 2)


def test_a_merge_keeps_each_keys_newest_version_below_the_watermark():
    table = make_table()
    table.write_instance(1, 0, {"k": "a", "j": 1})
    for ssid in (2, 3, 4):
        table.write_instance(ssid, 0, {"j": ssid})
    table.drop_snapshot(1)
    table.drop_snapshot(2)
    table.compact_all()
    # j at 3 and 4 stay, and k's only version, at 1, anchors it.
    assert table.total_entries() == 3
    assert table.instance_state(3, 0) == {"j": 3, "k": "a"}
    assert table.instance_state(4, 0) == {"j": 4, "k": "a"}


def test_the_watermark_is_the_oldest_version_still_served():
    table = make_table()
    for ssid in (1, 2, 3):
        table.write_instance(ssid, 0, {"k": ssid})
    # Retiring 2 while 1 is served leaves the watermark at 1.
    table.drop_snapshot(2)
    table.compact_all()
    assert table.total_entries() == 3
    assert table.instance_state(1, 0) == {"k": 1}
    assert table.instance_state(3, 0) == {"k": 3}
    table.drop_snapshot(1)
    table.compact_all()
    assert table.total_entries() == 1
    assert table.instance_state(3, 0) == {"k": 3}


@pytest.mark.parametrize("kwargs", [{"memtable_limit": 0},
                                    {"l0_compaction_threshold": 0}])
def test_invalid_config(kwargs):
    with pytest.raises(StoreError):
        make_table(**kwargs)


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
    backend = make_squery_backend(env, snapshot_backend="lsm")
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
            local_env, snapshot_backend=backend_kind,
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
    backend = make_squery_backend(env, snapshot_backend="lsm")
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

    backend = make_squery_backend(env, snapshot_backend="lsm")
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
