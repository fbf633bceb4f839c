"""Tests for incremental snapshot tables: backward reconstruction,
coverage-based early termination, tombstones, and pruning."""

import pytest

from repro.errors import SnapshotNotFoundError
from repro.state import IncrementalSnapshotTable, LsmSnapshotTable


def make_table(parallelism=1, prune=8):
    return IncrementalSnapshotTable(
        "snapshot_op", parallelism, lambda i: 0, prune_chain_length=prune
    )


def test_single_delta_reconstruction():
    table = make_table()
    table.write_instance(1, 0, {"a": 1, "b": 2})
    state, scanned = table.materialize_instance(1, 0)
    assert state == {"a": 1, "b": 2}
    assert scanned == 2


def test_newest_version_wins():
    table = make_table()
    table.write_instance(1, 0, {"a": 1, "b": 1})
    table.write_instance(2, 0, {"a": 2})
    state, _ = table.materialize_instance(2, 0)
    assert state == {"a": 2, "b": 1}


def test_reconstruction_at_older_ssid_ignores_newer_deltas():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {"a": 2})
    state, _ = table.materialize_instance(1, 0)
    assert state == {"a": 1}


def test_tombstone_hides_deleted_key():
    table = make_table()
    table.write_instance(1, 0, {"a": 1, "b": 2})
    table.write_instance(2, 0, {}, deleted={"a"})
    state, _ = table.materialize_instance(2, 0)
    assert state == {"b": 2}
    # The older snapshot still shows the key.
    earlier, _ = table.materialize_instance(1, 0)
    assert earlier == {"a": 1, "b": 2}


def test_delete_then_reinsert():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {}, deleted={"a"})
    table.write_instance(3, 0, {"a": 3})
    assert table.materialize_instance(3, 0)[0] == {"a": 3}
    assert table.materialize_instance(2, 0)[0] == {}


def test_coverage_early_termination_bounds_scan():
    """When the newest delta covers every live key, reconstruction must
    not walk the whole chain."""
    table = make_table()
    keys = {f"k{i}": 0 for i in range(100)}
    for ssid in range(1, 11):
        table.write_instance(ssid, 0, {k: ssid for k in keys})
    state, scanned = table.materialize_instance(10, 0)
    assert all(v == 10 for v in state.values())
    assert scanned == 100  # one delta, not ten


def test_sparse_deltas_walk_backwards():
    table = make_table(prune=100)
    table.write_instance(1, 0, {f"k{i}": 1 for i in range(100)})
    for ssid in range(2, 8):
        table.write_instance(ssid, 0, {f"k{ssid}": ssid * 10})
    state, scanned = table.materialize_instance(7, 0)
    assert len(state) == 100
    assert state["k7"] == 70
    assert state["k99"] == 1
    # Walks all six small deltas plus the full first one.
    assert scanned == 100 + 6


def test_missing_snapshot_raises():
    table = make_table()
    with pytest.raises(SnapshotNotFoundError):
        table.materialize_instance(3, 0)


def test_unknown_instance_is_empty():
    table = make_table(parallelism=2)
    table.write_instance(1, 0, {"a": 1})
    assert table.materialize_instance(1, 1) == ({}, 0)


def test_materialize_merges_instances():
    table = IncrementalSnapshotTable("t", 2, lambda i: i)
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(1, 1, {"b": 2})
    state, _ = table.materialize(1)
    assert state == {"a": 1, "b": 2}


def test_rows_have_snapshot_schema():
    table = make_table()
    table.write_instance(4, 0, {"k": {"count": 1}})
    rows = list(table.rows_for_snapshot(4))
    assert rows == [
        {"partitionKey": "k", "key": "k", "ssid": 4, "count": 1},
    ]


def test_entries_on_node_reports_walk_cost():
    table = make_table(prune=100)
    table.write_instance(1, 0, {f"k{i}": 1 for i in range(50)})
    table.write_instance(2, 0, {"k0": 2})
    walk = table.entries_on_node(0, 2)
    rows = table.row_count_on_node(0, 2)
    assert walk == 51  # 1 delta entry + 50 base entries
    assert rows == 50


def test_pruning_compacts_long_chains():
    table = make_table(prune=3)
    table.write_instance(1, 0, {f"k{i}": 1 for i in range(20)})
    for ssid in range(2, 8):
        table.write_instance(ssid, 0, {"k1": ssid})
    assert table.chain_length(0) == 7
    table.compact(7)
    assert table.compactions == 1
    assert table.chain_length(0) == 0  # base at 7, nothing above
    state, scanned = table.materialize_instance(7, 0)
    assert state["k1"] == 7
    assert len(state) == 20
    assert scanned == 20  # reads the base only
    assert table.compactions == 1


def test_pruning_preserves_later_deltas():
    table = make_table(prune=2)
    table.write_instance(1, 0, {"a": 1, "b": 1})
    table.write_instance(2, 0, {"a": 2})
    table.write_instance(3, 0, {"b": 3})
    table.write_instance(4, 0, {"a": 4})
    # Compact up to ssid 3 (e.g. retention keeps 3 and 4).
    table.compact(3)
    assert table.compactions == 1
    assert table.materialize_instance(3, 0)[0] == {"a": 2, "b": 3}
    assert table.materialize_instance(4, 0)[0] == {"a": 4, "b": 3}


def test_prune_below_threshold_is_noop():
    table = make_table(prune=10)
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {"a": 2})
    table.compact(2)
    assert table.compactions == 0


def test_prune_boundary_exact_length_is_noop():
    """A chain of *exactly* prune_chain_length deltas must not fold:
    the bound is strict-greater, so folding starts at bound + 1."""
    bound = 4
    table = make_table(prune=bound)
    for ssid in range(1, bound + 1):
        table.write_instance(ssid, 0, {"a": ssid})
    assert table.chain_length(0) == bound
    table.compact(bound)
    assert table.compactions == 0
    assert table.chain_length(0) == bound  # chain untouched

    # One more delta crosses the bound: now the fold happens.
    table.write_instance(bound + 1, 0, {"a": bound + 1})
    assert table.chain_length(0) == bound + 1
    table.compact(bound + 1)
    assert table.compactions == 1
    assert table.chain_length(0) == 0  # folded into a base
    state, scanned = table.materialize_instance(bound + 1, 0)
    assert state == {"a": bound + 1}
    assert scanned == 1  # base read only, no chain walk


def test_tombstone_then_reinsert_survives_fold():
    """Folding a chain that contains delete-then-reinsert history must
    keep the reinserted value (and only it) in the new base."""
    table = make_table(prune=2)
    table.write_instance(1, 0, {"a": 1, "b": 1})
    table.write_instance(2, 0, {}, deleted={"a"})
    table.write_instance(3, 0, {"a": 30})
    table.compact(3)
    assert table.compactions == 1
    state, scanned = table.materialize_instance(3, 0)
    assert state == {"a": 30, "b": 1}
    assert scanned == 2  # the folded base holds exactly the live keys
    # The fold must not resurrect tombstoned history: a key deleted and
    # NOT reinserted stays gone after compaction too.
    table.write_instance(4, 0, {}, deleted={"b"})
    table.write_instance(5, 0, {"c": 5})
    table.write_instance(6, 0, {"c": 6})
    table.compact(6)
    assert table.compactions == 2
    assert table.materialize_instance(6, 0)[0] == {"a": 30, "c": 6}


def test_drop_snapshot_is_deferred():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {"b": 2})
    table.drop_snapshot(1)  # must NOT break reconstruction through 1
    assert table.materialize_instance(2, 0)[0] == {"a": 1, "b": 2}


def test_total_entries_counts_all_versions():
    table = make_table()
    table.write_instance(1, 0, {"a": 1, "b": 1})
    table.write_instance(2, 0, {"a": 2})
    assert table.total_entries() == 3


def test_cache_consistent_with_fresh_walk():
    table = make_table(prune=100)
    for ssid in range(1, 6):
        table.write_instance(ssid, 0, {f"k{ssid}": ssid, "shared": ssid})
    first = table.materialize_instance(5, 0)
    second = table.materialize_instance(5, 0)  # cached
    assert first == second


def test_cache_result_is_isolated_copy():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    state, _ = table.materialize_instance(1, 0)
    state["a"] = 999
    assert table.materialize_instance(1, 0)[0] == {"a": 1}


@pytest.mark.parametrize("backend",
                         [IncrementalSnapshotTable, LsmSnapshotTable])
def test_a_write_replaces_what_a_read_before_it_reconstructed(backend):
    # A version is read while its checkpoint is in flight (an index
    # backfill does): the instance's later write for it must win.
    table = backend("snapshot_op", 2, lambda i: 0)
    table.write_instance(1, 0, {"k0": 1})
    table.write_instance(1, 1, {"k1": 1})
    table.write_instance(2, 0, {"k0": 2})
    assert table.materialize_instance(2, 1)[0] == {"k1": 1}
    table.write_instance(2, 1, {"k1": 2})
    assert table.materialize_instance(2, 1)[0] == {"k1": 2}
