"""Tests for live-state tables (Table I semantics)."""

import gc
import weakref
from dataclasses import dataclass

from repro.kvstore import IMap, InstancePlacement
from repro.state import LiveStateTable


def make_table(parallelism=2, nodes=2):
    placement = InstancePlacement(parallelism, lambda i: i % nodes, nodes)
    return LiveStateTable(IMap("average", placement))


def test_apply_update_upserts():
    table = make_table()
    table.apply_update("k", {"count": 1})
    assert table.get("k") == {"count": 1}
    table.apply_update("k", {"count": 2})
    assert table.get("k") == {"count": 2}
    assert len(table) == 1


def test_apply_update_none_deletes():
    table = make_table()
    table.apply_update("k", {"count": 1})
    table.apply_update("k", None)
    assert table.get("k") is None
    assert len(table) == 0


def test_rows_follow_table_one_schema():
    table = make_table()
    table.apply_update(5, {"count": 3, "total": 45})
    rows = list(table.rows())
    assert rows == [{
        "partitionKey": 5, "key": 5, "count": 3, "total": 45,
    }]


def test_rows_on_node_partitioned_by_instance_placement():
    table = make_table(parallelism=4, nodes=2)
    for key in range(40):
        table.apply_update(key, {"v": key})
    node0 = list(table.rows_on_node(0))
    node1 = list(table.rows_on_node(1))
    assert len(node0) + len(node1) == 40
    assert table.entries_on_node(0) == len(node0)
    assert table.row_count_on_node(1) == len(node1)


def test_replace_partition_refreshes_instance_state():
    table = make_table(parallelism=2)
    # Keys 0 and 2 hash to partition 0; key 1 to partition 1.
    table.apply_update(0, {"v": "old"})
    table.apply_update(2, {"v": "old"})
    table.apply_update(1, {"v": "other-instance"})
    table.replace_partition(0, {0: {"v": "restored"}})
    assert table.get(0) == {"v": "restored"}
    assert table.get(2) is None  # stale key cleared by rollback
    assert table.get(1) == {"v": "other-instance"}  # untouched


def test_name_follows_imap():
    assert make_table().name == "average"


def test_point_rows_and_owner_live():
    table = make_table(parallelism=2, nodes=2)
    table.apply_update(0, {"v": 1})
    assert table.owner_node_of(0) == 0
    assert table.point_rows(0) == [
        {"partitionKey": 0, "key": 0, "v": 1},
    ]
    assert table.point_rows(12345) == []


@dataclass(slots=True, weakref_slot=True)
class Count:
    count: int


def test_a_rewrite_leaves_no_replaced_state_reachable_after_a_scan():
    # Every node's batch (and the columns read from it) answers scans
    # until the table is next written; the first scan after a write
    # drops them all, not just the scanned node's.
    table = make_table(parallelism=4, nodes=2)
    for key in range(40):
        table.apply_update(key, Count(key))
    replaced = [weakref.ref(table.get(key)) for key in range(40)]
    for node in range(2):
        assert table.scan_on_node(node).column("count")
        assert table.scan_on_node(node) is table.scan_on_node(node)
    for key in range(40):
        table.apply_update(key, Count(key + 1))
    assert sorted(table.scan_on_node(0).column("count")) == \
        sorted(key + 1 for key, _ in table.imap.entries_on_node(0))
    gc.collect()
    assert [ref for ref in replaced if ref() is not None] == []
    assert (table.scan_reuses, table.scan_rebuilds) == (4, 3)
