"""Tests for full snapshot tables (Table II semantics)."""

import pytest

from repro.errors import SnapshotNotFoundError
from repro.state import FullSnapshotTable
from repro.state.view import TableView


def make_table(parallelism=2, nodes=2):
    return FullSnapshotTable("snapshot_op", parallelism,
                             lambda i: i % nodes)


def test_write_and_read_instance_state():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(1, 1, {"b": 2})
    assert table.instance_state(1, 0) == {"a": 1}
    assert table.instance_state(1, 1) == {"b": 2}
    assert table.instance_state(1, 5) == {}  # unknown instance: empty


def test_rows_carry_key_and_ssid():
    table = make_table()
    table.write_instance(9, 0, {"a": {"count": 3}})
    rows = list(table.rows_for_snapshot(9))
    assert rows == [
        {"partitionKey": "a", "key": "a", "ssid": 9, "count": 3},
    ]


def test_versions_are_independent():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {"a": 99})
    assert table.instance_state(1, 0) == {"a": 1}
    assert table.instance_state(2, 0) == {"a": 99}
    assert table.available_ssids() == [1, 2]


def test_rows_all_versions_tagged():
    table = make_table()
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {"a": 2})
    view = TableView(table, tuple(table.available_ssids()))
    assert [row["ssid"] for row in view.rows_on_node(0)] == [1, 2]


def test_missing_snapshot_raises():
    table = make_table()
    with pytest.raises(SnapshotNotFoundError):
        list(table.rows_for_snapshot(5))
    with pytest.raises(SnapshotNotFoundError):
        table.instance_state(5, 0)
    with pytest.raises(SnapshotNotFoundError):
        table.entries_on_node(0, 5)


def test_drop_snapshot_constant_memory():
    """Keep-2 retention means total entries stay bounded (§VI-A)."""
    table = make_table()
    for ssid in range(1, 20):
        table.write_instance(ssid, 0, {k: ssid for k in range(100)})
        if ssid > 2:
            table.drop_snapshot(ssid - 2)
    assert table.total_entries() == 200
    assert table.available_ssids() == [18, 19]


def test_drop_missing_snapshot_is_noop():
    make_table().drop_snapshot(42)


def test_rows_on_node_respects_placement():
    table = make_table(parallelism=4, nodes=2)
    for instance in range(4):
        table.write_instance(1, instance, {f"k{instance}": instance})
    node0_keys = {row["key"] for row in table.rows_on_node(0, 1)}
    node1_keys = {row["key"] for row in table.rows_on_node(1, 1)}
    assert node0_keys == {"k0", "k2"}
    assert node1_keys == {"k1", "k3"}


def test_entries_and_row_counts():
    table = make_table(parallelism=2, nodes=2)
    table.write_instance(1, 0, {k: k for k in range(10)})
    table.write_instance(1, 1, {k: k for k in range(5)})
    assert table.entries_on_node(0, 1) == 10
    assert table.entries_on_node(1, 1) == 5
    assert table.row_count_on_node(0, 1) == 10
    assert table.snapshot_size(1) == 15


def test_write_is_copy():
    table = make_table()
    payload = {"a": 1}
    table.write_instance(1, 0, payload)
    payload["a"] = 2
    assert table.instance_state(1, 0) == {"a": 1}


def test_placement_follows_reassignment():
    assignment = {0: 0, 1: 1}
    table = FullSnapshotTable("t", 2, assignment.__getitem__)
    table.write_instance(1, 1, {"x": 1})
    assert table.entries_on_node(1, 1) == 1
    assignment[1] = 0  # instance rescheduled
    assert table.entries_on_node(1, 1) == 0
    assert table.entries_on_node(0, 1) == 1


def test_point_rows_full_table():
    table = make_table(parallelism=2, nodes=2)
    table.write_instance(1, 0, {2: {"v": 20}})
    table.write_instance(1, 1, {3: {"v": 30}})
    assert table.owner_node_of(2) == 0
    assert table.owner_node_of(3) == 1
    assert table.point_rows(2, 1) == [
        {"partitionKey": 2, "key": 2, "ssid": 1, "v": 20},
    ]
    assert table.point_rows(999, 1) == []
