"""Tests for row shaping (Tables I and II)."""

from collections import namedtuple
from dataclasses import dataclass

import pytest

from repro.kvstore.indexes import MISSING
from repro.state.rows import (
    ColumnBatch,
    ColumnReader,
    live_row,
    sanitize_table_name,
    snapshot_row,
    snapshot_table_name,
    value_to_columns,
)


@dataclass
class Point:
    x: int
    y: int


def test_dataclass_fields_become_columns():
    assert value_to_columns(Point(1, 2)) == {"x": 1, "y": 2}


def test_dict_passthrough_copied():
    source = {"a": 1}
    columns = value_to_columns(source)
    assert columns == {"a": 1}
    columns["a"] = 2
    assert source["a"] == 1


def test_namedtuple_fields():
    Pair = namedtuple("Pair", ["left", "right"])
    assert value_to_columns(Pair(1, 2)) == {"left": 1, "right": 2}


def test_scalar_becomes_value_column():
    assert value_to_columns(42) == {"value": 42}
    assert value_to_columns("text") == {"value": "text"}


def test_live_row_table_one_schema():
    row = live_row(7, Point(1, 2))
    assert row == {"partitionKey": 7, "key": 7, "x": 1, "y": 2}


def test_snapshot_row_table_two_schema():
    row = snapshot_row(7, 9, Point(1, 2))
    assert row == {"partitionKey": 7, "key": 7, "ssid": 9, "x": 1, "y": 2}


def test_key_fields_override_value_collisions():
    # A state object with a 'key' field must not mask the partition key.
    row = live_row(7, {"key": "inner", "other": 1})
    assert row["key"] == 7
    assert row["partitionKey"] == 7
    assert row["other"] == 1


def test_sanitize_table_name_matches_paper_convention():
    # The paper: operator "stateful map" -> table "statefulmap".
    assert sanitize_table_name("stateful map") == "statefulmap"
    assert sanitize_table_name("Average") == "average"


def test_snapshot_table_name():
    assert snapshot_table_name("stateful map") == "snapshot_statefulmap"


# -- the column reader ---------------------------------------------------------


@dataclass
class Reading:
    level: int
    unit: str = "C"

    @property
    def double(self):  # an attribute, not a column
        return 2 * self.level


Pair = namedtuple("Pair", ["left", "right"])


class Tagged(dict):
    """A dict subclass is still a mapping of its items."""


VALUES = [
    {"a": 1, "b": None},
    {"b": 2, "a": 1},            # same columns, another order
    {},                          # no columns at all
    Tagged(a=5),
    Reading(3),
    Pair(1, "r"),
    42, "text", None, (1, 2), [1, 2],
]
NAMES = ["a", "b", "level", "unit", "double", "left", "right", "value",
         "key", "partitionKey", "ssid", "absent"]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_a_value_column_is_what_the_row_has(value):
    # What an index or sketch maintains for a column is what the row
    # carries under that name; MISSING exactly where the row has no
    # such column.  (``double`` is a property: the hand-kept index
    # twin read it with getattr.)
    reader = ColumnReader()
    columns = reader.columns(value)
    assert columns == value_to_columns(value)
    for name in NAMES:
        assert reader.get(value, name) is columns.get(name, MISSING) \
            or reader.get(value, name) == columns[name]
    assert reader.get(Reading(3), "double") is MISSING


def test_row_identity_columns_come_from_the_entry():
    reader = ColumnReader()
    assert reader.row(7, Reading(1)) == live_row(7, Reading(1))
    assert reader.row(7, Reading(1), 9) == snapshot_row(7, 9, Reading(1))
    assert list(reader.row(7, {"key": "inner", "x": 1}, 9)) == \
        ["key", "x", "partitionKey", "ssid"]


@pytest.mark.parametrize("ssid", [None, 4])
def test_batch_columns_rows_and_projections_agree(ssid):
    reader = ColumnReader()
    state = {f"k{index}": value for index, value in enumerate(VALUES)}
    batch = ColumnBatch(reader).load(state, ssid)
    rows = [reader.row(key, value, ssid) for key, value in state.items()]
    assert batch.rows() == rows
    assert [batch.row(index) for index in range(len(batch))] == rows
    assert batch.ids == list(state)
    for name in NAMES:
        expected = [row.get(name, MISSING) for row in rows]
        assert batch.column(name) == expected
        assert batch.column(name, 2, 5) == expected[2:5]
        # One value type per chunk takes the per-type fast path.
        for index in range(len(rows)):
            assert batch.column(name, index, index + 1) == \
                expected[index:index + 1]
    keep = ("b", "key", "level", "ssid", "value", "absent", "a")
    project = batch.projector(keep)
    for index, row in enumerate(rows):
        projected = project(index)
        # Stored column order, restricted — not the projection's order.
        assert list(projected.items()) == \
            [(name, value) for name, value in row.items() if name in keep]
    assert batch.projector(None)(4) == rows[4]


def test_a_batch_of_shaped_rows_reads_them_as_they_are():
    rows = [{"key": 1, "partitionKey": 1, "v": 2}, {"key": "x", "w": 3}]
    batch = ColumnBatch(ColumnReader(), rows)
    assert batch.column("key") == [1, "x"]
    assert batch.column("v") == [2, MISSING]
    assert batch.rows() == rows and batch.row(1) is rows[1]
    assert batch.ids is rows
    assert batch.projector(("key", "v"))(0) == {"key": 1, "v": 2}


def test_extending_a_batch_appends_another_version():
    reader = ColumnReader()
    batch = ColumnBatch(reader)
    batch.extend(ColumnBatch(reader).load({"a": 1}, 1))
    batch.extend(ColumnBatch(reader).load({"a": 2, "b": 3}, 2))
    assert batch.rows() == [
        snapshot_row("a", 1, 1), snapshot_row("a", 2, 2),
        snapshot_row("b", 2, 3),
    ]
    assert batch.column("ssid") == [1, 2, 2]


def test_adding_entries_by_key_keeps_their_order_and_repeats():
    batch = ColumnBatch(ColumnReader())
    batch.load({"a": 1, "b": 2, "c": 3}, 5, keys=["c", "a", "c"])
    batch.load({"d": 4}, 5)
    assert batch.keys == ["c", "a", "c", "d"]
    assert batch.column("value") == [3, 1, 3, 4]
    assert batch.ssids == [5, 5, 5, 5]
