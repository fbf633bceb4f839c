"""Contract of :class:`repro.state.view.TableView`: whatever table family,
backend and version binding is behind it, reads through the view equal
the table's own per-version methods, and every backend serves the
partition reads of a single-version view."""

import pytest

from repro import ClusterConfig, Environment
from repro.errors import SnapshotNotFoundError
from repro.kvstore.derived import FAMILIES
from repro.state.live import LiveStateTable
from repro.state.snapshots import (
    FullSnapshotTable, IncrementalSnapshotTable, LsmSnapshotTable,
)
from repro.state.view import TableView

NODES = [0, 1]
PARALLELISM = 4
KEYS = [f"k{i}" for i in range(24)]


def live_table():
    env = Environment(ClusterConfig(nodes=len(NODES),
                                    processing_workers_per_node=1))
    table = LiveStateTable(env.store.create_map("t"))
    for index, key in enumerate(KEYS):
        table.apply_update(key, {"v": index})
    return table


def snapshot_table(cls):
    """Two versions; the second updates a third of the keys and, on the
    delta backends, deletes one."""
    table = cls("snapshot_t", PARALLELISM, lambda instance: instance % 2)
    delta = cls is not FullSnapshotTable
    for instance in range(PARALLELISM):
        mine = [(index, key) for index, key in enumerate(KEYS)
                if table.partition_of_key(key) == instance]
        first = {key: {"v": index} for index, key in mine}
        table.write_instance(1, instance, first)
        changed = {key: {"v": -index} for index, key in mine
                   if index % 3 == 0}
        if delta:
            table.write_instance(2, instance, changed,
                                 deleted={key for _, key in mine[-1:]})
        else:
            table.write_instance(2, instance, {**first, **changed})
    return table


BACKENDS = {
    "full": FullSnapshotTable,
    "incremental": IncrementalSnapshotTable,
    "lsm": LsmSnapshotTable,
}
CASES = [("live", None)] + [
    (backend, versions)
    for backend in BACKENDS for versions in ((1,), (1, 2))
]


def build(backend):
    if backend == "live":
        return live_table()
    return snapshot_table(BACKENDS[backend])


@pytest.mark.parametrize("backend, versions", CASES)
def test_reads_equal_the_per_version_table_calls(backend, versions):
    table = build(backend)
    view = TableView(table, versions)
    each = [()] if versions is None else [(ssid,) for ssid in versions]
    for node in NODES:
        assert list(view.rows_on_node(node)) == [
            row for args in each for row in table.rows_on_node(node, *args)
        ]
        assert view.entries_on_node(node) == sum(
            table.entries_on_node(node, *args) for args in each
        )
        assert view.row_count_on_node(node) == sum(
            table.row_count_on_node(node, *args) for args in each
        )
        assert view.row_count_on_node(node) == \
            len(list(view.rows_on_node(node)))
        assert view.partitions_on_node(node) == \
            table.partitions_on_node(node)
    for key in KEYS + ["absent"]:
        assert view.point_rows(key) == [
            row for args in each for row in table.point_rows(key, *args)
        ]
        assert view.owner_node_of(key) == table.owner_node_of(key)
        assert view.partition_of_key(key) == table.partition_of_key(key)
    partitions, entries = view.partitions_and_entries(NODES)
    assert partitions == [p for node in NODES
                          for p in table.partitions_on_node(node)]
    assert entries == sum(view.entries_on_node(node) for node in NODES)


@pytest.mark.parametrize("backend, versions", CASES)
def test_declared_capabilities_match_the_backend(backend, versions):
    """Whatever the backend, a single-version view serves the partition
    reads, and a node's partitions bill what a read of the whole node
    bills."""
    table = build(backend)
    view = TableView(table, versions)
    assert view.immutable is (versions is not None)
    assert view.single_version is (versions is None or len(versions) == 1)
    # Nothing was indexed or sketched.
    for family in FAMILIES:
        assert view.ready(family) is False
    if not view.single_version:
        return
    args = () if versions is None else versions
    for node in NODES:
        partitions = view.partitions_on_node(node)
        assert sum(map(view.partition_entry_count, partitions)) == \
            view.entries_on_node(node)
        assert view.scan_partitions(partitions).rows() == \
            list(view.rows_on_node(node))
        for partition in partitions:
            rows = list(view.rows_in_partition(partition))
            assert rows == list(table.rows_in_partition(partition, *args))
            assert view.partition_entry_count(partition) == \
                table.partition_entry_count(partition, *args)
            keys = [row["key"] for row in rows]
            assert view.partition_key_bounds(partition) == (
                (min(keys), max(keys)) if keys else None
            )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("versions", [(99,), (1, 99)])
def test_unknown_ssid_raises_from_the_read_that_needs_it(backend,
                                                         versions):
    view = TableView(build(backend), versions)
    # Binding and placement never touch a version ...
    assert view.owner_node_of(KEYS[0]) in NODES
    assert view.partitions_on_node(NODES[0])
    # ... every read does; row iteration raises lazily, as the tables'
    # own generators do.
    with pytest.raises(SnapshotNotFoundError):
        view.entries_on_node(NODES[0])
    with pytest.raises(SnapshotNotFoundError):
        view.row_count_on_node(NODES[0])
    with pytest.raises(SnapshotNotFoundError):
        view.point_rows(KEYS[0])
    rows = view.rows_on_node(NODES[0])
    with pytest.raises(SnapshotNotFoundError):
        list(rows)
