"""Property-based tests for partitioning and placement invariants."""

import os

from hypothesis import given, settings, strategies as st

from repro.cluster import Partitioner
from repro.cluster.partition import stable_hash
from repro.kvstore import IMap, InstancePlacement
from repro.kvstore.indexes import MISSING
from repro.state.live import LiveStateTable
from repro.state.rows import ColumnReader


keys = st.one_of(
    st.integers(min_value=0, max_value=10**9),
    st.text(max_size=20),
    st.tuples(st.integers(), st.text(max_size=5)),
)


@settings(max_examples=80)
@given(keys)
def test_stable_hash_deterministic_and_non_negative(key):
    assert stable_hash(key) == stable_hash(key)
    assert stable_hash(key) >= 0


@settings(max_examples=80)
@given(keys, st.integers(min_value=1, max_value=271),
       st.integers(min_value=1, max_value=9))
def test_partition_and_owner_in_range(key, partitions, nodes):
    part = Partitioner(partitions, nodes, backup_count=0)
    partition = part.partition_of(key)
    assert 0 <= partition < partitions
    assert 0 <= part.owner_of(key) < nodes


@settings(max_examples=80)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=8, max_value=64))
def test_every_partition_has_distinct_backup(nodes, partitions):
    part = Partitioner(partitions, nodes, backup_count=1)
    for partition in range(partitions):
        owner = part.owner_of_partition(partition)
        backups = part.backups_of_partition(partition)
        assert owner not in backups


@settings(max_examples=80)
@given(st.integers(min_value=2, max_value=6))
def test_reassignment_leaves_no_partition_on_dead_node(nodes):
    part = Partitioner(32, nodes, backup_count=1)
    dead = nodes - 1
    part.reassign_node(dead)
    for partition in range(32):
        assert part.owner_of_partition(partition) != dead


@settings(max_examples=80)
@given(st.lists(st.tuples(keys, st.integers()), max_size=50),
       st.integers(min_value=1, max_value=7))
def test_imap_matches_plain_dict(entries, parallelism):
    placement = InstancePlacement(parallelism, lambda i: i % 3, 3)
    imap = IMap("m", placement)
    reference = {}
    for key, value in entries:
        imap.put(key, value)
        reference[key] = value
    assert dict(imap.entries()) == reference
    assert len(imap) == len(reference)
    for key, value in reference.items():
        assert imap.get(key) == value


@settings(max_examples=80)
@given(st.lists(st.integers(min_value=0, max_value=100), max_size=60),
       st.integers(min_value=1, max_value=7))
def test_imap_node_views_partition_the_data(values, parallelism):
    placement = InstancePlacement(parallelism, lambda i: i % 3, 3)
    imap = IMap("m", placement)
    for value in values:
        imap.put(value, value)
    union = {}
    total = 0
    for node in range(3):
        view = dict(imap.entries_on_node(node))
        assert not set(view) & set(union)
        union.update(view)
        total += len(view)
    assert union == dict(imap.entries())
    assert total == len(imap)


#: Examples of the batch-reuse property; the CI exactness step raises it.
BATCH_REUSE_EXAMPLES = int(os.environ.get("BATCH_REUSE_EXAMPLES", "80"))
NODES = 3
COLUMNS = ("a", "b", "c", "value", "key", "partitionKey")

stored = st.one_of(
    st.integers(-5, 5),
    st.dictionaries(st.sampled_from(("a", "b", "c")),
                    st.one_of(st.integers(-5, 5), st.text(max_size=2)),
                    max_size=3),
)
small_keys = st.integers(0, 24)
operations = st.lists(st.one_of(
    st.tuples(st.just("put"), small_keys, stored),
    st.tuples(st.just("delete"), small_keys),
    st.tuples(st.just("drop"), st.lists(st.integers(0, 5), max_size=3)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("replace"), st.integers(0, 5),
              st.dictionaries(small_keys, stored, max_size=4)),
    st.tuples(st.sampled_from(("fail", "promote", "restart")),
              st.integers(0, NODES - 1)),
), max_size=30)


@settings(max_examples=BATCH_REUSE_EXAMPLES)
@given(operations, st.integers(min_value=1, max_value=6))
def test_a_reused_node_batch_equals_a_fresh_read(ops, parallelism):
    """However writes, partition drops, rollbacks, node failures,
    backup promotions and restarts interleave with node scans, the
    batch a scan returns (the node's previous one while nothing
    changed) holds exactly the keys, values and columns a fresh read of
    the node's partitions does."""
    home = {instance: instance % NODES for instance in range(parallelism)}
    assignment = dict(home)
    imap = IMap("m", InstancePlacement(parallelism, assignment.__getitem__,
                                       NODES))
    table = LiveStateTable(imap)
    for op, *args in [("start",)] + ops:
        if op == "put":
            imap.put(*args)
        elif op == "delete":
            imap.delete(*args)
        elif op == "drop":
            imap.drop_partitions(p for p in args[0] if p < parallelism)
        elif op == "clear":
            imap.clear()
        elif op == "replace":
            if args[0] < parallelism:
                table.replace_partition(*args)
        elif op in ("fail", "promote"):
            # A node dies: its instances move to a survivor, which
            # either lost their live partitions (the store drops them)
            # or held a backup of them (the entries move unwritten).
            if op == "fail":
                imap.drop_partitions(imap.partitions_on_node(args[0]))
            for instance, node in assignment.items():
                if node == args[0]:
                    assignment[instance] = (node + 1) % NODES
        elif op == "restart":
            for instance, node in home.items():
                if node == args[0]:
                    assignment[instance] = node
        for node in range(NODES):
            batch = table.scan_on_node(node)
            keys, values = [], []
            for partition in imap.partitions_on_node(node):
                state = imap.partition_state(partition)
                keys.extend(state)
                values.extend(state.values())
            assert batch.keys == keys
            assert batch.values == values
            rows = list(map(ColumnReader().row, keys, values))
            for name in COLUMNS:
                column = [row.get(name, MISSING) for row in rows]
                assert batch.column(name) == column
                assert batch.column(name, 1, 3) == column[1:3]
    assert table.scan_reuses + table.scan_rebuilds == NODES * (len(ops) + 1)
