"""Property-based tests for partitioning and placement invariants."""

from hypothesis import given, settings, strategies as st

from repro.cluster import Partitioner
from repro.cluster.partition import stable_hash
from repro.kvstore import IMap, InstancePlacement


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
