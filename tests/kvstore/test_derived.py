"""The derived-structure lifecycle (:mod:`repro.kvstore.derived`) as a
contract over both families and both kinds of holder: a live map's
registries and a snapshot table's per-version registries."""

import re

import pytest

from repro import ClusterConfig, Environment
from repro.errors import StoreError
from repro.state.snapshots import FullSnapshotTable

PARTITIONS = 4
ROWS = {f"k{i}": {"v": i % 7, "w": float(i)} for i in range(60)}

#: family, its DDL arguments, the same slot declared differently.
FAMILIES = [
    pytest.param("index", {"column": "v", "kind": "hash"},
                 {"column": "v", "kind": "sorted"}, id="index"),
    pytest.param("sketch", {"column": "v", "kind": "countmin"},
                 {"column": "v", "kind": "countmin", "width": 64},
                 id="sketch"),
]


@pytest.fixture
def store():
    return Environment(ClusterConfig(nodes=2,
                                     processing_workers_per_node=1)).store


def create(store, family, name, ddl):
    return getattr(store, f"create_{family}")(name, **ddl)


def ops(store, family):
    return getattr(store, f"{family}_maintenance_ops")()


def live_map(store):
    imap = store.create_map("t")
    for key, value in ROWS.items():
        imap.put(key, value)
    return imap


def snapshot_table(store):
    table = FullSnapshotTable("snapshot_t", parallelism=PARTITIONS,
                              node_of_instance=lambda i: i % 2)
    store.register_snapshot_table("snapshot_t", table)
    return table


def write_version(store, table, ssid, commit=True):
    store.begin_snapshot(ssid)
    for instance in range(PARTITIONS):
        table.write_instance(ssid, instance, {
            key: value for key, value in ROWS.items()
            if table.partition_of_key(key) == instance
        })
    if commit:
        store.commit_snapshot(ssid)


def live_holder(store):
    """(table name, family -> the registry DDL on it reaches)."""
    imap = live_map(store)
    return "t", imap.registries.__getitem__


def version_holder(store):
    table = snapshot_table(store)
    write_version(store, table, 1)
    return "snapshot_t", lambda family: table.derived[family].versions[1]


@pytest.mark.parametrize("holder", [live_holder, version_holder])
@pytest.mark.parametrize("family, ddl, conflicting", FAMILIES)
def test_ddl_backfills_is_idempotent_and_rejects_a_conflict(
        store, holder, family, ddl, conflicting):
    name, registry_of = holder(store)
    definition = create(store, family, name, ddl)
    registry = registry_of(family)
    # Backfill touched every stored entry once, and left what a rebuild
    # from the backing store leaves.
    assert ops(store, family) == registry.maintenance_ops == len(ROWS)
    assert registry.coherence_errors() == []
    # An identical definition is the existing one, at no cost ...
    assert create(store, family, name, ddl) is definition
    assert ops(store, family) == len(ROWS)
    assert registry.defs() == [definition]
    # ... a different one in the same slot is refused, in one format.
    with pytest.raises(
        StoreError,
        match=f"cannot create {family} .*: {re.escape(definition.name)}"
              " already exists with a different definition",
    ):
        create(store, family, name, conflicting)
    assert registry.defs() == [definition]


@pytest.mark.parametrize("family, ddl, _conflicting", FAMILIES)
def test_backfill_equals_rebuild(store, family, ddl, _conflicting):
    imap = live_map(store)
    create(store, family, "t", ddl)
    registry = imap.registries[family]
    for partition in range(imap.placement.partition_count):
        registry.rebuild_partition(partition)
    # The rebuild re-touched every entry and found nothing to repair.
    assert registry.maintenance_ops == 2 * len(ROWS)
    assert registry.coherence_errors() == []


@pytest.mark.parametrize("family, ddl, _conflicting", FAMILIES)
def test_every_live_write_path_keeps_the_registry_coherent(
        store, family, ddl, _conflicting):
    imap = live_map(store)
    create(store, family, "t", ddl)
    registry = imap.registries[family]
    before = registry.maintenance_ops

    imap.put("fresh", {"v": 3, "w": 0.5})
    assert registry.coherence_errors() == []
    imap.put("k1", {"v": 5, "w": 1.5})         # overwrite, new value
    imap.put("k2", dict(ROWS["k2"]))           # overwrite, same value
    assert registry.coherence_errors() == []
    assert imap.delete("k3") and not imap.delete("k3")
    assert registry.coherence_errors() == []
    assert registry.maintenance_ops > before

    owned = imap.partitions_on_node(0)
    assert imap.drop_partitions(owned) > 0
    assert registry.coherence_errors() == []
    imap.clear()
    assert len(imap) == 0
    assert registry.coherence_errors() == []
    imap.put("again", {"v": 1, "w": 2.0})
    assert registry.coherence_errors() == []


@pytest.mark.parametrize("family, ddl, _conflicting", FAMILIES)
def test_ddl_on_a_committed_version_freezes_it_at_once(
        store, family, ddl, _conflicting):
    table = snapshot_table(store)
    write_version(store, table, 1)
    write_version(store, table, 2, commit=False)
    assert not table.ready(family, 1)
    create(store, family, "snapshot_t", ddl)
    versions = table.derived[family].versions
    assert table.ready(family, 1) and versions[1].frozen
    # The in-flight version got the backfill too and stays writable
    # until its own commit.
    assert not table.ready(family, 2) and not versions[2].frozen
    table.write_instance(2, 0, {"late": {"v": 1, "w": 1.0}})
    store.commit_snapshot(2)
    assert table.ready(family, 2)
    for ssid in (1, 2):
        assert table.coherence_errors(family, ssid) == []


#: family -> DDL of a second structure beside ``FAMILIES``' first.
SECOND = {"index": {"column": "w", "kind": "sorted"},
          "sketch": {"column": "w", "kind": "reservoir"}}


@pytest.mark.parametrize("family, ddl, _conflicting", FAMILIES)
def test_second_ddl_backfills_a_committed_version_and_refreezes_it(
        store, family, ddl, _conflicting):
    table = snapshot_table(store)
    write_version(store, table, 1)
    first = create(store, family, "snapshot_t", ddl)
    registry = table.derived[family].versions[1]
    messages = []
    table.derived[family].set_mutation_hook(messages.append)
    second = create(store, family, "snapshot_t", SECOND[family])
    assert registry.defs() == sorted([first, second],
                                     key=lambda d: d.slot)
    assert registry.frozen and table.ready(family, 1)
    assert table.coherence_errors(family, 1) == []
    assert messages == []
    # Only DDL may backfill: every other mutation still raises.
    with pytest.raises(StoreError, match="frozen"):
        registry.rebuild_partition(0)
    assert len(messages) == 1


@pytest.mark.parametrize("family, ddl, _conflicting", FAMILIES)
def test_maintenance_ops_stay_monotonic_across_retirement(
        store, family, ddl, _conflicting):
    table = snapshot_table(store)
    create(store, family, "snapshot_t", ddl)
    seen = [ops(store, family)]
    for ssid in (1, 2, 3):
        write_version(store, table, ssid)
        seen.append(ops(store, family))
        store.retire_snapshots(keep=1)
        seen.append(ops(store, family))
    assert store.available_ssids() == [3]
    assert list(table.derived[family].versions) == [3]
    assert seen == sorted(seen)
    # Three versions were built entry by entry; the two retired ones
    # still count.
    assert seen[1] >= len(ROWS)
    assert seen[-1] == 3 * seen[1]
