"""Tests for per-partition secondary indexes (repro.kvstore.indexes)."""

import pytest

from repro.errors import StoreError
from repro.kvstore.indexes import (
    MISSING,
    EqProbe,
    IndexDef,
    IndexRegistry,
    RangeProbe,
)


def make_registry(partitions=2, defs=()):
    """A registry over plain dict partitions the test mutates directly.

    Returns ``(registry, backing)``; keep them in sync by calling
    ``put``/``remove`` below.
    """
    backing = {p: {} for p in range(partitions)}
    registry = IndexRegistry(partitions,
                             lambda p: backing[p].items())
    for definition in defs:
        registry.add_definition(definition)
    return registry, backing


def put(registry, backing, partition, key, value):
    old = backing[partition].get(key, MISSING)
    registry.on_put(partition, key, old, value)
    backing[partition][key] = value


def remove(registry, backing, partition, key):
    old = backing[partition].pop(key)
    registry.on_remove(partition, key, old)


# -- value extraction --------------------------------------------------------


def test_index_covers_columns_not_attributes():
    # The index reads values through the row-shaping reader: only what
    # is a column of the row can be indexed.  A @property (or any other
    # non-field attribute) of a dataclass is no column; the hand-kept
    # ``extract_index_value`` used getattr and indexed it anyway.
    from dataclasses import dataclass

    @dataclass
    class State:
        count: int

        @property
        def double(self):
            return 2 * self.count

    registry, backing = make_registry(
        1, [IndexDef("count", "hash"), IndexDef("double", "hash")]
    )
    put(registry, backing, 0, "k", State(count=3))
    assert registry.probe_keys(0, "count", EqProbe(values=(3,))) == ["k"]
    # Rows lack the column, so the partition cannot be probed soundly.
    assert registry.probe_keys(0, "double", EqProbe(values=(6,))) is None
    assert registry.coherence_errors() == []


# -- definitions -------------------------------------------------------------


def test_index_def_validate_rejects_bad_definitions():
    with pytest.raises(StoreError):
        IndexDef("", "hash").validate()
    with pytest.raises(StoreError):
        IndexDef("key", "hash").validate()  # row-identity column
    with pytest.raises(StoreError):
        IndexDef("v", "btree").validate()  # unknown kind
    IndexDef("v", "sorted").validate()  # fine


def test_add_definition_idempotent_and_kind_conflict():
    registry, backing = make_registry()
    first = registry.add_definition(IndexDef("v", "hash"))
    again = registry.add_definition(IndexDef("v", "hash"))
    assert first is again
    assert len(registry) == 1
    with pytest.raises(StoreError):
        registry.add_definition(IndexDef("v", "sorted"))


def test_add_definition_backfills_existing_entries():
    registry, backing = make_registry()
    put(registry, backing, 0, "a", {"v": 1})
    put(registry, backing, 1, "b", {"v": 1})
    registry.add_definition(IndexDef("v", "hash"))
    assert registry.probe_count(0, "v", EqProbe((1,))) == (1, 1)
    assert registry.probe_count(1, "v", EqProbe((1,))) == (1, 1)
    assert registry.coherence_errors() == []


def test_column_kinds_sorted():
    registry, _ = make_registry(
        defs=[IndexDef("z", "sorted"), IndexDef("a", "hash")]
    )
    assert registry.column_kinds() == {"a": "hash", "z": "sorted"}
    assert [d.column for d in registry.defs()] == ["a", "z"]


# -- hash probes -------------------------------------------------------------


def test_hash_insert_remove_probe():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    for key in range(10):
        put(registry, backing, 0, key, {"v": key % 3})
    assert registry.probe_count(0, "v", EqProbe((0,))) == (1, 4)
    assert registry.probe_keys(0, "v", EqProbe((0,))) == [0, 3, 6, 9]
    assert registry.probe_keys(0, "v", EqProbe((1, 2))) == \
        [1, 2, 4, 5, 7, 8]
    remove(registry, backing, 0, 3)
    assert registry.probe_keys(0, "v", EqProbe((0,))) == [0, 6, 9]
    assert registry.coherence_errors() == []


def test_hash_rejects_range_probe():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    put(registry, backing, 0, "a", {"v": 1})
    assert registry.probe_count(0, "v", RangeProbe(low=0)) is None
    assert registry.probe_keys(0, "v", RangeProbe(low=0)) is None


def test_unknown_column_is_unprobeable():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    assert registry.probe_count(0, "w", EqProbe((1,))) is None
    assert registry.probe_keys(0, "w", EqProbe((1,))) is None


def test_absent_column_disables_probing():
    # A probe would silently skip rows lacking the column while a scan
    # raises "unknown column" — so any absence must veto the index.
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    put(registry, backing, 0, "a", {"v": 1})
    put(registry, backing, 0, "b", {"other": 2})
    assert registry.probe_count(0, "v", EqProbe((1,))) is None
    remove(registry, backing, 0, "b")
    assert registry.probe_count(0, "v", EqProbe((1,))) == (1, 1)


def test_unhashable_value_degrades_partition():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    put(registry, backing, 0, "a", {"v": 1})
    put(registry, backing, 0, "b", {"v": [1, 2]})  # unhashable
    assert registry.probe_count(0, "v", EqProbe((1,))) is None
    # Other partitions are unaffected.
    put(registry, backing, 1, "c", {"v": 1})
    assert registry.probe_count(1, "v", EqProbe((1,))) == (1, 1)


def test_needs_str_gated_on_non_string_values():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    put(registry, backing, 0, "a", {"v": "x"})
    put(registry, backing, 0, "b", {"v": 7})
    probe = EqProbe(("x",), needs_str=True)
    assert registry.probe_count(0, "v", probe) is None
    assert registry.probe_count(0, "v", EqProbe(("x",))) == (1, 1)
    remove(registry, backing, 0, "b")
    assert registry.probe_count(0, "v", probe) == (1, 1)


# -- sorted probes -----------------------------------------------------------


def test_sorted_range_probe_bounds():
    registry, backing = make_registry(defs=[IndexDef("v", "sorted")])
    for key in range(10):
        put(registry, backing, 0, key, {"v": key})
    closed = RangeProbe(low=3, high=6)
    assert registry.probe_count(0, "v", closed) == (1, 4)
    assert registry.probe_keys(0, "v", closed) == [3, 4, 5, 6]
    half_open = RangeProbe(low=3, high=6, low_inclusive=False,
                           high_inclusive=False)
    assert registry.probe_keys(0, "v", half_open) == [4, 5]
    assert registry.probe_keys(0, "v", RangeProbe(high=1)) == [0, 1]
    assert registry.probe_keys(0, "v", RangeProbe(low=8)) == [8, 9]
    assert registry.probe_count(0, "v", RangeProbe(low=100)) == (1, 0)


def test_sorted_eq_probe_and_duplicates():
    registry, backing = make_registry(defs=[IndexDef("v", "sorted")])
    for key in range(6):
        put(registry, backing, 0, key, {"v": key % 2})
    assert registry.probe_count(0, "v", EqProbe((0,))) == (1, 3)
    assert registry.probe_keys(0, "v", EqProbe((0,))) == [0, 2, 4]


def test_sorted_excludes_nulls_but_stays_coherent():
    registry, backing = make_registry(defs=[IndexDef("v", "sorted")])
    put(registry, backing, 0, "a", {"v": 1})
    put(registry, backing, 0, "b", {"v": None})
    # NULL never satisfies a range predicate; probing stays sound.
    assert registry.probe_keys(0, "v", RangeProbe(low=0)) == ["a"]
    assert registry.coherence_errors() == []
    remove(registry, backing, 0, "b")
    assert registry.coherence_errors() == []


def test_sorted_incomparable_values_degrade_partition():
    registry, backing = make_registry(defs=[IndexDef("v", "sorted")])
    put(registry, backing, 0, "a", {"v": 1})
    put(registry, backing, 0, "b", {"v": "text"})  # int vs str
    assert registry.probe_count(0, "v", RangeProbe(low=0)) is None


def test_sorted_incomparable_probe_value_returns_none():
    registry, backing = make_registry(defs=[IndexDef("v", "sorted")])
    put(registry, backing, 0, "a", {"v": 1})
    assert registry.probe_count(
        0, "v", RangeProbe(low="text")
    ) is None


# -- insertion-order ranks ---------------------------------------------------


def test_probe_keys_follow_dict_iteration_order():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    for key in ("c", "a", "b"):
        put(registry, backing, 0, key, {"v": 1})
    assert registry.probe_keys(0, "v", EqProbe((1,))) == \
        list(backing[0]) == ["c", "a", "b"]


def test_overwrite_keeps_rank_delete_reinsert_moves_to_end():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    for key in ("a", "b", "c"):
        put(registry, backing, 0, key, {"v": 1})
    put(registry, backing, 0, "a", {"v": 1})  # overwrite: keeps slot
    assert registry.probe_keys(0, "v", EqProbe((1,))) == \
        list(backing[0]) == ["a", "b", "c"]
    remove(registry, backing, 0, "a")
    put(registry, backing, 0, "a", {"v": 1})  # re-insert: moves to end
    assert registry.probe_keys(0, "v", EqProbe((1,))) == \
        list(backing[0]) == ["b", "c", "a"]
    assert registry.coherence_errors() == []


# -- freezing ----------------------------------------------------------------


def test_frozen_registry_rejects_all_maintenance():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    put(registry, backing, 0, "a", {"v": 1})
    registry.freeze()
    assert registry.frozen
    with pytest.raises(StoreError):
        registry.on_put(0, "b", MISSING, {"v": 2})
    with pytest.raises(StoreError):
        registry.on_remove(0, "a", {"v": 1})
    with pytest.raises(StoreError):
        registry.rebuild_partition(0)
    with pytest.raises(StoreError):
        registry.add_definition(IndexDef("w", "hash"))
    # Reads are unaffected.
    assert registry.probe_keys(0, "v", EqProbe((1,))) == ["a"]


def test_frozen_mutation_hook_fires_before_error():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    registry.freeze()
    messages = []
    registry.on_frozen_mutation = messages.append
    with pytest.raises(StoreError):
        registry.on_put(0, "a", MISSING, {"v": 1})
    assert len(messages) == 1
    assert "frozen" in messages[0]


# -- rebuild and coherence ---------------------------------------------------


def test_rebuild_partition_rederives_from_store():
    registry, backing = make_registry(defs=[IndexDef("v", "sorted")])
    put(registry, backing, 0, "a", {"v": 1})
    # Mutate the backing dict behind the registry's back, then rebuild.
    backing[0]["b"] = {"v": 2}
    backing[0]["c"] = {"v": 3}
    assert registry.coherence_errors() != []
    registry.rebuild_partition(0)
    assert registry.coherence_errors() == []
    assert registry.probe_keys(0, "v", RangeProbe(low=2)) == ["b", "c"]


def test_coherence_catches_stale_index_value():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    put(registry, backing, 0, "a", {"v": 1})
    backing[0]["a"] = {"v": 99}  # store changed, index not maintained
    errors = registry.coherence_errors()
    assert errors and "indexed under" in errors[0]


def test_coherence_catches_order_divergence():
    registry, backing = make_registry(defs=[IndexDef("v", "hash")])
    for key in ("a", "b"):
        put(registry, backing, 0, key, {"v": 1})
    registry._order[0]["a"], registry._order[0]["b"] = \
        registry._order[0]["b"], registry._order[0]["a"]
    errors = registry.coherence_errors()
    assert errors and "insertion-order ranks" in errors[0]


def test_maintenance_ops_count_index_touches():
    registry, backing = make_registry(
        defs=[IndexDef("v", "hash"), IndexDef("w", "sorted")]
    )
    put(registry, backing, 0, "a", {"v": 1, "w": 2})  # 2 indexes
    remove(registry, backing, 0, "a")  # 2 more
    assert registry.maintenance_ops == 4
