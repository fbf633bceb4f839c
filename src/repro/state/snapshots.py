"""Full snapshot state tables (Table II).

Each stateful operator gets one snapshot table holding complete copies
of its keyed state per snapshot id.  With the paper's default retention
of two versions, memory stays constant: a newly committed snapshot
overwrites the older of the two (the store drives this through
``drop_snapshot``).  Committed snapshots are replicated synchronously
during the 2PC, so they survive node failures.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from ..approx.registry import SketchDef, SketchRegistry
from ..errors import SnapshotNotFoundError
from ..kvstore.indexes import IndexDef, IndexRegistry
from .base import SnapshotTableBase
from .rows import ColumnBatch


class FullSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, full-copy mode."""

    supports_partition_rows = True
    supports_indexes = True
    supports_sketches = True

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int]) -> None:
        super().__init__(name, parallelism, node_of_instance)
        #: ssid -> instance -> {key: state object}
        self._by_ssid: dict[int, dict[int, dict[Hashable, object]]] = {}
        #: Secondary index definitions, shared by every version; each
        #: retained ssid carries its own copy-on-write registry, frozen
        #: when the version commits.
        self._index_defs: dict[str, IndexDef] = {}
        self._indexes: dict[int, IndexRegistry] = {}
        #: Maintenance ops of registries retired with their snapshots
        #: (keeps the observability rollup monotonic).
        self._dropped_index_ops = 0
        self._index_hook: Callable[[str], None] | None = None
        #: Sketch definitions and per-version registries, same
        #: copy-on-write/freeze lifecycle as the indexes.
        self._sketch_defs: dict[tuple[str, str], SketchDef] = {}
        self._sketches: dict[int, SketchRegistry] = {}
        self._dropped_sketch_ops = 0
        self._sketch_hook: Callable[[str], None] | None = None

    # -- writes ---------------------------------------------------------

    def write_instance(self, ssid: int, instance: int,
                       payload: dict[Hashable, object]) -> None:
        self._by_ssid.setdefault(ssid, {})[instance] = dict(payload)
        if self._index_defs:
            self._registry_for(ssid).rebuild_partition(instance)
        if self._sketch_defs:
            self._sketch_registry_for(ssid).rebuild_partition(instance)

    def drop_snapshot(self, ssid: int) -> None:
        self._by_ssid.pop(ssid, None)
        registry = self._indexes.pop(ssid, None)
        if registry is not None:
            self._dropped_index_ops += registry.maintenance_ops
        sketch_registry = self._sketches.pop(ssid, None)
        if sketch_registry is not None:
            self._dropped_sketch_ops += sketch_registry.maintenance_ops

    # -- secondary indexes -----------------------------------------------

    def _registry_for(self, ssid: int) -> IndexRegistry:
        registry = self._indexes.get(ssid)
        if registry is None:
            registry = IndexRegistry(
                self.parallelism,
                lambda partition: self._by_ssid.get(ssid, {})
                .get(partition, {}).items(),
            )
            registry.on_frozen_mutation = self._index_hook
            for definition in self._index_defs.values():
                registry.add_definition(definition)
            self._indexes[ssid] = registry
        return registry

    def add_index(self, definition: IndexDef) -> IndexDef:
        definition.validate()
        existing = self._index_defs.get(definition.column)
        if existing is not None:
            if existing.kind != definition.kind:
                from ..errors import StoreError

                raise StoreError(
                    f"column {definition.column!r} already has a "
                    f"{existing.kind} index"
                )
            return existing
        self._index_defs[definition.column] = definition
        # Retained versions (committed ones are re-frozen by the store's
        # DDL entry point) get the new index backfilled.
        for ssid in sorted(self._by_ssid):
            self._registry_for(ssid).add_definition(definition)
        return definition

    def freeze_index(self, ssid: int) -> None:
        """Commit time: the version's registry becomes immutable."""
        if not self._index_defs:
            return
        self._registry_for(ssid).freeze()

    def index_ready(self, ssid: int) -> bool:
        """Probes only serve committed (frozen) versions."""
        if not self._index_defs:
            return False
        registry = self._indexes.get(ssid)
        return registry is not None and registry.frozen

    @property
    def index_count(self) -> int:
        return len(self._index_defs)

    def index_defs(self) -> list[IndexDef]:
        return [
            self._index_defs[column]
            for column in sorted(self._index_defs)
        ]

    def index_columns(self) -> dict[str, str]:
        return {
            column: self._index_defs[column].kind
            for column in sorted(self._index_defs)
        }

    def index_probe_count(self, partition: int, column: str, probe,
                          ssid: int) -> tuple[int, int] | None:
        registry = self._indexes.get(ssid)
        if registry is None:
            return None
        return registry.probe_count(partition, column, probe)

    def index_scan(self, partitions: list[int], column: str, probe,
                   ssid: int) -> ColumnBatch:
        """Candidate entries of an index probe (same order as a scan)."""
        snapshot = self._version(ssid)
        registry = self._indexes.get(ssid)
        batch = ColumnBatch(self.column_reader)
        for partition in partitions:
            batch.load(
                snapshot.get(partition, {}), ssid,
                None if registry is None
                else registry.probe_keys(partition, column, probe),
            )
        return batch

    @property
    def index_maintenance_ops(self) -> int:
        return self._dropped_index_ops + sum(
            registry.maintenance_ops
            for registry in self._indexes.values()
        )

    def set_index_mutation_hook(
        self, hook: Callable[[str], None] | None
    ) -> None:
        """Observe frozen-registry mutation attempts (sanitizers)."""
        self._index_hook = hook
        for registry in self._indexes.values():
            registry.on_frozen_mutation = hook

    def index_coherence_errors(self, ssid: int) -> list[str]:
        registry = self._indexes.get(ssid)
        return [] if registry is None else registry.coherence_errors()

    # -- sketches --------------------------------------------------------

    def _sketch_registry_for(self, ssid: int) -> SketchRegistry:
        registry = self._sketches.get(ssid)
        if registry is None:
            registry = SketchRegistry(
                self.parallelism,
                lambda partition: self._by_ssid.get(ssid, {})
                .get(partition, {}).items(),
            )
            registry.on_frozen_mutation = self._sketch_hook
            for definition in self._sketch_defs.values():
                registry.add_definition(definition)
            self._sketches[ssid] = registry
        return registry

    def add_sketch(self, definition: SketchDef) -> SketchDef:
        definition.validate()
        key = (definition.column, definition.kind)
        existing = self._sketch_defs.get(key)
        if existing is not None:
            if existing != definition:
                from ..errors import StoreError

                raise StoreError(
                    f"sketch {definition.name} already exists with "
                    "different parameters"
                )
            return existing
        self._sketch_defs[key] = definition
        # Retained versions (committed ones are re-frozen by the
        # store's DDL entry point) get the new sketch backfilled.
        for ssid in sorted(self._by_ssid):
            self._sketch_registry_for(ssid).add_definition(definition)
        return definition

    def freeze_sketch(self, ssid: int) -> None:
        """Commit time: the version's sketches become immutable."""
        if not self._sketch_defs:
            return
        self._sketch_registry_for(ssid).freeze()

    def sketch_ready(self, ssid: int) -> bool:
        """Estimates only serve committed (frozen) versions."""
        if not self._sketch_defs:
            return False
        registry = self._sketches.get(ssid)
        return registry is not None and registry.frozen

    @property
    def sketch_count(self) -> int:
        return len(self._sketch_defs)

    def sketch_defs(self) -> list[SketchDef]:
        return [self._sketch_defs[key] for key in sorted(self._sketch_defs)]

    def has_sketch(self, column: str, kind: str) -> bool:
        return (column, kind) in self._sketch_defs

    def approx_estimate(self, partitions: list[int], mode: str,
                        column: str, value: object, ssid: int
                        ) -> tuple[object, float, float] | None:
        registry = self._sketches.get(ssid)
        if registry is None:
            return None
        return registry.estimate(partitions, mode, column, value)

    @property
    def sketch_maintenance_ops(self) -> int:
        return self._dropped_sketch_ops + sum(
            registry.maintenance_ops
            for registry in self._sketches.values()
        )

    def set_sketch_mutation_hook(
        self, hook: Callable[[str], None] | None
    ) -> None:
        """Observe frozen-registry mutation attempts (sanitizers)."""
        self._sketch_hook = hook
        for registry in self._sketches.values():
            registry.on_frozen_mutation = hook

    def sketch_coherence_errors(self, ssid: int) -> list[str]:
        registry = self._sketches.get(ssid)
        return [] if registry is None else registry.coherence_errors()

    # -- reads ----------------------------------------------------------

    def available_ssids(self) -> list[int]:
        return sorted(self._by_ssid)

    def has_snapshot(self, ssid: int) -> bool:
        return ssid in self._by_ssid

    def _version(self, ssid: int) -> dict[int, dict[Hashable, object]]:
        snapshot = self._by_ssid.get(ssid)
        if snapshot is None:
            raise SnapshotNotFoundError(ssid)
        return snapshot

    def _instances_at(self, ssid: int) -> Iterable[int]:
        # Instances in the order their checkpoint writes landed.
        return self._version(ssid)

    def materialize_instance(self, ssid: int,
                             instance: int) -> tuple[dict, int]:
        state = self._version(ssid).get(instance, {})
        return state, len(state)

    # -- partition-granular access (distributed scan pruning) --------------
    #
    # Because a committed snapshot is immutable, partition selections
    # and zone maps computed at scan start stay valid for the whole
    # scan.

    def partition_entry_count(self, partition: int, ssid: int) -> int:
        snapshot = self._version(ssid)
        return len(snapshot.get(partition, {}))

    def scan_partitions(self, partitions: list[int],
                        ssid: int) -> ColumnBatch:
        """The entries of ``partitions``, in that order, column-readable."""
        snapshot = self._version(ssid)
        batch = ColumnBatch(self.column_reader)
        for partition in partitions:
            batch.load(snapshot.get(partition, {}), ssid)
        return batch

    def rows_in_partition(self, partition: int,
                          ssid: int) -> Iterator[dict]:
        yield from self.scan_partitions([partition], ssid).rows()

    def partition_key_bounds(
        self, partition: int, ssid: int
    ) -> tuple[object, object] | None:
        snapshot = self._version(ssid)
        keys = list(snapshot.get(partition, {}))
        if not keys:
            return None
        try:
            return min(keys), max(keys)
        except TypeError:
            return None

    def snapshot_size(self, ssid: int) -> int:
        snapshot = self._version(ssid)
        return sum(len(state) for state in snapshot.values())

    def total_entries(self) -> int:
        """All stored entries across versions (memory accounting)."""
        return sum(
            len(state)
            for snapshot in self._by_ssid.values()
            for state in snapshot.values()
        )
