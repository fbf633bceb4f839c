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

from ..approx.registry import SketchRegistry
from ..errors import SnapshotNotFoundError
from ..kvstore.derived import DerivedRegistry, VersionedRegistries
from ..kvstore.indexes import IndexRegistry
from .base import SnapshotTableBase
from .rows import ColumnBatch


class FullSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, full-copy mode."""

    supports_partition_rows = True
    supports_derived = True
    stable_versions = True

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int]) -> None:
        super().__init__(name, parallelism, node_of_instance)
        #: ssid -> instance -> {key: state object}
        self._by_ssid: dict[int, dict[int, dict[Hashable, object]]] = {}
        self.derived = {
            registry_class.family: VersionedRegistries(
                registry_class, parallelism, self._entries_of
            )
            for registry_class in (IndexRegistry, SketchRegistry)
        }

    def _entries_of(self, ssid: int, partition: int):
        return self._by_ssid.get(ssid, {}).get(partition, {}).items()

    # -- writes ---------------------------------------------------------

    def write_instance(self, ssid: int, instance: int,
                       payload: dict[Hashable, object]) -> None:
        self._by_ssid.setdefault(ssid, {})[instance] = dict(payload)
        for holder in self.derived.values():
            holder.rebuild(ssid, instance)

    def drop_snapshot(self, ssid: int) -> None:
        self._by_ssid.pop(ssid, None)
        for holder in self.derived.values():
            holder.drop(ssid)

    def add_definition(self, registry_class: type[DerivedRegistry],
                       definition):
        return self.derived[registry_class.family].add(
            definition, sorted(self._by_ssid)
        )

    # -- secondary indexes -----------------------------------------------

    def index_columns(self) -> dict[str, str]:
        definitions = self.derived["index"].definitions
        return {
            column: definitions[column].kind
            for column in sorted(definitions)
        }

    def index_probe_count(self, partition: int, column: str, probe,
                          ssid: int) -> tuple[int, int] | None:
        registry = self.derived["index"].versions.get(ssid)
        if registry is None:
            return None
        return registry.probe_count(partition, column, probe)

    def index_scan(self, partitions: list[int], column: str, probe,
                   ssid: int) -> ColumnBatch:
        """Candidate entries of an index probe (same order as a scan)."""
        snapshot = self._version(ssid)
        registry = self.derived["index"].versions.get(ssid)
        batch = ColumnBatch(self.column_reader)
        for partition in partitions:
            batch.load(
                snapshot.get(partition, {}), ssid,
                None if registry is None
                else registry.probe_keys(partition, column, probe),
            )
        return batch

    # -- sketches --------------------------------------------------------

    def has_sketch(self, column: str, kind: str) -> bool:
        return (column, kind) in self.derived["sketch"].definitions

    def approx_estimate(self, partitions: list[int], mode: str,
                        column: str, value: object, ssid: int
                        ) -> tuple[object, float, float] | None:
        registry = self.derived["sketch"].versions.get(ssid)
        if registry is None:
            return None
        return registry.estimate(partitions, mode, column, value)

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
