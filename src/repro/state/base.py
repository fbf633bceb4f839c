"""What every snapshot-table backend shares.

The three backends differ only in how a version of one operator
instance is stored and reconstructed (full copies, backward delta
chains, LSM runs).  Placement, the node-local reads on top of
:meth:`~SnapshotTableBase.materialize_instance` and the defaults of a
backend without derived structures live here once; what else a
backend can do it declares through the ``supports_*`` attributes.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, Iterable, Iterator

from ..cluster.partition import stable_hash
from ..kvstore.derived import VersionedRegistries
from .rows import ColumnBatch, ColumnReader


class SnapshotTableBase:
    """Placement, node-local reads and capability defaults of one
    operator's snapshot table."""

    #: Per-partition row access (``partition_entry_count`` /
    #: ``rows_in_partition`` / ``partition_key_bounds``), the basis of
    #: partition-level scan pruning.
    supports_partition_rows = False
    #: Derived structures — secondary indexes and sketches, one
    #: lifecycle (:mod:`repro.kvstore.derived`): ``add_definition`` and
    #: the ``index_*`` / ``has_sketch`` / ``approx_estimate`` reads.
    supports_derived = False
    #: A committed version's entries, and what a scan of them costs,
    #: stay fixed while it is retained (full copies), so what a read of
    #: it implies may be derived once (``QueryService``'s snapshot
    #: plans).  Reconstructing backends price a version by a delta
    #: chain or a compaction state that moves under it.
    stable_versions = False

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int]) -> None:
        self.name = name
        self.parallelism = parallelism
        self._node_of_instance = node_of_instance
        #: The table's definition of "what are this object's columns".
        self.column_reader = ColumnReader()
        #: Family name -> the family's per-version registries; empty on
        #: a backend without derived structures (nothing to maintain,
        #: bill or freeze).
        self.derived: dict[str, VersionedRegistries] = {}

    # -- derived structures ------------------------------------------------

    def freeze(self, ssid: int) -> None:
        """Commit time: the version's registries become immutable."""
        for holder in self.derived.values():
            holder.freeze(ssid)

    def definition_count(self, family: str) -> int:
        return len(self.derived.get(family, ()))

    def ready(self, family: str, ssid: int) -> bool:
        """Reads only serve committed (frozen) versions."""
        return family in self.derived and self.derived[family].ready(ssid)

    @property
    def ddl_epoch(self) -> int:
        """Definitions declared so far.  DDL only ever adds one, so the
        count moves whenever a read may gain an index or sketch."""
        return sum(map(len, self.derived.values()))

    def maintenance_ops(self, family: str) -> int:
        holder = self.derived.get(family)
        return 0 if holder is None else holder.maintenance_ops

    def coherence_errors(self, family: str, ssid: int) -> list[str]:
        return self.derived[family].coherence_errors(ssid)

    def set_mutation_hook(self, hook: Callable[[str, str], None]) -> None:
        """Observe frozen-registry mutation attempts as ``hook(family,
        message)`` (sanitizers)."""
        for family, holder in self.derived.items():
            holder.set_mutation_hook(partial(hook, family))

    # -- placement ---------------------------------------------------------
    #
    # Snapshot partitions coincide with operator instances.

    def partition_of_key(self, key: Hashable) -> int:
        return stable_hash(key) % self.parallelism

    def owner_node_of(self, key: Hashable) -> int:
        """Node holding ``key``'s instance partition (point lookups)."""
        return self._node_of_instance(self.partition_of_key(key))

    def partitions_on_node(self, node_id: int) -> list[int]:
        """Instance partitions a node hosts (node-level scan pruning)."""
        return [
            instance for instance in range(self.parallelism)
            if self._node_of_instance(instance) == node_id
        ]

    def placement(self) -> tuple[int, ...]:
        """The node of every instance partition, by partition."""
        return tuple(map(self._node_of_instance, range(self.parallelism)))

    # -- reads -------------------------------------------------------------

    def materialize_instance(self, ssid: int,
                             instance: int) -> tuple[dict, int]:
        """One instance's state at ``ssid`` and the stored entries a
        scan visits to produce it; raises
        :class:`~repro.errors.SnapshotNotFoundError` for an unknown id.
        Readers must not mutate the returned state."""
        raise NotImplementedError

    def _instances_at(self, ssid: int) -> Iterable[int]:
        """Instances a scan of ``ssid`` visits, in scan order."""
        return range(self.parallelism)

    def _on_node(self, node_id: int,
                 ssid: int) -> Iterator[tuple[dict, int]]:
        for instance in self._instances_at(ssid):
            if self._node_of_instance(instance) == node_id:
                yield self.materialize_instance(ssid, instance)

    def instance_state(self, ssid: int, instance: int) -> dict:
        return dict(self.materialize_instance(ssid, instance)[0])

    def materialize(self, ssid: int) -> tuple[dict, int]:
        """The complete operator state at ``ssid``, with its scan cost."""
        merged: dict[Hashable, object] = {}
        scanned = 0
        for instance in self._instances_at(ssid):
            state, visited = self.materialize_instance(ssid, instance)
            merged.update(state)
            scanned += visited
        return merged, scanned

    def rows_for_snapshot(self, ssid: int) -> Iterator[dict]:
        state, _ = self.materialize(ssid)
        yield from ColumnBatch(self.column_reader).load(state, ssid).rows()

    def scan_on_node(self, node_id: int, ssid: int) -> ColumnBatch:
        """A node's entries of ``ssid`` in scan order, column-readable."""
        batch = ColumnBatch(self.column_reader)
        for state, _ in self._on_node(node_id, ssid):
            batch.load(state, ssid)
        return batch

    def rows_on_node(self, node_id: int, ssid: int) -> Iterator[dict]:
        yield from self.scan_on_node(node_id, ssid).rows()

    def entries_on_node(self, node_id: int, ssid: int) -> int:
        """Stored entries a node-local scan of ``ssid`` must visit."""
        entries = 0
        for _, visited in self._on_node(node_id, ssid):
            entries += visited
        return entries

    def row_count_on_node(self, node_id: int, ssid: int) -> int:
        """Result rows a node-local scan produces (== entries for full
        snapshots; reconstructing backends visit more entries than
        rows)."""
        rows = 0
        for state, _ in self._on_node(node_id, ssid):
            rows += len(state)
        return rows

    def point_rows(self, key: Hashable, ssid: int) -> list[dict]:
        """The single (key, ssid) row, or empty (point lookup)."""
        state, _ = self.materialize_instance(
            ssid, self.partition_of_key(key)
        )
        if key not in state:
            return []
        return [self.column_reader.row(key, state[key], ssid)]

    # -- failure handling --------------------------------------------------

    def on_node_failure(self, node_id: int) -> None:
        """Committed snapshots survive via synchronous replicas."""
