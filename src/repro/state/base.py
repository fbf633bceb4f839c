"""What every state table shares.

Live tables (Table I) and the three snapshot-table backends (Table II)
differ only in how a version of one partition is stored and
reconstructed: a live map's partition dict, full copies, backward delta
chains, LSM runs.  :class:`StateTable` writes the partition-granular
read surface — partition scans, zone maps, index and sketch reads —
once, over two storage hooks every table supplies:

* ``_partition(partition, *version)`` — the partition's ``{key:
  value}`` at the version and the stored entries visited to produce it
  (what reading it bills);
* ``_registry(family, *version)`` — the family's registry that serves
  reads at the version, or ``None``.

``version`` is empty on live state and ``(ssid,)`` on a snapshot table,
as :class:`~repro.state.view.TableView` passes it.
:class:`SnapshotTableBase` adds what the snapshot backends share:
placement, the node-local reads on top of
:meth:`~SnapshotTableBase.materialize_instance`, one
:class:`~repro.kvstore.derived.VersionedRegistries` per family, and the
version lifecycle the store drives.  A version is served from its first
instance write until the store aborts it (:meth:`~SnapshotTableBase.abort`:
everything the attempt wrote goes) or retires it
(:meth:`~SnapshotTableBase.drop_snapshot`: it stops being served, and
the backend keeps what newer versions still read through).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, Iterable, Iterator

from ..approx.registry import SketchRegistry
from ..cluster.partition import stable_hash
from ..errors import SnapshotNotFoundError
from ..kvstore.derived import DerivedRegistry, VersionedRegistries
from ..kvstore.indexes import IndexRegistry
from .rows import ColumnBatch, ColumnReader


class StateTable:
    """The partition-granular read surface of one state table."""

    #: The table's definition of "what are this object's columns".
    column_reader: ColumnReader
    #: Family name -> the family's holder (a live map's registry, a
    #: snapshot table's per-version registries); its ``len`` is the
    #: number of definitions declared.
    derived: dict

    def _partition(self, partition: int, *version) -> tuple[dict, int]:
        raise NotImplementedError

    def _registry(self, family: str, *version) -> DerivedRegistry | None:
        raise NotImplementedError

    # -- partition-granular access (distributed scan pruning) --------------

    def scan_partitions(self, partitions: list[int],
                        *version) -> ColumnBatch:
        """The entries of ``partitions``, in that order, column-readable."""
        batch = ColumnBatch(self.column_reader)
        for partition in partitions:
            batch.load(self._partition(partition, *version)[0], *version)
        return batch

    def partition_entry_count(self, partition: int, *version) -> int:
        """Stored entries a read of ``partition`` visits."""
        return self._partition(partition, *version)[1]

    def rows_in_partition(self, partition: int,
                          *version) -> Iterator[dict]:
        yield from self.scan_partitions([partition], *version).rows()

    def partition_key_bounds(
        self, partition: int, *version
    ) -> tuple[object, object] | None:
        """(min, max) key of one partition — the zone map that lets a
        range predicate skip the partition.  ``None`` when empty or the
        keys are mutually incomparable."""
        keys = list(self._partition(partition, *version)[0])
        if not keys:
            return None
        try:
            return min(keys), max(keys)
        except TypeError:
            return None

    # -- derived structures: secondary indexes and sketches ----------------

    def definition_count(self, family: str) -> int:
        return len(self.derived.get(family, ()))

    def ready(self, family: str, *version) -> bool:
        """Whether ``family`` ("index" / "sketch") serves reads at the
        version: declared, and for a snapshot version frozen."""
        registry = self._registry(family, *version)
        return registry is not None and len(registry) > 0

    def coherence_errors(self, family: str, *version) -> list[str]:
        registry = self._registry(family, *version)
        return [] if registry is None else registry.coherence_errors()

    # Probe results come back in partition iteration order — an
    # index-backed fetch feeds the executor the same surviving rows, in
    # the same order, as a full scan would.

    def index_columns(self, *version) -> dict[str, str]:
        registry = self._registry("index", *version)
        return {} if registry is None else registry.column_kinds()

    def index_probe_count(self, partition: int, column: str, probe,
                          *version) -> tuple[int, int] | None:
        registry = self._registry("index", *version)
        if registry is None:
            return None
        return registry.probe_count(partition, column, probe)

    def index_scan(self, partitions: list[int], column: str, probe,
                   *version) -> ColumnBatch:
        """Candidate entries of an index probe over ``partitions``.

        A partition that can no longer be probed soundly (it degraded
        after the access path was chosen) falls back to all of its
        entries — a superset is safe because the pushed predicates
        re-filter every candidate."""
        registry = self._registry("index", *version)
        batch = ColumnBatch(self.column_reader)
        for partition in partitions:
            state = self._partition(partition, *version)[0]
            keys = (None if registry is None
                    else registry.probe_keys(partition, column, probe))
            if keys is not None:
                keys = [key for key in keys if key in state]
            batch.load(state, *version, keys=keys)
        return batch

    def has_sketch(self, column: str, kind: str, *version) -> bool:
        registry = self._registry("sketch", *version)
        return registry is not None and registry.has(column, kind)

    def approx_estimate(self, partitions: list[int], mode: str,
                        column: str, value: object, *version
                        ) -> tuple[object, float, float] | None:
        """Merged ``(estimate, bound, confidence)`` or ``None`` when no
        sound sketch answer exists (degraded or missing sketch)."""
        registry = self._registry("sketch", *version)
        if registry is None:
            return None
        return registry.estimate(partitions, mode, column, value)


class SnapshotTableBase(StateTable):
    """Placement, node-local reads and derived structures of one
    operator's snapshot table."""

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
        self.column_reader = ColumnReader()
        #: Family name -> the family's per-version registries: rebuilt
        #: as a version's instance writes land, frozen at its commit,
        #: dropped when the version stops being served.
        self.derived: dict[str, VersionedRegistries] = {
            registry_class.family: VersionedRegistries(
                registry_class, parallelism, self._entries_of
            )
            for registry_class in (IndexRegistry, SketchRegistry)
        }
        #: The versions served, from their first instance write until
        #: the store aborts or retires them.
        self._served: set[int] = set()
        #: ``(instance, ssid) -> (state, visited)``: reconstructions of
        #: served versions, kept until the instance is written at or
        #: before ``ssid``.
        self._memo: dict[tuple[int, int], tuple[dict, int]] = {}

    def _entries_of(self, ssid: int, partition: int):
        return self.materialize_instance(ssid, partition)[0].items()

    def _partition(self, partition: int, ssid: int) -> tuple[dict, int]:
        return self.materialize_instance(ssid, partition)

    def _registry(self, family: str, ssid: int) -> DerivedRegistry | None:
        return self.derived[family].at(ssid)

    # -- storage hooks ------------------------------------------------------
    #
    # What a backend supplies: store a write, rebuild an instance (and
    # what that bills), discard an aborted version, retire a version.

    def _store(self, ssid: int, instance: int,
               payload: dict[Hashable, object],
               deleted: set[Hashable] | None) -> None:
        raise NotImplementedError

    def _rebuild(self, ssid: int, instance: int) -> tuple[dict, int]:
        raise NotImplementedError

    def _discard(self, ssid: int) -> None:
        raise NotImplementedError

    def _retire(self, ssid: int) -> None:
        """Retirement beyond no longer serving ``ssid``: nothing unless
        the backend reclaims storage."""

    # -- the version lifecycle ----------------------------------------------

    def write_instance(self, ssid: int, instance: int,
                       payload: dict[Hashable, object],
                       deleted: set[Hashable] | None = None) -> None:
        """Store ``instance``'s entries of version ``ssid`` (a full copy
        ignores ``deleted``) and re-derive its partition."""
        self._store(ssid, instance, payload, deleted)
        self._served.add(ssid)
        self._forget(instance, ssid)
        for holder in self.derived.values():
            holder.rebuild(ssid, instance)

    def abort(self, ssid: int) -> None:
        """The attempt ``ssid`` will not commit: discard what it wrote,
        so no later version reads through it."""
        self._leave(ssid)
        self._discard(ssid)

    def drop_snapshot(self, ssid: int) -> None:
        """Retention: stop serving ``ssid``."""
        self._leave(ssid)
        self._retire(ssid)

    def _leave(self, ssid: int) -> None:
        self._served.discard(ssid)
        for cached in [cached for cached in self._memo if cached[1] == ssid]:
            del self._memo[cached]
        for holder in self.derived.values():
            holder.drop(ssid)

    def _forget(self, instance: int, since: int = 0) -> None:
        """Drop ``instance``'s reconstructions at ``since`` and later:
        read before a write that changes them landed."""
        stale = [cached for cached in self._memo
                 if cached[0] == instance and cached[1] >= since]
        for cached in stale:
            del self._memo[cached]

    def available_ssids(self) -> list[int]:
        return sorted(self._served)

    def has_snapshot(self, ssid: int) -> bool:
        return ssid in self._served

    def add_definition(self, registry_class: type[DerivedRegistry],
                       definition, retained: Iterable[int] = ()):
        """Declare ``definition`` and backfill it into those of the
        store's ``retained`` versions this table holds."""
        return self.derived[registry_class.family].add(
            definition, filter(self.has_snapshot, retained)
        )

    def freeze(self, ssid: int) -> None:
        """Commit time: the version's registries become immutable."""
        for holder in self.derived.values():
            holder.freeze(ssid)

    @property
    def ddl_epoch(self) -> int:
        """Definitions declared so far.  DDL only ever adds one, so the
        count moves whenever a read may gain an index or sketch."""
        return sum(map(len, self.derived.values()))

    def maintenance_ops(self, family: str) -> int:
        return self.derived[family].maintenance_ops

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
        :class:`~repro.errors.SnapshotNotFoundError` for a version not
        served.  Readers must not mutate the returned state."""
        if ssid not in self._served:
            raise SnapshotNotFoundError(ssid)
        built = self._memo.get((instance, ssid))
        if built is None:
            built = self._memo[(instance, ssid)] = self._rebuild(
                ssid, instance)
        return dict(built[0]), built[1]

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
        return sum(
            self.partition_entry_count(instance, ssid)
            for instance in self._instances_at(ssid)
            if self._node_of_instance(instance) == node_id
        )

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

