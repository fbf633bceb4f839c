"""The state-store registry and the committed-snapshot pointer.

The :class:`StateStore` is the "state store" box of the paper's Fig. 1:
it registers the live IMap and snapshot table of every stateful operator
and owns the **atomically published** pointer to the latest committed
snapshot id.  Phase 2 of the checkpoint 2PC flips this pointer; snapshot
queries that do not name an explicit id resolve it here, which is what
guarantees they never observe a half-committed snapshot.
"""

from __future__ import annotations

from typing import Hashable

from ..cluster import Cluster
from ..errors import MapNotFoundError, StoreError
from .derived import DerivedRegistry
from .imap import HashPlacement, IMap, Placement
from .indexes import IndexDef, IndexRegistry
from .locks import LockManager


class StateStore:
    """Registry of live maps and snapshot tables plus commit metadata."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._maps: dict[str, IMap] = {}
        self._live_tables: dict[str, object] = {}
        self._snapshot_tables: dict[str, object] = {}
        self._locks = LockManager()
        self._committed_ssid: int | None = None
        self._in_progress_ssid: int | None = None
        self._available_ssids: list[int] = []
        self._commit_listeners: list = []
        cluster.on_node_failure(self._handle_node_failure)

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def locks(self) -> LockManager:
        return self._locks

    # -- map registry ---------------------------------------------------

    def create_map(self, name: str,
                   placement: Placement | None = None) -> IMap:
        """Create (or return the existing) named map."""
        existing = self._maps.get(name)
        if existing is not None:
            return existing
        if placement is None:
            placement = HashPlacement(self._cluster.partitioner)
        imap = IMap(name, placement)
        self._maps[name] = imap
        return imap

    def get_map(self, name: str) -> IMap:
        try:
            return self._maps[name]
        except KeyError:
            raise MapNotFoundError(name) from None

    def has_map(self, name: str) -> bool:
        return name in self._maps

    def map_names(self) -> list[str]:
        return sorted(self._maps)

    # -- derived structures: secondary indexes and sketches --------------
    #
    # One lifecycle (:mod:`repro.kvstore.derived`): live tables maintain
    # the structure on their backing map from the write path; snapshot
    # tables, whatever their backend, carry it on every retained version
    # (and the in-progress one), and versions already committed are
    # frozen immediately.  DDL is idempotent for an identical definition.

    def create_index(self, name: str, column: str,
                     kind: str = "hash") -> IndexDef:
        """DDL: create a secondary index on a value column of ``name``."""
        return self._create(
            name, IndexRegistry, IndexDef(column=column, kind=kind)
        )

    def create_sketch(self, name: str, column: str, kind: str,
                      **params):
        """DDL: create a probabilistic sketch on a value column of
        ``name``."""
        # Imported on use: the approx package builds on this one.
        from ..approx.registry import SketchDef, SketchRegistry

        return self._create(
            name, SketchRegistry,
            SketchDef(column=column, kind=kind, **params),
        )

    def _create(self, name: str, registry_class: type[DerivedRegistry],
                definition):
        definition.validate()
        if name in self._maps:
            return self._maps[name].add_definition(
                registry_class, definition
            )
        if name in self._snapshot_tables:
            table = self._snapshot_tables[name]
            retained = list(self._available_ssids)
            if self._in_progress_ssid is not None:
                retained.append(self._in_progress_ssid)
            created = table.add_definition(registry_class, definition,
                                           retained)
            for ssid in self._available_ssids:
                table.freeze(ssid)
            return created
        raise MapNotFoundError(name)

    def index_maintenance_ops(self) -> int:
        """Index-entry write-path touches across every table
        (observability rollup)."""
        return self._maintenance_ops("index")

    def sketch_maintenance_ops(self) -> int:
        """Sketch-entry write-path touches across every table
        (observability rollup)."""
        return self._maintenance_ops("sketch")

    def _maintenance_ops(self, family: str) -> int:
        total = 0
        for imap in self._maps.values():
            registry = imap.registries.get(family)
            if registry is not None:
                total += registry.maintenance_ops
        for table in self._snapshot_tables.values():
            total += table.maintenance_ops(family)
        return total

    # -- snapshot tables --------------------------------------------------

    def register_snapshot_table(self, name: str, table: object) -> None:
        """Register an operator's snapshot table (Table II structure).

        ``table`` is a :class:`repro.state.snapshots.SnapshotTableBase`
        policy (see :mod:`repro.state.snapshots`).
        """
        if name in self._snapshot_tables:
            raise StoreError(f"snapshot table {name!r} already registered")
        self._snapshot_tables[name] = table

    def register_live_table(self, name: str, table: object) -> None:
        """Register a queryable live-state table (Table I structure).

        ``table`` must provide ``rows()``, ``rows_on_node(node_id)`` and
        ``entries_on_node(node_id)`` (see :mod:`repro.state.live`).
        """
        if name in self._live_tables:
            raise StoreError(f"live table {name!r} already registered")
        self._live_tables[name] = table

    def get_live_table(self, name: str) -> object:
        try:
            return self._live_tables[name]
        except KeyError:
            raise MapNotFoundError(name) from None

    def has_live_table(self, name: str) -> bool:
        return name in self._live_tables

    def live_table_names(self) -> list[str]:
        return sorted(self._live_tables)

    def get_snapshot_table(self, name: str) -> object:
        try:
            return self._snapshot_tables[name]
        except KeyError:
            raise MapNotFoundError(name) from None

    def has_snapshot_table(self, name: str) -> bool:
        return name in self._snapshot_tables

    def snapshot_table_names(self) -> list[str]:
        return sorted(self._snapshot_tables)

    # -- committed snapshot pointer ----------------------------------------

    @property
    def committed_ssid(self) -> int | None:
        """Latest atomically committed snapshot id (``None`` before the
        first checkpoint completes)."""
        return self._committed_ssid

    @property
    def in_progress_ssid(self) -> int | None:
        return self._in_progress_ssid

    def available_ssids(self) -> list[int]:
        """Snapshot ids currently queryable (after retention)."""
        return list(self._available_ssids)

    def begin_snapshot(self, ssid: int) -> None:
        if self._in_progress_ssid is not None:
            raise StoreError(
                f"snapshot {self._in_progress_ssid} still in progress"
            )
        if self._committed_ssid is not None and ssid <= self._committed_ssid:
            raise StoreError(
                f"snapshot id {ssid} not newer than committed "
                f"{self._committed_ssid}"
            )
        self._in_progress_ssid = ssid

    def add_commit_listener(self, listener) -> None:
        """``listener(ssid)`` fires whenever a snapshot commits (the
        committed pointer flips) — continuous queries refresh on it."""
        self._commit_listeners.append(listener)

    def commit_snapshot(self, ssid: int) -> None:
        """Atomically publish ``ssid`` as the latest committed snapshot."""
        if self._in_progress_ssid != ssid:
            raise StoreError(f"snapshot {ssid} was not in progress")
        self._in_progress_ssid = None
        self._committed_ssid = ssid
        self._available_ssids.append(ssid)
        # The committed version is immutable from this instant on: its
        # indexes and sketches freeze with it (copy-on-write — the next
        # in-progress version builds fresh registries), so their reads
        # rely on exactly the immutability zone-map pruning relies on.
        for table in self._snapshot_tables.values():
            table.freeze(ssid)
        for listener in self._commit_listeners:
            listener(ssid)

    def abort_snapshot(self, ssid: int) -> None:
        """The in-progress snapshot will not commit: every table
        discards what it wrote."""
        if self._in_progress_ssid != ssid:
            raise StoreError(f"snapshot {ssid} was not in progress")
        self._in_progress_ssid = None
        for table in self._snapshot_tables.values():
            table.abort(ssid)

    def retire_snapshots(self, keep: int) -> list[int]:
        """Drop all but the ``keep`` most recent committed snapshot ids
        (a commit's retention).

        Returns the retired ids.  Every snapshot table stops serving
        them (``drop_snapshot``), then compacts up to the oldest id
        kept (``compact``).
        """
        if keep < 1:
            raise StoreError("must keep at least one snapshot")
        retired = self._available_ssids[:-keep]
        self._available_ssids = self._available_ssids[-keep:]
        for table in self._snapshot_tables.values():
            for ssid in retired:
                table.drop_snapshot(ssid)
            if self._available_ssids:
                table.compact(self._available_ssids[0])
        return retired

    # -- failure handling ------------------------------------------------

    def _handle_node_failure(self, node_id: int) -> None:
        """Live state on the dead node is lost (mirrored asynchronously);
        committed snapshots survive via their synchronous backups."""
        for imap in self._maps.values():
            owned = imap.partitions_on_node(node_id)
            # The partitioner has already promoted backups for hash-placed
            # maps; instance-placed maps re-resolve through the job's new
            # assignment.  Any partition still attributed to the dead node
            # has no surviving replica: drop it.
            imap.drop_partitions(owned)
        for table in self._snapshot_tables.values():
            table.on_node_failure(node_id)

    # -- convenience -----------------------------------------------------

    def live_row_count(self, name: str) -> int:
        return len(self.get_map(name))

    def lock_key(self, name: str, key: Hashable, owner: object) -> bool:
        """Try-acquire the key-level lock for ``(map, key)``."""
        return self._locks.try_acquire((name, key), owner)

    def unlock_key(self, name: str, key: Hashable, owner: object) -> None:
        self._locks.release((name, key), owner)
