"""The S-QUERY state backend: wires queryable state into the engine.

``SQueryBackend`` extends the vanilla (Jet) backend with the paper's two
features:

* **live state** — every operator state update is mirrored into a live
  IMap named after the operator (Table I), at a per-update cost charged
  to the processing worker (plus a network hop if co-partitioning is
  disabled);
* **snapshot state** — checkpoints write individually queryable rows
  (Table II) instead of only an opaque blob, at an extra per-entry store
  cost; as full copies, delta chains or LSM runs
  (``SQueryConfig.snapshot_backend``).

Recovery reads back whichever representation is authoritative: the
snapshot table's trace, or vanilla blobs when the queryable snapshot
state is disabled.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..cluster import Cluster
from ..config import IndexSpec, SQueryConfig
from ..errors import StateError
from ..dataflow.backend import VanillaBackend, submit_chunked_write
from ..kvstore import InstancePlacement, StateStore
from ..kvstore.derived import FAMILIES
from .live import LiveStateTable
from .rows import sanitize_table_name, snapshot_table_name
from .snapshots import (
    FullSnapshotTable, IncrementalSnapshotTable, LsmSnapshotTable,
    SnapshotTableBase,
)


class SQueryBackend(VanillaBackend):
    """State backend implementing the S-QUERY architecture (Fig. 1)."""

    def __init__(self, cluster: Cluster, store: StateStore,
                 config: SQueryConfig | None = None) -> None:
        super().__init__(cluster)
        self.store = store
        self._locks = store.locks
        self.config = config or SQueryConfig()
        self.config.validate()
        self.live_tables: dict[str, LiveStateTable] = {}
        self.snapshot_tables: dict[str, SnapshotTableBase] = {}
        self._vertex_table: dict[str, str] = {}
        #: Vertex -> its live IMap's derived-structure registries.
        self._registries: dict[str, dict] = {}
        self._node_of: dict[str, Callable[[int], int]] = {}
        self._parallelism: dict[str, int] = {}
        #: Hot-standby replicas, vertex -> instance -> {key: value}.
        #: Maintained synchronously from the update stream when
        #: ``active_replication`` is on (§VII-B).
        self._standby: dict[str, dict[int, dict]] = {}
        self.live_updates_mirrored = 0
        #: A mirrored update's cost before index and sketch upkeep.
        self._mirror_ms = self._costs.live_mirror_ms
        if not self.config.colocate_state:
            self._mirror_ms += self._costs.live_mirror_remote_ms
        if self.config.active_replication:
            self._mirror_ms += self._costs.replication_sync_ms

    @property
    def incremental(self) -> bool:  # type: ignore[override]
        """Whether checkpoints write deltas (the chain and LSM
        policies) rather than full copies."""
        return (self.config.snapshot_state
                and self.config.snapshot_backend != "full")

    @property
    def retained_snapshots(self) -> int:
        return self.config.retained_snapshots

    # -- registration -----------------------------------------------------

    def register_vertex(self, vertex_name: str, parallelism: int,
                        node_of_instance: Callable[[int], int],
                        stateful: bool) -> None:
        super().register_vertex(
            vertex_name, parallelism, node_of_instance, stateful
        )
        if not stateful:
            return
        table_name = sanitize_table_name(vertex_name)
        self._vertex_table[vertex_name] = table_name
        self._node_of[vertex_name] = node_of_instance
        self._parallelism[vertex_name] = parallelism
        if self.config.active_replication:
            self._standby[vertex_name] = {
                instance: {} for instance in range(parallelism)
            }
        placement = InstancePlacement(
            parallelism, node_of_instance, self._cluster.config.nodes
        )
        if self.config.live_state:
            imap = self.store.create_map(table_name, placement)
            live = LiveStateTable(imap)
            self.live_tables[vertex_name] = live
            self._registries[vertex_name] = imap.registries
            self.store.register_live_table(table_name, live)
        if self.config.snapshot_state:
            snap_name = snapshot_table_name(vertex_name)
            backend = self.config.snapshot_backend
            if backend == "full":
                table: SnapshotTableBase = FullSnapshotTable(
                    snap_name, parallelism, node_of_instance
                )
            elif backend == "lsm":
                table = LsmSnapshotTable(
                    snap_name, parallelism, node_of_instance
                )
            else:
                table = IncrementalSnapshotTable(
                    snap_name, parallelism, node_of_instance,
                    self.config.prune_chain_length,
                )
            self.snapshot_tables[vertex_name] = table
            self.store.register_snapshot_table(snap_name, table)
        self._create_declared(vertex_name)

    def _create_declared(self, vertex_name: str) -> None:
        """Deploy-time DDL: apply the ``config.indexes`` and
        ``config.sketches`` specs naming this vertex (by vertex or
        sanitised table name)."""
        table_name = self._vertex_table[vertex_name]
        for spec in self.config.indexes + self.config.sketches:
            if spec.vertex not in (vertex_name, table_name):
                continue
            create = (self.store.create_index
                      if isinstance(spec, IndexSpec)
                      else self.store.create_sketch)
            if spec.live and self.config.live_state:
                create(table_name, spec.column, spec.kind)
            if spec.snapshots and self.config.snapshot_state:
                create(snapshot_table_name(vertex_name), spec.column,
                       spec.kind)

    def _with_maintenance(self, per_entry: float, table) -> float:
        """``per_entry`` plus what maintaining ``table``'s derived
        structures adds to one entry's write: every index and sketch
        rides that write, under the same key-level lock."""
        for family in FAMILIES:
            count = table.definition_count(family)
            if count:
                per_entry += count * getattr(
                    self._costs, f"{family}_maintain_entry_ms"
                )
        return per_entry

    # -- live state ---------------------------------------------------------

    def live_update_cost(self, vertex_name: str) -> float:
        registries = self._registries.get(vertex_name)
        if registries is None:  # no live table
            return 0.0
        # A DDL may add indexes or sketches at run time: look each time.
        if registries:
            return self._with_maintenance(
                self._mirror_ms, self.live_tables[vertex_name])
        return self._mirror_ms

    def on_state_update(self, vertex_name: str, key: Hashable,
                        value: object | None) -> None:
        live = self.live_tables.get(vertex_name)
        if live is None:
            return
        self.live_updates_mirrored += 1
        standby = self._standby.get(vertex_name)
        if standby is not None:
            from ..cluster.partition import stable_hash

            instance = stable_hash(key) % self._parallelism[vertex_name]
            replica = standby[instance]
            if value is None:
                replica.pop(key, None)
            else:
                replica[key] = value
        # Key-level locking (§VII-B): if a repeatable-read query holds
        # the key, the mirror write applies when the lock is released.
        self._locks.run_locked(
            (self._vertex_table[vertex_name], key), live.apply_update, key,
            value)

    # -- snapshot state --------------------------------------------------------

    def write_snapshot(self, vertex_name: str, instance: int, node_id: int,
                       ssid: int, payload: dict, deleted: set,
                       on_done: Callable[[], None]) -> None:
        costs = self._costs
        table = self.snapshot_tables.get(vertex_name)
        if table is None:
            # Queryable snapshot state disabled: Jet's blob path only.
            super().write_snapshot(
                vertex_name, instance, node_id, ssid, payload, deleted,
                on_done,
            )
            return
        per_entry = costs.store_entry_ms + costs.squery_snapshot_entry_ms
        if self.config.snapshot_backend == "chain":
            # Chain maintenance pays per-entry version-index housekeeping
            # up front; the LSM backend amortises it into background
            # compaction instead (append-only writes).
            per_entry += costs.incremental_entry_overhead_ms
        per_entry = self._with_maintenance(per_entry, table)
        server = self._cluster.node(node_id).store_server(instance)

        def finish() -> None:
            # Ssids are never reused: a write for any other id belongs
            # to an attempt the store aborted.
            if ssid == self.store.in_progress_ssid:
                table.write_instance(ssid, instance, payload, deleted)
            on_done()

        submit_chunked_write(
            server, len(payload), per_entry,
            costs.scan_chunk_entries, finish,
        )

    def restore_instance_state(self, vertex_name: str, instance: int,
                               ssid: int) -> dict:
        table = self.snapshot_tables.get(vertex_name)
        if table is None:
            state = super().restore_instance_state(
                vertex_name, instance, ssid
            )
        else:
            state = table.instance_state(ssid, instance)
        live = self.live_tables.get(vertex_name)
        if live is not None:
            # The live view must reflect the rolled-back state (Fig. 5c).
            live.replace_partition(instance, state)
        return state

    def reset_instance_state(self, vertex_name: str, instance: int) -> None:
        """Restart-from-scratch (no committed snapshot): the live view
        must be emptied too, or post-recovery live queries and push
        subscribers would observe pre-failure state that no longer
        exists in any operator."""
        live = self.live_tables.get(vertex_name)
        if live is not None:
            live.replace_partition(instance, {})

    # -- active replication (§VII-B, read committed) --------------------

    @property
    def provides_standby(self) -> bool:
        """Whether failures are handled by standby promotion instead of
        rollback (the paper's read-committed HA setup)."""
        return self.config.active_replication

    def standby_state(self, vertex_name: str, instance: int) -> dict:
        """The hot-standby replica of one instance's state."""
        standby = self._standby.get(vertex_name)
        if standby is None:
            raise StateError(
                f"no standby replicas for {vertex_name!r} "
                "(active_replication is off or vertex is stateless)"
            )
        return dict(standby.get(instance, {}))

    def promote_standby(self, vertex_name: str, instance: int) -> dict:
        """Failover: return the standby state and refresh the live view
        (no rollback — committed live reads stay valid)."""
        state = self.standby_state(vertex_name, instance)
        live = self.live_tables.get(vertex_name)
        if live is not None:
            live.replace_partition(instance, state)
        return state

    # -- introspection -------------------------------------------------------

    def live_table(self, vertex_name: str) -> LiveStateTable:
        return self.live_tables[vertex_name]

    def snapshot_table(self, vertex_name: str):
        return self.snapshot_tables[vertex_name]
