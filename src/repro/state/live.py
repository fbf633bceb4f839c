"""Live-state tables (Table I).

A :class:`LiveStateTable` wraps the IMap that mirrors one stateful
operator's running state.  Rows reflect whatever the operators have done
so far — uncommitted by definition, hence the read-uncommitted isolation
level of live queries (§VII-B).
"""

from __future__ import annotations

from typing import Hashable, Iterator

from ..kvstore import IMap
from .rows import ColumnBatch, ColumnReader

_MISSING = object()


class LiveStateTable:
    """Queryable view over an operator's live IMap."""

    #: Declared capabilities, read by :class:`~repro.state.view.TableView`
    #: (same names as on the snapshot backends).
    supports_partition_rows = True
    supports_derived = True

    def __init__(self, imap: IMap) -> None:
        self._imap = imap
        #: The table's definition of "what are this object's columns".
        self.column_reader = ColumnReader()
        #: Continuous-query change capture (None = capture disabled; the
        #: mutation fast path then stays exactly as before).
        self._capture = None
        #: node id -> (partitions, batch) of its last scan at the map's
        #: write stamp ``_scan_stamp`` (emptied when the stamp moves).
        self._scans: dict[int, tuple[list[int], ColumnBatch]] = {}
        self._scan_stamp = -1
        #: Node scans answered by the node's last batch / by a new one.
        self.scan_reuses = 0
        self.scan_rebuilds = 0

    def attach_change_capture(self, recorder) -> None:
        """Route every mutation through ``recorder`` as typed events."""
        self._capture = recorder

    @property
    def name(self) -> str:
        return self._imap.name

    @property
    def imap(self) -> IMap:
        return self._imap

    def __len__(self) -> int:
        return len(self._imap)

    def rows(self) -> Iterator[dict]:
        row = self.column_reader.row
        for key, value in self._imap.entries():
            yield row(key, value)

    def scan_partitions(self, partitions: list[int]) -> ColumnBatch:
        """The entries of ``partitions``, in that order, column-readable."""
        batch = ColumnBatch(self.column_reader)
        for partition in partitions:
            batch.load(self._imap.partition_state(partition))
        return batch

    def scan_on_node(self, node_id: int) -> ColumnBatch:
        """The node's entries, column-readable.  The batch is shared and
        read-only: it answers every scan of the node (and, once reused,
        remembers the columns they read) until the map's write stamp or
        the node's partition list changes, then a new one is built.  A
        moved stamp drops every node's batch, so the table holds the
        entries of at most one generation of its state."""
        partitions = self._imap.partitions_on_node(node_id)
        stamp = self._imap.write_count
        if stamp != self._scan_stamp:
            self._scans.clear()
            self._scan_stamp = stamp
        last = self._scans.get(node_id)
        if last is not None and last[0] == partitions:
            self.scan_reuses += 1
            batch = last[1]
            batch.share()
            return batch
        self.scan_rebuilds += 1
        batch = self.scan_partitions(partitions)
        self._scans[node_id] = (partitions, batch)
        return batch

    def rows_on_node(self, node_id: int) -> Iterator[dict]:
        yield from self.scan_on_node(node_id).rows()

    def entries_on_node(self, node_id: int) -> int:
        return sum(
            self._imap.partition_size(partition)
            for partition in self._imap.partitions_on_node(node_id)
        )

    def row_count_on_node(self, node_id: int) -> int:
        return self.entries_on_node(node_id)

    def get(self, key: Hashable, default: object = None) -> object:
        return self._imap.get(key, default)

    # -- partition-granular access (distributed scan pruning) --------------

    def partitions_on_node(self, node_id: int) -> list[int]:
        return self._imap.partitions_on_node(node_id)

    def partition_entry_count(self, partition: int) -> int:
        return self._imap.partition_size(partition)

    def partition_of_key(self, key: Hashable) -> int:
        return self._imap.placement.partition_of(key)

    def rows_in_partition(self, partition: int) -> Iterator[dict]:
        yield from self.scan_partitions([partition]).rows()

    def partition_key_bounds(
        self, partition: int
    ) -> tuple[object, object] | None:
        """(min, max) key of one partition — the zone map that lets a
        range predicate skip the partition.  ``None`` when empty or the
        keys are mutually incomparable."""
        keys = [key for key, _ in self._imap.partition_entries(partition)]
        if not keys:
            return None
        try:
            return min(keys), max(keys)
        except TypeError:
            return None

    def owner_node_of(self, key: Hashable) -> int:
        """Node holding ``key`` (point-lookup routing)."""
        return self._imap.placement.owner_of(key)

    # -- derived structures: secondary indexes and sketches ----------------
    #
    # Both are maintained synchronously inside the IMap write path
    # (under the same key-level locks as the mirror writes), so a probe
    # or an estimate at any instant agrees with the partition dicts at
    # that instant — exactly the read-uncommitted contract live queries
    # already have.

    def definition_count(self, family: str) -> int:
        registry = self._imap.registries.get(family)
        return 0 if registry is None else len(registry)

    def ready(self, family: str) -> bool:
        """Live structures are usable as soon as they exist (no
        freeze)."""
        return self.definition_count(family) > 0

    def coherence_errors(self, family: str) -> list[str]:
        registry = self._imap.registries.get(family)
        return [] if registry is None else registry.coherence_errors()

    # -- secondary indexes (index-backed scans) ----------------------------
    #
    # Probe results come back in partition iteration order — an
    # index-backed fetch feeds the executor the same surviving rows, in
    # the same order, as a full scan would.

    def index_columns(self) -> dict[str, str]:
        registry = self._imap.registries.get("index")
        return {} if registry is None else registry.column_kinds()

    def index_probe_count(self, partition: int, column: str,
                          probe) -> tuple[int, int] | None:
        registry = self._imap.registries.get("index")
        if registry is None:
            return None
        return registry.probe_count(partition, column, probe)

    def index_scan(self, partitions: list[int], column: str,
                   probe) -> ColumnBatch:
        """Candidate entries of an index probe over ``partitions``.

        A partition that can no longer be probed soundly (it degraded
        after the access path was chosen) falls back to all of its
        entries — a superset is safe because the pushed predicates
        re-filter every candidate."""
        registry = self._imap.registries.get("index")
        batch = ColumnBatch(self.column_reader)
        for partition in partitions:
            state = self._imap.partition_state(partition)
            keys = (None if registry is None
                    else registry.probe_keys(partition, column, probe))
            if keys is not None:
                keys = [key for key in keys if key in state]
            batch.load(state, keys=keys)
        return batch

    def point_rows(self, key: Hashable) -> list[dict]:
        """The single row for ``key``, or empty (point lookup)."""
        value = self._imap.get(key, _MISSING)
        if value is _MISSING:
            return []
        return [self.column_reader.row(key, value)]

    # -- sketches (approximate query answering) ----------------------------

    def has_sketch(self, column: str, kind: str) -> bool:
        registry = self._imap.registries.get("sketch")
        return registry is not None and registry.has(column, kind)

    def approx_estimate(self, partitions: list[int], mode: str,
                        column: str, value: object = None
                        ) -> tuple[object, float, float] | None:
        """Merged ``(estimate, bound, confidence)`` or ``None`` when no
        sound sketch answer exists (degraded or missing sketch)."""
        registry = self._imap.registries.get("sketch")
        if registry is None:
            return None
        return registry.estimate(partitions, mode, column, value)

    # -- mutation (called by the S-QUERY backend) --------------------------

    def apply_update(self, key: Hashable, value: object | None) -> None:
        """Mirror one operator state mutation (None = delete)."""
        capture = self._capture
        if capture is None:
            if value is None:
                self._imap.delete(key)
            else:
                self._imap.put(key, value)
            return
        old = self._imap.get(key, _MISSING)
        old_value = None if old is _MISSING else old
        if value is None:
            self._imap.delete(key)
        else:
            self._imap.put(key, value)
        placement = self._imap.placement
        partition = placement.partition_of(key)
        capture.record_mutation(
            self.name, partition, placement.owner_of_partition(partition),
            key, old_value, value,
        )

    def replace_partition(self, partition: int,
                          state: dict[Hashable, object]) -> None:
        """Bulk-refresh one instance partition after rollback recovery.

        The live view must reflect the restored operator state, which is
        how a post-recovery live query observes the rolled-back value in
        the paper's Fig. 5c."""
        stale = [
            key for key, _ in self._imap.partition_entries(partition)
        ]
        for key in stale:
            self._imap.delete(key)
        for key, value in state.items():
            self._imap.put(key, value)
        if self._capture is not None:
            self._capture.record_rollback(
                self.name, partition,
                self._imap.placement.owner_of_partition(partition),
                state,
            )
