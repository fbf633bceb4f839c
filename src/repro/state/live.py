"""Live-state tables (Table I).

A :class:`LiveStateTable` wraps the IMap that mirrors one stateful
operator's running state.  Rows reflect whatever the operators have done
so far — uncommitted by definition, hence the read-uncommitted isolation
level of live queries (§VII-B).
"""

from __future__ import annotations

from typing import Hashable, Iterator

from ..kvstore import IMap
from ..kvstore.derived import DerivedRegistry
from .base import StateTable
from .rows import ColumnBatch, ColumnReader

_MISSING = object()


class LiveStateTable(StateTable):
    """Queryable view over an operator's live IMap.

    Its indexes and sketches are maintained synchronously inside the
    IMap write path (under the same key-level locks as the mirror
    writes), so a probe or an estimate at any instant agrees with the
    partition dicts at that instant — exactly the read-uncommitted
    contract live queries already have."""

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

    @property
    def derived(self) -> dict[str, DerivedRegistry]:
        return self._imap.registries

    def _partition(self, partition: int) -> tuple[dict, int]:
        state = self._imap.partition_state(partition)
        return state, len(state)

    def _registry(self, family: str) -> DerivedRegistry | None:
        return self._imap.registries.get(family)

    def rows(self) -> Iterator[dict]:
        row = self.column_reader.row
        for key, value in self._imap.entries():
            yield row(key, value)

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

    def partitions_on_node(self, node_id: int) -> list[int]:
        return self._imap.partitions_on_node(node_id)

    def partition_of_key(self, key: Hashable) -> int:
        return self._imap.placement.partition_of(key)

    def owner_node_of(self, key: Hashable) -> int:
        """Node holding ``key`` (point-lookup routing)."""
        return self._imap.placement.owner_of(key)

    def point_rows(self, key: Hashable) -> list[dict]:
        """The single row for ``key``, or empty (point lookup)."""
        value = self._imap.get(key, _MISSING)
        if value is _MISSING:
            return []
        return [self.column_reader.row(key, value)]

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
