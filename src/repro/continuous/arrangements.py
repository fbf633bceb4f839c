"""Shared arrangements: one maintained index per table, many readers.

Following *Shared Arrangements* (McSherry et al., VLDB 2020), standing
queries over the same state share a single maintained, row-shaped index
of the table instead of each paying to maintain its own.  The
arrangement applies every captured change exactly once — charging the
cost model **once per state update, independent of the number of
standing queries reading it** — and fans the resulting row delta out to
its readers.  This is what makes N dashboards over one table cost the
store the same as one.
"""

from __future__ import annotations

from typing import Callable, Hashable

from .changelog import ChangeEvent, ROLLBACK

#: A reader callback: ``(key, old_row, new_row)`` where rows are shaped
#: live rows (``None`` for absent).  Rollbacks are delivered separately.
Reader = Callable[[Hashable, dict | None, dict | None], None]


class Arrangement:
    """A maintained, row-shaped index over one live table."""

    def __init__(self, env, table) -> None:
        self.env = env
        self.table = table
        self.name = table.name
        #: key -> shaped live row, maintained from the change stream.
        self.rows: dict[Hashable, dict] = {
            key: table.column_reader.row(key, value)
            for key, value in table.imap.entries()
        }
        self._readers: list[Reader] = []
        self._rollback_readers: list[Callable[[ChangeEvent], None]] = []
        #: The change event currently fanning out to readers — readers
        #: that bill follow-on work (plan maintenance) read its
        #: node/partition so the charge lands on the owning store thread.
        self.current_event: ChangeEvent | None = None
        self.updates_applied = 0
        self.cost_charges = 0
        self.charged_ms = 0.0
        self.rollbacks_applied = 0

    @property
    def reader_count(self) -> int:
        return len(self._readers)

    # -- reader registry ---------------------------------------------------

    def add_reader(self, reader: Reader,
                   on_rollback: Callable[[ChangeEvent], None] | None = None,
                   ) -> None:
        self._readers.append(reader)
        if on_rollback is not None:
            self._rollback_readers.append(on_rollback)

    def remove_reader(self, reader: Reader,
                      on_rollback: Callable | None = None) -> bool:
        """Detach a reader; returns True when no readers remain."""
        if reader in self._readers:
            self._readers.remove(reader)
        if on_rollback is not None and on_rollback in self._rollback_readers:
            self._rollback_readers.remove(on_rollback)
        return not self._readers

    # -- change application ------------------------------------------------

    def on_event(self, event: ChangeEvent) -> None:
        """Apply one captured change to the shared index (charged once)."""
        if event.op == ROLLBACK:
            self._apply_rollback(event)
            return
        old_row = self.rows.get(event.key)
        if event.new_value is None:
            self.rows.pop(event.key, None)
            new_row = None
        else:
            new_row = self.table.column_reader.row(
                event.key, event.new_value
            )
            self.rows[event.key] = new_row
        self._charge(event.node_id, event.partition,
                     self.env.costs.arrangement_update_ms)
        self.current_event = event
        for reader in list(self._readers):
            reader(event.key, old_row, new_row)

    def _apply_rollback(self, event: ChangeEvent) -> None:
        """Rebuild one partition's slice of the index from restored state."""
        partition_of = self.table.imap.placement.partition_of
        stale = [
            key for key in self.rows if partition_of(key) == event.partition
        ]
        for key in stale:
            del self.rows[key]
        restored: dict = event.new_value or {}
        for key, value in restored.items():
            self.rows[key] = self.table.column_reader.row(key, value)
        self.rollbacks_applied += 1
        self._charge(event.node_id, event.partition,
                     len(restored) * self.env.costs.store_entry_ms)
        for listener in self._rollback_readers:
            listener(event)

    def _charge(self, node_id: int, partition: int, duration: float) -> None:
        """Charge index maintenance to the owning node's store thread —
        once per update, however many readers are attached."""
        node = self.env.cluster.node(node_id)
        node.store_server(max(partition, 0)).submit(duration)
        self.cost_charges += 1
        self.charged_ms += duration
        self.updates_applied += 1
