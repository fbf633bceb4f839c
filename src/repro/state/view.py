"""One read interface over live state (Table I), snapshot state
(Table II) and multi-version result sets (§VI-A): readers call the same
methods whatever is behind a :class:`TableView`, never asking which
table family or backend they hold.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from .rows import ColumnBatch


class TableView:
    """A state table bound to live state, one snapshot id, or several.

    ``versions`` is ``None`` for a live table and a tuple of snapshot
    ids otherwise (empty when nothing is committed yet: placement still
    answers, reads are empty).  Row reads and counts span every bound
    version (version-major, the §VI-A multi-version order); partition-
    granular access and derived structures (indexes, sketches) serve
    one version at a time, on every backend, so all-versions reads
    always take the whole-shard scan path.
    """

    __slots__ = ("table", "versions", "_args", "_version", "immutable",
                 "single_version")

    def __init__(self, table, versions: tuple[int, ...] | None = None
                 ) -> None:
        self.table = table
        self.versions = versions
        #: Per bound version, the positional version argument of the
        #: table's read methods (live tables take none).
        self._args: tuple[tuple, ...] = (
            ((),) if versions is None
            else tuple((ssid,) for ssid in versions)
        )
        #: Committed snapshot versions never change under a reader; live
        #: state does.
        self.immutable = versions is not None
        #: Live state or one snapshot id: the partition-granular reads
        #: and derived structures serve it.
        self.single_version = len(self._args) == 1
        #: Version argument of the single-version methods.
        self._version = self._args[0] if self.single_version else None

    # -- placement ---------------------------------------------------------

    def owner_node_of(self, key: Hashable) -> int:
        return self.table.owner_node_of(key)

    def partition_of_key(self, key: Hashable) -> int:
        return self.table.partition_of_key(key)

    def partitions_on_node(self, node_id: int) -> list[int]:
        return self.table.partitions_on_node(node_id)

    # -- node-local reads (every bound version) ----------------------------

    def scan_on_node(self, node_id: int) -> ColumnBatch:
        """A node's entries, column-readable through the table's
        reader (what scan shards run their fragment over).  Shared and
        read-only: a single-version view hands out the table's own
        batch (a live table's answers every scan until it is next
        written)."""
        if self._version is not None:
            return self.table.scan_on_node(node_id, *self._version)
        batch = ColumnBatch(self.table.column_reader)
        for args in self._args:
            batch.extend(self.table.scan_on_node(node_id, *args))
        return batch

    def rows_on_node(self, node_id: int) -> Iterator[dict]:
        yield from self.scan_on_node(node_id).rows()

    def entries_on_node(self, node_id: int) -> int:
        """Stored entries a node-local scan must visit."""
        entries = 0
        for args in self._args:
            entries += self.table.entries_on_node(node_id, *args)
        return entries

    def row_count_on_node(self, node_id: int) -> int:
        """Result rows a node-local scan produces."""
        rows = 0
        for args in self._args:
            rows += self.table.row_count_on_node(node_id, *args)
        return rows

    def point_rows(self, key: Hashable) -> list[dict]:
        rows: list[dict] = []
        for args in self._args:
            rows.extend(self.table.point_rows(key, *args))
        return rows

    # -- partition-granular access (``single_version``) --------------------

    def partition_entry_count(self, partition: int) -> int:
        return self.table.partition_entry_count(partition, *self._version)

    def scan_partitions(self, partitions: list[int]) -> ColumnBatch:
        return self.table.scan_partitions(partitions, *self._version)

    def rows_in_partition(self, partition: int) -> Iterator[dict]:
        return self.table.rows_in_partition(partition, *self._version)

    def partition_key_bounds(
        self, partition: int
    ) -> tuple[object, object] | None:
        return self.table.partition_key_bounds(partition, *self._version)

    def partitions_and_entries(self, nodes: list[int]
                               ) -> tuple[list[int], int]:
        """Every partition hosted on ``nodes`` and the entries a scan of
        all of them visits (what access-path and join pricing read)."""
        partitions: list[int] = []
        entries = 0
        for node_id in nodes:
            partitions.extend(self.partitions_on_node(node_id))
            entries += self.entries_on_node(node_id)
        return partitions, entries

    # -- derived structures (``single_version``) ---------------------------

    def ready(self, family: str) -> bool:
        """Whether ``family`` ("index" / "sketch") can serve this view:
        declared, and for a snapshot version frozen."""
        return self.single_version and \
            self.table.ready(family, *self._version)

    def index_columns(self) -> dict[str, str]:
        return self.table.index_columns(*self._version)

    def index_probe_count(self, partition: int, column: str,
                          probe) -> tuple[int, int] | None:
        return self.table.index_probe_count(
            partition, column, probe, *self._version
        )

    def index_scan(self, partitions: list[int], column: str,
                   probe) -> ColumnBatch:
        return self.table.index_scan(
            partitions, column, probe, *self._version
        )

    def has_sketch(self, column: str, kind: str) -> bool:
        return self.table.has_sketch(column, kind, *self._version)

    def approx_estimate(self, partitions: list[int], mode: str,
                        column: str, value: object
                        ) -> tuple[object, float, float] | None:
        return self.table.approx_estimate(
            partitions, mode, column, value, *self._version
        )
