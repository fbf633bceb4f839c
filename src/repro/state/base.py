"""What every state table shares.

Live tables (Table I) and snapshot tables (Table II) differ only in how
a version of one partition is stored and reconstructed: a live map's
partition dict, or a walk of a snapshot instance's version trace
(:mod:`~repro.state.snapshots`).  :class:`StateTable` writes the
partition-granular read surface — partition scans, zone maps, index and
sketch reads — once, over two storage hooks every table supplies:

* ``_partition(partition, *version)`` — the partition's ``{key:
  value}`` at the version and the stored entries visited to produce it
  (what reading it bills);
* ``_registry(family, *version)`` — the family's registry that serves
  reads at the version, or ``None``.

``version`` is empty on live state and ``(ssid,)`` on a snapshot table,
as :class:`~repro.state.view.TableView` passes it.
"""

from __future__ import annotations

from typing import Iterator

from ..kvstore.derived import DerivedRegistry
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
