"""LSM-backed incremental snapshot tables (§VI-B).

The chain-based :class:`~repro.state.incremental.IncrementalSnapshotTable`
walks per-checkpoint deltas backwards, and its reconstruction cost grows
with the chain depth — which the paper identifies as what "now limits
the performance of S-QUERY", adding that an LSM backend's "level-based
compaction bounds read amplification and would reduce the search time
for historic changes per key".

This module provides exactly that alternative: each operator instance's
snapshot versions live in a :class:`~repro.lsm.LsmStore`; checkpoint
deltas become versioned puts, retention drives the garbage-collection
watermark, and background compaction keeps the number of runs a
reconstruction touches bounded regardless of how many checkpoints have
passed.  An aborted checkpoint's versions are removed from every store.
``benchmarks/bench_ablation_lsm.py`` measures the effect.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..errors import SnapshotNotFoundError
from ..lsm import LsmStore
from .base import SnapshotTableBase


class LsmSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, stored in per-instance LSM
    stores with MVCC versions keyed by snapshot id.

    A partition read reconstructs the instance and bills the stored
    versions its scan touches."""

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int],
                 memtable_limit: int = 100_000,
                 l0_compaction_threshold: int = 4) -> None:
        super().__init__(name, parallelism, node_of_instance)
        self._stores = [
            LsmStore(memtable_limit=memtable_limit,
                     l0_compaction_threshold=l0_compaction_threshold)
            for _ in range(parallelism)
        ]

    # -- storage -----------------------------------------------------------

    def _store(self, ssid: int, instance: int,
               payload: dict[Hashable, object],
               deleted: set[Hashable] | None) -> None:
        store = self._stores[instance]
        for key, value in payload.items():
            store.put(key, ssid, value)
        for key in deleted or ():
            store.delete(key, ssid)
        # A checkpoint boundary flushes the memtable (RocksDB-style:
        # the checkpoint references immutable files).
        store.flush()

    def _discard(self, ssid: int) -> None:
        for store in self._stores:
            store.discard(ssid)

    def _retire(self, ssid: int) -> None:
        """Advance the GC watermark to the oldest version still served,
        so the next compactions reclaim versions nothing can read."""
        if self._served:
            watermark = min(self._served)
            for store in self._stores:
                store.set_watermark(watermark)

    # -- reads --------------------------------------------------------------

    def _rebuild(self, ssid: int, instance: int) -> tuple[dict, int]:
        store = self._stores[instance]
        before = store.stats.entries_touched
        state = dict(store.scan_at(ssid))
        return state, store.stats.entries_touched - before

    def _partition(self, partition: int, ssid: int) -> tuple[dict, int]:
        # Compaction moves the bill under a memoised reconstruction.
        state, _ = self.materialize_instance(ssid, partition)
        return state, self._stores[partition].scan_cost_at(ssid)

    def point_rows(self, key: Hashable, ssid: int) -> list[dict]:
        """A true MVCC point get against the instance's LSM store."""
        if ssid not in self._served:
            raise SnapshotNotFoundError(ssid)
        instance = self.partition_of_key(key)
        value = self._stores[instance].get(key, ssid=ssid)
        if value is None:
            return []
        return [self.column_reader.row(key, value, ssid)]

    # -- maintenance ---------------------------------------------------------

    def compact_all(self) -> None:
        """Force a full compaction of every instance store (tests)."""
        for store in self._stores:
            store.flush()
            store.compact()
        self._memo.clear()

    @property
    def compactions(self) -> int:
        return sum(store.stats.compactions for store in self._stores)

    def total_entries(self) -> int:
        return sum(store.total_entries() for store in self._stores)
