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
passed.  ``benchmarks/bench_ablation_lsm.py`` measures the effect.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..errors import SnapshotNotFoundError
from ..lsm import LsmStore
from .base import SnapshotTableBase, forget_reconstructions


class LsmSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, stored in per-instance LSM
    stores with MVCC versions keyed by snapshot id.

    A partition read reconstructs the instance and bills the stored
    versions its scan touches, as :meth:`entries_on_node` does."""

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
        self._ssids: list[int] = []
        self._cache: dict[tuple[int, int], tuple[dict, int]] = {}
        self._cache_keep = 4

    # -- writes ------------------------------------------------------------

    def write_instance(self, ssid: int, instance: int,
                       payload: dict[Hashable, object],
                       deleted: set[Hashable] | None = None) -> None:
        store = self._stores[instance]
        for key, value in payload.items():
            store.put(key, ssid, value)
        for key in deleted or ():
            store.delete(key, ssid)
        # A checkpoint boundary flushes the memtable (RocksDB-style:
        # the checkpoint references immutable files).
        store.flush()
        if ssid not in self._ssids:
            self._ssids.append(ssid)
        forget_reconstructions(self._cache, instance, ssid, self._cache_keep)
        super().write_instance(ssid, instance, payload, deleted)

    def drop_snapshot(self, ssid: int) -> None:
        """Retention: retire ``ssid`` and advance the GC watermark so
        the next compactions reclaim versions nothing can read."""
        super().drop_snapshot(ssid)
        if ssid in self._ssids:
            self._ssids.remove(ssid)
        if self._ssids:
            watermark = min(self._ssids)
            for store in self._stores:
                store.set_watermark(watermark)

    # -- reads --------------------------------------------------------------

    def available_ssids(self) -> list[int]:
        return sorted(self._ssids)

    def has_snapshot(self, ssid: int) -> bool:
        return ssid in self._ssids

    def materialize_instance(self, ssid: int,
                             instance: int) -> tuple[dict, int]:
        if ssid not in self._ssids:
            raise SnapshotNotFoundError(ssid)
        cached = self._cache.get((instance, ssid))
        if cached is not None:
            return dict(cached[0]), cached[1]
        store = self._stores[instance]
        before = store.stats.entries_touched
        state = dict(store.scan_at(ssid))
        scanned = store.stats.entries_touched - before
        self._cache[(instance, ssid)] = (dict(state), scanned)
        return state, scanned

    def _partition(self, partition: int, ssid: int) -> tuple[dict, int]:
        state, _ = self.materialize_instance(ssid, partition)
        return state, self._stores[partition].scan_cost_at(ssid)

    def entries_on_node(self, node_id: int, ssid: int) -> int:
        """Reconstruction cost: stored versions a scan touches (bounded
        by compaction — the §VI-B read-amplification argument)."""
        if ssid not in self._ssids:
            raise SnapshotNotFoundError(ssid)
        return sum(
            self._stores[instance].scan_cost_at(ssid)
            for instance in range(self.parallelism)
            if self._node_of_instance(instance) == node_id
        )

    def point_rows(self, key: Hashable, ssid: int) -> list[dict]:
        """A true MVCC point get against the instance's LSM store."""
        if ssid not in self._ssids:
            raise SnapshotNotFoundError(ssid)
        instance = self.partition_of_key(key)
        value = self._stores[instance].get(key, ssid=ssid)
        if value is None:
            return []
        return [self.column_reader.row(key, value, ssid)]

    # -- maintenance ---------------------------------------------------------

    def maybe_prune(self, committed_ssid: int) -> bool:
        """Chain-style pruning is unnecessary — compaction already
        bounds the read path; provided for protocol compatibility."""
        del committed_ssid
        return False

    def compact_all(self) -> None:
        """Force a full compaction of every instance store (tests)."""
        for store in self._stores:
            store.flush()
            store.compact()
        self._cache.clear()

    @property
    def compactions(self) -> int:
        return sum(store.stats.compactions for store in self._stores)

    def total_entries(self) -> int:
        return sum(store.total_entries() for store in self._stores)

    def store_of(self, instance: int) -> LsmStore:
        return self._stores[instance]
