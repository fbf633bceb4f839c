"""The multi-versioned LSM store: memtable, L0, L1, compaction, GC.

Layout (newest to oldest):

* **memtable** — a mutable dict of ``(key, ssid) -> value``;
* **L0** — flushed runs, newest first, possibly overlapping;
* **L1** — a single compacted, non-overlapping run.

Point reads at a snapshot search newest→oldest and stop at the first
run holding a version ``<= ssid`` (write versions are monotone per
key).  Compaction merges L0 into L1, drops versions made obsolete by
the garbage-collection **watermark** (the oldest snapshot id still
retained), and thereby *bounds read amplification* — the §VI-B claim
this substrate exists to demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator

from ..errors import StoreError
from .sstable import SSTable, TOMBSTONE


@dataclass
class LsmStats:
    """Operational statistics of one store."""

    puts: int = 0
    gets: int = 0
    entries_touched: int = 0
    bloom_negatives: int = 0
    flushes: int = 0
    compactions: int = 0
    entries_written: int = 0      # user writes
    entries_rewritten: int = 0    # by flush + compaction
    entries_dropped: int = 0      # GC'd versions

    @property
    def write_amplification(self) -> float:
        if self.entries_written == 0:
            return 0.0
        return self.entries_rewritten / self.entries_written


class LsmStore:
    """A single-partition MVCC LSM store."""

    def __init__(self, memtable_limit: int = 4096,
                 l0_compaction_threshold: int = 4) -> None:
        if memtable_limit < 1:
            raise StoreError("memtable_limit must be >= 1")
        if l0_compaction_threshold < 1:
            raise StoreError("l0_compaction_threshold must be >= 1")
        self._memtable: dict[tuple[Hashable, int], object] = {}
        self._l0: list[SSTable] = []   # newest first
        self._l1: SSTable | None = None
        self._memtable_limit = memtable_limit
        self._l0_threshold = l0_compaction_threshold
        self._watermark: int | None = None
        self._max_version = -1
        self.stats = LsmStats()

    # -- writes ------------------------------------------------------------

    def put(self, key: Hashable, ssid: int, value: object) -> None:
        """Write one version.  Versions must not decrease per key."""
        self._write(key, ssid, value)

    def delete(self, key: Hashable, ssid: int) -> None:
        """Write a deletion tombstone at ``ssid``."""
        self._write(key, ssid, TOMBSTONE)

    def _write(self, key: Hashable, ssid: int, value: object) -> None:
        self._memtable[(key, ssid)] = value
        self._max_version = max(self._max_version, ssid)
        self.stats.puts += 1
        self.stats.entries_written += 1
        if len(self._memtable) >= self._memtable_limit:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new L0 run."""
        if not self._memtable:
            return
        entries = [
            (key, ssid, value)
            for (key, ssid), value in self._memtable.items()
        ]
        self._l0.insert(0, SSTable(entries))
        self.stats.flushes += 1
        self.stats.entries_rewritten += len(entries)
        self._memtable = {}
        if len(self._l0) > self._l0_threshold:
            self.compact()

    # -- reads ------------------------------------------------------------

    def get(self, key: Hashable, ssid: int | None = None) -> object:
        """Newest value of ``key`` visible at snapshot ``ssid`` (or the
        newest overall); ``None`` if absent or deleted."""
        if ssid is None:
            ssid = self._max_version
        self.stats.gets += 1
        # Memtable: exact-version dict; walk versions newest-first.
        best: tuple[int, object] | None = None
        for (ukey, version), value in self._memtable.items():
            if ukey == key and version <= ssid:
                self.stats.entries_touched += 1
                if best is None or version > best[0]:
                    best = (version, value)
        if best is not None:
            return None if best[1] is TOMBSTONE else best[1]
        for run in self._runs():
            if not run.might_contain(key):
                self.stats.bloom_negatives += 1
                continue
            status, value, touched = run.get(key, ssid)
            self.stats.entries_touched += touched
            if status == "found":
                return None if value is TOMBSTONE else value
        return None

    def versions_of(self, key: Hashable) -> list[tuple[int, object]]:
        """All retained versions of ``key``, newest first (audit use)."""
        versions: dict[int, object] = {}
        for run in reversed(list(self._runs())):
            for ssid, value in run.versions_of(key):
                versions[ssid] = value
        for (ukey, ssid), value in self._memtable.items():
            if ukey == key:
                versions[ssid] = value
        return sorted(versions.items(), reverse=True)

    def scan_at(self, ssid: int) -> Iterator[tuple[Hashable, object]]:
        """All live (key, value) pairs visible at snapshot ``ssid``, in
        the order a backward walk over per-checkpoint deltas gives them:
        newest version first, write order within a version.

        Touch accounting covers every version inspected — the read
        amplification a full reconstruction pays.
        """
        by_version: dict[int, dict[Hashable, object]] = {}
        for key, version, value in self._written():
            self.stats.entries_touched += 1
            if version <= ssid:
                by_version.setdefault(version, {})[key] = value
        seen: set[Hashable] = set()
        for version in sorted(by_version, reverse=True):
            for key, value in by_version[version].items():
                if key not in seen:
                    seen.add(key)
                    if value is not TOMBSTONE:
                        yield key, value

    def scan_cost_at(self, ssid: int) -> int:
        """Entries a :meth:`scan_at` would touch (without touching)."""
        del ssid  # every stored version is inspected regardless
        return len(self._memtable) + sum(
            len(run) for run in self._runs()
        )

    def _runs(self) -> Iterator[SSTable]:
        yield from self._l0
        if self._l1 is not None:
            yield self._l1

    def _written(self) -> Iterator[tuple[Hashable, int, object]]:
        """Every stored entry, oldest run first and the memtable last:
        each version's entries in the order they were written."""
        for run in reversed(list(self._runs())):
            yield from run.scan()
        for (key, ssid), value in self._memtable.items():
            yield key, ssid, value

    # -- compaction and GC ---------------------------------------------------

    def set_watermark(self, ssid: int | None) -> None:
        """Versions older than the newest version ``<= ssid`` per key
        become garbage at the next compaction (snapshot retention)."""
        self._watermark = ssid

    def compact(self) -> None:
        """Merge L0 + L1 into a fresh L1, dropping obsolete versions."""
        runs = list(self._runs())
        if not runs:
            return
        # Oldest run first, so each version's entries keep write order.
        merged = [entry for run in reversed(runs) for entry in run.scan()]
        entries = self._drop_garbage(merged)
        self._l0 = []
        self._l1 = SSTable(entries)
        self.stats.compactions += 1
        self.stats.entries_rewritten += len(entries)
        self.stats.entries_dropped += len(merged) - len(entries)

    def _drop_garbage(self, entries: list) -> list:
        """Keep versions above the watermark plus each key's newest one
        at or below it (needed to reconstruct the watermark snapshot);
        a tombstone in that anchor position disappears entirely: the
        key is dead everywhere at and below the watermark."""
        watermark = self._watermark
        if watermark is None:
            return entries
        anchor: dict[Hashable, int] = {}
        for key, version, _ in entries:
            if version <= watermark and version > anchor.get(key, version - 1):
                anchor[key] = version
        return [
            (key, version, value) for key, version, value in entries
            if version > watermark
            or (version == anchor[key] and value is not TOMBSTONE)
        ]

    def discard(self, ssid: int) -> None:
        """Remove every version written at ``ssid`` (an aborted
        checkpoint's)."""
        self._memtable = {
            entry: value for entry, value in self._memtable.items()
            if entry[1] != ssid
        }
        runs = [
            SSTable([entry for entry in run.scan() if entry[1] != ssid])
            for run in self._runs()
        ]
        if self._l1 is not None:
            l1 = runs.pop()
            self._l1 = l1 if len(l1) else None
        self._l0 = [run for run in runs if len(run)]

    # -- introspection --------------------------------------------------------

    @property
    def l0_runs(self) -> int:
        return len(self._l0)

    @property
    def read_amplification_bound(self) -> int:
        """Maximum runs a point read may touch (memtable excluded)."""
        return len(self._l0) + (1 if self._l1 is not None else 0)

    def total_entries(self) -> int:
        return len(self._memtable) + sum(len(run) for run in self._runs())

    def memtable_size(self) -> int:
        return len(self._memtable)
