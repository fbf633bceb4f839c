"""Snapshot state tables (Table II): one version trace, three policies.

Each stateful operator gets one snapshot table, and each of its
instances one *trace*: version -> that version's batch ``{key: value |
TOMBSTONE}`` in write order — an arrangement's trace in the sense of
Shared Arrangements (PAPERS.md).  A read of version ``ssid`` walks the
trace newest first from the newest version ``<= ssid``: the first entry
met for a key decides it, and a tombstone hides the key.

The paper's full and incremental snapshots (§VI, Fig. 12/13) and the
LSM store its §VI-B discussion proposes are three policies over that
trace.  Each says how a write is stored, where the walk stops, what the
walk bills and what compaction drops:

* **full** (:class:`FullSnapshotTable`) — a write is a base, a copy of
  the instance's state, read in place (no walk) and billed by its
  entries; a version goes when it is retired.  With the paper's default
  retention of two versions memory stays constant.
* **chain** (:class:`IncrementalSnapshotTable`) — a write is a delta:
  the changed entries, then a tombstone per deletion.  The walk stops
  once it has found every key live at its first version and bills the
  entries it visited.  At a commit, a chain past ``prune_chain_length``
  deltas folds everything up to the oldest version retained into one
  base (§VI-A, "S-QUERY prunes obsolete states").
* **LSM** (:class:`LsmSnapshotTable`) — a write is a delta, flushed as
  runs of ``memtable_limit`` entries.  The walk bills every stored
  entry, whatever the version it reads.  Each time the runs pass
  ``l0_compaction_threshold`` they merge, and the merge drops what lies
  below the watermark (the oldest version served at the last
  retirement) except each key's newest version there — "level-based
  compaction bounds read amplification" (§VI-B).

:class:`SnapshotTableBase` holds the traces and the version lifecycle
the store drives.  A version is served from its first instance write
until the store aborts it (:meth:`~SnapshotTableBase.abort`: every
batch the attempt wrote goes) or retires it
(:meth:`~SnapshotTableBase.drop_snapshot`: it stops being served).
After each commit's retention the store calls
:meth:`~SnapshotTableBase.compact` with the oldest version it still
serves.  Committed snapshots are replicated synchronously during the
2PC, so they survive node failures.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, Iterable, Iterator

from ..approx.registry import SketchRegistry
from ..cluster.partition import stable_hash
from ..errors import SnapshotNotFoundError, StoreError
from ..kvstore.derived import DerivedRegistry, VersionedRegistries
from ..kvstore.indexes import IndexRegistry
from .base import StateTable
from .rows import ColumnBatch, ColumnReader


class _Tombstone:
    """Marker for a deleted key inside a batch."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<deleted>"


TOMBSTONE = _Tombstone()

_EMPTY: dict = {}


def _delta(payload: dict[Hashable, object],
           deleted: set[Hashable] | None) -> dict[Hashable, object]:
    """A write as a delta: the changed entries, then a tombstone per
    deletion."""
    batch = dict(payload)
    for key in deleted or ():
        batch[key] = TOMBSTONE
    return batch


class SnapshotTableBase(StateTable):
    """Placement, per-instance version traces, node-local reads and
    derived structures of one operator's snapshot table."""

    #: A committed version's entries, and what a scan of them costs,
    #: stay fixed while it is retained (full copies), so what a read of
    #: it implies may be derived once (``QueryService``'s snapshot
    #: plans).  Walking policies price a version by a chain or a
    #: compaction state that moves under it.
    stable_versions = False

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int]) -> None:
        self.name = name
        self.parallelism = parallelism
        self._node_of_instance = node_of_instance
        self.column_reader = ColumnReader()
        #: Family name -> the family's per-version registries: rebuilt
        #: as a version's instance writes land, frozen at its commit,
        #: dropped when the version stops being served.
        self.derived: dict[str, VersionedRegistries] = {
            registry_class.family: VersionedRegistries(
                registry_class, parallelism, self._entries_of
            )
            for registry_class in (IndexRegistry, SketchRegistry)
        }
        #: instance -> version -> batch ``{key: value | TOMBSTONE}``.
        self._traces: dict[int, dict[int, dict[Hashable, object]]] = {}
        #: The versions served, from their first instance write until
        #: the store aborts or retires them.
        self._served: set[int] = set()
        #: ``(instance, ssid) -> (state, visited)``: walks of served
        #: versions, kept until the instance is written at or before
        #: ``ssid``.
        self._memo: dict[tuple[int, int], tuple[dict, int]] = {}
        #: Compactions run: chain folds, LSM merges.
        self.compactions = 0

    def _entries_of(self, ssid: int, partition: int):
        return self._read(ssid, partition)[0].items()

    def _partition(self, partition: int, ssid: int) -> tuple[dict, int]:
        return self._read(ssid, partition)

    def _registry(self, family: str, ssid: int) -> DerivedRegistry | None:
        return self.derived[family].at(ssid)

    def _trace(self, instance: int) -> dict[int, dict[Hashable, object]]:
        trace = self._traces.get(instance)
        if trace is None:
            trace = self._traces[instance] = {}
        return trace

    # -- the policy ---------------------------------------------------------

    def _append(self, ssid: int, instance: int,
                payload: dict[Hashable, object],
                deleted: set[Hashable] | None) -> None:
        """How a write is stored: as a delta unless a policy says
        otherwise."""
        self._trace(instance)[ssid] = _delta(payload, deleted)

    def _stops(self, instance: int, newest: int, found: int) -> bool:
        """Whether a walk that began at version ``newest`` and has found
        ``found`` live keys stops before the next older version."""
        return False

    def _bill(self, instance: int, visited: int) -> int:
        """What a read of ``instance`` bills, its walk having visited
        ``visited`` entries."""
        return visited

    def compact(self, oldest: int) -> None:
        """Commit time, after retention: ``oldest`` is the oldest
        version the store still serves.  A policy that compacts at a
        commit does so here."""

    # -- the version lifecycle ----------------------------------------------

    def write_instance(self, ssid: int, instance: int,
                       payload: dict[Hashable, object],
                       deleted: set[Hashable] | None = None) -> None:
        """Store ``instance``'s entries of version ``ssid`` (a full copy
        ignores ``deleted``) and re-derive its partition."""
        self._append(ssid, instance, payload, deleted)
        self._served.add(ssid)
        self._forget(instance, ssid)
        for holder in self.derived.values():
            holder.rebuild(ssid, instance)

    def abort(self, ssid: int) -> None:
        """The attempt ``ssid`` will not commit: drop every batch it
        wrote, so no later version reads through it."""
        self._leave(ssid)
        for trace in self._traces.values():
            trace.pop(ssid, None)

    def drop_snapshot(self, ssid: int) -> None:
        """Retention: stop serving ``ssid``.  Its batches stay while a
        policy's walks read through them."""
        self._leave(ssid)

    def _leave(self, ssid: int) -> None:
        self._served.discard(ssid)
        for cached in [cached for cached in self._memo if cached[1] == ssid]:
            del self._memo[cached]
        for holder in self.derived.values():
            holder.drop(ssid)

    def _forget(self, instance: int, since: int = 0) -> None:
        """Drop ``instance``'s walks at ``since`` and later: read before
        a write that changes them landed."""
        stale = [cached for cached in self._memo
                 if cached[0] == instance and cached[1] >= since]
        for cached in stale:
            del self._memo[cached]

    def available_ssids(self) -> list[int]:
        return sorted(self._served)

    def has_snapshot(self, ssid: int) -> bool:
        return ssid in self._served

    def total_entries(self) -> int:
        """All stored entries across versions (memory accounting)."""
        return sum(
            len(batch)
            for trace in self._traces.values()
            for batch in trace.values()
        )

    def add_definition(self, registry_class: type[DerivedRegistry],
                       definition, retained: Iterable[int] = ()):
        """Declare ``definition`` and backfill it into those of the
        store's ``retained`` versions this table holds."""
        return self.derived[registry_class.family].add(
            definition, filter(self.has_snapshot, retained)
        )

    def freeze(self, ssid: int) -> None:
        """Commit time: the version's registries become immutable."""
        for holder in self.derived.values():
            holder.freeze(ssid)

    @property
    def ddl_epoch(self) -> int:
        """Definitions declared so far.  DDL only ever adds one, so the
        count moves whenever a read may gain an index or sketch."""
        return sum(map(len, self.derived.values()))

    def maintenance_ops(self, family: str) -> int:
        return self.derived[family].maintenance_ops

    def set_mutation_hook(self, hook: Callable[[str, str], None]) -> None:
        """Observe frozen-registry mutation attempts as ``hook(family,
        message)`` (sanitizers)."""
        for family, holder in self.derived.items():
            holder.set_mutation_hook(partial(hook, family))

    # -- placement ---------------------------------------------------------
    #
    # Snapshot partitions coincide with operator instances.

    def partition_of_key(self, key: Hashable) -> int:
        return stable_hash(key) % self.parallelism

    def owner_node_of(self, key: Hashable) -> int:
        """Node holding ``key``'s instance partition (point lookups)."""
        return self._node_of_instance(self.partition_of_key(key))

    def partitions_on_node(self, node_id: int) -> list[int]:
        """Instance partitions a node hosts (node-level scan pruning)."""
        return [
            instance for instance in range(self.parallelism)
            if self._node_of_instance(instance) == node_id
        ]

    def placement(self) -> tuple[int, ...]:
        """The node of every instance partition, by partition."""
        return tuple(map(self._node_of_instance, range(self.parallelism)))

    # -- reads -------------------------------------------------------------

    def materialize_instance(self, ssid: int,
                             instance: int) -> tuple[dict, int]:
        """A copy of one instance's state at ``ssid``, and what a scan
        of it bills; raises :class:`~repro.errors.SnapshotNotFoundError`
        for a version not served."""
        state, billed = self._read(ssid, instance)
        return dict(state), billed

    def _read(self, ssid: int, instance: int) -> tuple[dict, int]:
        """:meth:`materialize_instance` without the copy: readers must
        not mutate the state."""
        if ssid not in self._served:
            raise SnapshotNotFoundError(ssid)
        walked = self._memo.get((instance, ssid))
        if walked is None:
            walked = self._memo[(instance, ssid)] = self._walk(
                ssid, instance)
        return walked[0], self._bill(instance, walked[1])

    def _walk(self, ssid: int, instance: int) -> tuple[dict, int]:
        """The instance's state at ``ssid`` and the entries visited."""
        trace = self._traces.get(instance, _EMPTY)
        versions = sorted((version for version in trace if version <= ssid),
                          reverse=True)
        state: dict[Hashable, object] = {}
        dead: set[Hashable] = set()
        visited = 0
        for version in versions:
            for key, value in trace[version].items():
                visited += 1
                if key in state or key in dead:
                    continue
                if value is TOMBSTONE:
                    dead.add(key)
                else:
                    state[key] = value
            if self._stops(instance, versions[0], len(state)):
                break
        return state, visited

    def _on_node(self, node_id: int,
                 ssid: int) -> Iterator[tuple[dict, int]]:
        for instance in self.partitions_on_node(node_id):
            yield self._read(ssid, instance)

    def instance_state(self, ssid: int, instance: int) -> dict:
        return self.materialize_instance(ssid, instance)[0]

    def materialize(self, ssid: int) -> tuple[dict, int]:
        """The complete operator state at ``ssid``, instances in id
        order, with its scan cost."""
        merged: dict[Hashable, object] = {}
        scanned = 0
        for instance in range(self.parallelism):
            state, visited = self._read(ssid, instance)
            merged.update(state)
            scanned += visited
        return merged, scanned

    def rows_for_snapshot(self, ssid: int) -> Iterator[dict]:
        state, _ = self.materialize(ssid)
        yield from ColumnBatch(self.column_reader).load(state, ssid).rows()

    def scan_on_node(self, node_id: int, ssid: int) -> ColumnBatch:
        """A node's entries of ``ssid`` in scan order, column-readable."""
        batch = ColumnBatch(self.column_reader)
        for state, _ in self._on_node(node_id, ssid):
            batch.load(state, ssid)
        return batch

    def rows_on_node(self, node_id: int, ssid: int) -> Iterator[dict]:
        yield from self.scan_on_node(node_id, ssid).rows()

    def entries_on_node(self, node_id: int, ssid: int) -> int:
        """Stored entries a node-local scan of ``ssid`` must visit."""
        return sum(
            self.partition_entry_count(instance, ssid)
            for instance in self.partitions_on_node(node_id)
        )

    def row_count_on_node(self, node_id: int, ssid: int) -> int:
        """Result rows a node-local scan produces (== entries for full
        snapshots; walking policies visit more entries than rows)."""
        rows = 0
        for state, _ in self._on_node(node_id, ssid):
            rows += len(state)
        return rows

    def point_rows(self, key: Hashable, ssid: int) -> list[dict]:
        """The single (key, ssid) row, or empty (point lookup)."""
        state, _ = self._read(ssid, self.partition_of_key(key))
        if key not in state:
            return []
        return [self.column_reader.row(key, state[key], ssid)]

    # -- failure handling --------------------------------------------------

    def on_node_failure(self, node_id: int) -> None:
        """Committed snapshots survive via synchronous replicas."""


class FullSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, full-copy mode: every write is a
    base, read in place."""

    stable_versions = True

    def _append(self, ssid: int, instance: int,
                payload: dict[Hashable, object],
                deleted: set[Hashable] | None) -> None:
        self._trace(instance)[ssid] = dict(payload)

    def drop_snapshot(self, ssid: int) -> None:
        # No other version reads through a base: it goes like an
        # aborted one.
        self.abort(ssid)

    def _read(self, ssid: int, instance: int) -> tuple[dict, int]:
        if ssid not in self._served:
            raise SnapshotNotFoundError(ssid)
        state = self._traces.get(instance, _EMPTY).get(ssid, _EMPTY)
        return state, len(state)

    def snapshot_size(self, ssid: int) -> int:
        if ssid not in self._served:
            raise SnapshotNotFoundError(ssid)
        return sum(len(trace.get(ssid, _EMPTY))
                   for trace in self._traces.values())


class IncrementalSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, incremental mode: backward delta
    chains (§VI-A).

    The walk's depth is the cost driver of the paper's Fig. 13: with a
    small key universe every delta covers most keys and the walk stops
    after one or two deltas, while a large, sparsely-updated key space
    sends it deep into the chain.  Retiring a version keeps its deltas,
    since newer versions read through them; they go when the chain
    folds."""

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int],
                 prune_chain_length: int = 8) -> None:
        super().__init__(name, parallelism, node_of_instance)
        self._prune_chain_length = prune_chain_length
        #: instance -> version -> the keys live at it: what a walk
        #: from that version must find.
        self._coverage: dict[int, dict[int, int]] = {}
        #: instance -> the keys live after its newest delta.
        self._live: dict[int, set[Hashable]] = {}
        #: Instances whose chain has folded: their oldest version is
        #: a base.
        self._folded: set[int] = set()

    def _append(self, ssid: int, instance: int,
                payload: dict[Hashable, object],
                deleted: set[Hashable] | None) -> None:
        super()._append(ssid, instance, payload, deleted)
        live = self._live.setdefault(instance, set())
        live.update(payload)
        live.difference_update(deleted or ())
        self._coverage.setdefault(instance, {})[ssid] = len(live)

    def _stops(self, instance: int, newest: int, found: int) -> bool:
        return found >= self._coverage[instance][newest]

    def abort(self, ssid: int) -> None:
        held = [instance for instance, trace in self._traces.items()
                if ssid in trace]
        super().abort(ssid)
        for instance in held:
            self._recount(instance)

    def _recount(self, instance: int) -> None:
        """Recompute the coverage from the deltas left."""
        live: set[Hashable] = set()
        coverage = self._coverage[instance] = {}
        trace = self._traces[instance]
        for version in sorted(trace):
            for key, value in trace[version].items():
                if value is TOMBSTONE:
                    live.discard(key)
                else:
                    live.add(key)
            coverage[version] = len(live)
        self._live[instance] = live

    def chain_length(self, instance: int) -> int:
        """Deltas since (and excluding) the base."""
        return (len(self._traces.get(instance, _EMPTY))
                - (instance in self._folded))

    def compact(self, oldest: int) -> None:
        """Fold every chain longer than the configured bound into a base
        at ``oldest``, dropping the deltas up to it."""
        folded = False
        for instance, trace in self._traces.items():
            if self.chain_length(instance) <= self._prune_chain_length:
                continue
            state, _ = self.materialize_instance(oldest, instance)
            coverage = self._coverage[instance]
            for version in [version for version in trace
                            if version <= oldest]:
                del trace[version]
                del coverage[version]
            trace[oldest] = state
            coverage[oldest] = len(state)
            self._folded.add(instance)
            folded = True
            # Walk costs changed: drop this instance's walks.
            self._forget(instance)
        if folded:
            self.compactions += 1
            # Older versions no longer reconstruct.
            for version in [v for v in self._served if v < oldest]:
                self._leave(version)


class LsmSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, stored as an LSM tree would hold
    it (§VI-B): MVCC deltas flushed as runs and merged by compaction,
    with retention driving the garbage-collection watermark."""

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int],
                 memtable_limit: int = 100_000,
                 l0_compaction_threshold: int = 4) -> None:
        if memtable_limit < 1 or l0_compaction_threshold < 1:
            raise StoreError(
                "memtable_limit and l0_compaction_threshold must be >= 1")
        super().__init__(name, parallelism, node_of_instance)
        self._memtable_limit = memtable_limit
        self._l0_threshold = l0_compaction_threshold
        #: instance -> the version of each unmerged (L0) run.
        self._runs: dict[int, list[int]] = {}
        #: The oldest version served at the last retirement: a merge
        #: keeps each key's newest version at or below it, and all
        #: above it.
        self._watermark: int | None = None

    def _append(self, ssid: int, instance: int,
                payload: dict[Hashable, object],
                deleted: set[Hashable] | None) -> None:
        # A checkpoint boundary flushes the memtable (RocksDB-style: the
        # checkpoint references immutable files), and a full memtable
        # flushes before it.
        entries = list(_delta(payload, deleted).items())
        trace = self._trace(instance)
        runs = self._runs.setdefault(instance, [])
        limit = self._memtable_limit
        for start in range(0, len(entries), limit):
            trace.setdefault(ssid, {}).update(entries[start:start + limit])
            runs.append(ssid)
            if len(runs) > self._l0_threshold:
                self._merge(instance)

    def _bill(self, instance: int, visited: int) -> int:
        # A scan inspects every stored version, whatever ssid it reads.
        return sum(map(len, self._traces.get(instance, _EMPTY).values()))

    def abort(self, ssid: int) -> None:
        super().abort(ssid)
        # A run holds one write's entries: the version's runs are empty.
        for runs in self._runs.values():
            runs[:] = [version for version in runs if version != ssid]

    def drop_snapshot(self, ssid: int) -> None:
        """Advance the watermark to the oldest version still served, so
        the next merges reclaim versions nothing can read."""
        super().drop_snapshot(ssid)
        if self._served:
            self._watermark = min(self._served)

    def _merge(self, instance: int) -> None:
        """Merge the instance's runs, dropping what lies below the
        watermark except each key's newest version there — and that
        too if it is a tombstone: the key is dead at the watermark."""
        self._runs[instance].clear()
        self.compactions += 1
        watermark = self._watermark
        if watermark is None:
            return
        trace = self._traces[instance]
        seen: set[Hashable] = set()
        for version in sorted((version for version in trace
                               if version <= watermark), reverse=True):
            kept = {}
            for key, value in trace[version].items():
                if key not in seen:
                    seen.add(key)
                    if value is not TOMBSTONE:
                        kept[key] = value
            if kept:
                trace[version] = kept
            else:
                del trace[version]

    def compact_all(self) -> None:
        """Merge every instance's runs now (tests)."""
        for instance in self._traces:
            self._merge(instance)
        self._memo.clear()
