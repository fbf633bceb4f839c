"""Incremental snapshot tables with backward reconstruction and pruning.

In incremental mode each checkpoint records only the keys whose state
changed since the previous checkpoint (plus tombstones for deletions).
A query for snapshot ``s`` starts from the newest delta ``<= s`` and
walks backwards, picking up the most recent update for every key it has
not seen yet, until it either reaches a *base* snapshot (a compacted
full copy) or has covered every key known at ``s`` (§VI-A).

The number of entries visited by this walk is the real cost driver of
the paper's Fig. 13: with a small key universe every delta covers most
keys and the walk terminates after one or two deltas, while a large,
sparsely-updated key space forces the walk deep into the chain —
reproducing "identical latency at 1K/10K keys, ~5x at 100K" without any
hard-coded factor.

Pruning (``prune_chain_length``) bounds the walk: after that many deltas
the table folds the chain into a new base and drops obsolete versions,
trading background work for query latency and space.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..errors import SnapshotNotFoundError
from .base import SnapshotTableBase, forget_reconstructions


class _Tombstone:
    """Marker for a deleted key inside a delta."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<deleted>"


TOMBSTONE = _Tombstone()


class _InstanceChain:
    """The delta chain of one operator instance."""

    def __init__(self) -> None:
        #: ssid -> {key: value | TOMBSTONE}, insertion-ordered by commit.
        self.deltas: dict[int, dict[Hashable, object]] = {}
        #: ssids that are compacted bases (full copies).
        self.bases: set[int] = set()
        #: key -> ssid of first appearance (drives coverage counting).
        self.first_seen: dict[Hashable, int] = {}
        #: ssid -> number of distinct keys known at that snapshot.
        self.coverage: dict[int, int] = {}


class IncrementalSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, incremental mode.

    A partition read reconstructs the instance and bills the entries
    the walk visits.  Retiring a version drops its registries only:
    newer versions reconstruct through its deltas, so those go with
    :meth:`maybe_prune`."""

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int],
                 prune_chain_length: int = 8) -> None:
        super().__init__(name, parallelism, node_of_instance)
        self._prune_chain_length = prune_chain_length
        self._chains: dict[int, _InstanceChain] = {}
        self._ssids: list[int] = []
        self.compactions = 0
        # A version's reconstruction is fixed once its write landed, so
        # it can be memoised; bounded to the most recent ids per
        # instance.
        self._cache: dict[tuple[int, int], tuple[dict, int]] = {}
        self._cache_keep = 4

    def _chain(self, instance: int) -> _InstanceChain:
        chain = self._chains.get(instance)
        if chain is None:
            chain = _InstanceChain()
            self._chains[instance] = chain
        return chain

    # -- writes ------------------------------------------------------------

    def write_instance(self, ssid: int, instance: int,
                       payload: dict[Hashable, object],
                       deleted: set[Hashable] | None = None) -> None:
        """Record one instance's delta for checkpoint ``ssid``."""
        chain = self._chain(instance)
        delta: dict[Hashable, object] = dict(payload)
        for key in deleted or ():
            delta[key] = TOMBSTONE
        chain.deltas[ssid] = delta
        for key in payload:
            chain.first_seen.setdefault(key, ssid)
        for key in deleted or ():
            # A deleted key no longer counts towards coverage.
            chain.first_seen.pop(key, None)
        chain.coverage[ssid] = len(chain.first_seen)
        if ssid not in self._ssids:
            self._ssids.append(ssid)
        forget_reconstructions(self._cache, instance, ssid, self._cache_keep)
        super().write_instance(ssid, instance, payload, deleted)

    # -- reconstruction ----------------------------------------------------

    def available_ssids(self) -> list[int]:
        return sorted(self._ssids)

    def has_snapshot(self, ssid: int) -> bool:
        return ssid in self._ssids

    def materialize_instance(self, ssid: int,
                             instance: int) -> tuple[dict, int]:
        """Reconstruct one instance's state at ``ssid``.

        Returns ``(state, entries_scanned)`` where the scan count is the
        true backward-walk cost used for query timing.
        """
        if ssid not in self._ssids:
            raise SnapshotNotFoundError(ssid)
        cached = self._cache.get((instance, ssid))
        if cached is not None:
            return dict(cached[0]), cached[1]
        chain = self._chains.get(instance)
        if chain is None:
            return {}, 0
        result: dict[Hashable, object] = {}
        dead: set[Hashable] = set()
        scanned = 0
        target = self._coverage_at(chain, ssid)
        for version in sorted(chain.deltas, reverse=True):
            if version > ssid:
                continue
            delta = chain.deltas[version]
            for key, value in delta.items():
                scanned += 1
                if key in result or key in dead:
                    continue
                if value is TOMBSTONE:
                    dead.add(key)
                else:
                    result[key] = value
            if version in chain.bases:
                break
            if len(result) >= target:
                break
        self._cache[(instance, ssid)] = (dict(result), scanned)
        return result, scanned

    @staticmethod
    def _coverage_at(chain: _InstanceChain, ssid: int) -> int:
        best = 0
        for version in sorted(chain.coverage, reverse=True):
            if version <= ssid:
                best = chain.coverage[version]
                break
        return best

    # -- pruning -----------------------------------------------------------

    def chain_length(self, instance: int) -> int:
        """Deltas since (and excluding) the newest base."""
        chain = self._chains.get(instance)
        if chain is None:
            return 0
        count = 0
        for version in sorted(chain.deltas, reverse=True):
            if version in chain.bases:
                break
            count += 1
        return count

    def maybe_prune(self, committed_ssid: int) -> bool:
        """Compact chains longer than the configured bound.

        Folds everything up to ``committed_ssid`` into a base at that id
        and drops the older deltas — "S-QUERY prunes obsolete states"
        (§VI-A).  Returns True if any chain was compacted.
        """
        pruned = False
        for instance, chain in self._chains.items():
            if self.chain_length(instance) <= self._prune_chain_length:
                continue
            state, _ = self.materialize_instance(committed_ssid, instance)
            stale = [v for v in chain.deltas if v <= committed_ssid]
            for version in stale:
                del chain.deltas[version]
                chain.bases.discard(version)
                chain.coverage.pop(version, None)
            chain.deltas[committed_ssid] = dict(state)
            chain.bases.add(committed_ssid)
            chain.coverage[committed_ssid] = len(state)
            pruned = True
            # Walk costs changed: drop this instance's memoised results.
            stale_cache = [
                key for key in self._cache if key[0] == instance
            ]
            for key in stale_cache:
                del self._cache[key]
        if pruned:
            self.compactions += 1
            live = set()
            for chain in self._chains.values():
                live.update(chain.deltas)
            self._ssids = [s for s in self._ssids if s in live]
            if committed_ssid not in self._ssids:
                self._ssids.append(committed_ssid)
        return pruned

    def total_entries(self) -> int:
        return sum(
            len(delta)
            for chain in self._chains.values()
            for delta in chain.deltas.values()
        )
