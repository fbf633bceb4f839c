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

from .base import SnapshotTableBase


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
        #: The keys live after the newest delta (drives coverage).
        self.keys: set[Hashable] = set()
        #: ssid -> number of distinct keys known at that snapshot.
        self.coverage: dict[int, int] = {}

    def recount(self) -> None:
        """Recompute the key coverage from the deltas left (after an
        aborted one is removed)."""
        self.keys = set()
        self.coverage = {}
        for version in sorted(self.deltas):
            for key, value in self.deltas[version].items():
                if value is TOMBSTONE:
                    self.keys.discard(key)
                else:
                    self.keys.add(key)
            self.coverage[version] = len(self.keys)


class IncrementalSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, incremental mode.

    A partition read reconstructs the instance and bills the entries
    the walk visits.  Aborting a version removes its deltas; retiring
    one keeps them, since newer versions reconstruct through them, so
    those go with :meth:`maybe_prune`."""

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int],
                 prune_chain_length: int = 8) -> None:
        super().__init__(name, parallelism, node_of_instance)
        self._prune_chain_length = prune_chain_length
        self._chains: dict[int, _InstanceChain] = {}
        self.compactions = 0

    def _chain(self, instance: int) -> _InstanceChain:
        chain = self._chains.get(instance)
        if chain is None:
            chain = _InstanceChain()
            self._chains[instance] = chain
        return chain

    # -- storage -----------------------------------------------------------

    def _store(self, ssid: int, instance: int,
               payload: dict[Hashable, object],
               deleted: set[Hashable] | None) -> None:
        """Record one instance's delta for checkpoint ``ssid``."""
        chain = self._chain(instance)
        delta: dict[Hashable, object] = dict(payload)
        for key in deleted or ():
            delta[key] = TOMBSTONE
        chain.deltas[ssid] = delta
        chain.keys.update(payload)
        # A deleted key no longer counts towards coverage.
        chain.keys.difference_update(deleted or ())
        chain.coverage[ssid] = len(chain.keys)

    def _discard(self, ssid: int) -> None:
        for chain in self._chains.values():
            if chain.deltas.pop(ssid, None) is not None:
                chain.bases.discard(ssid)
                chain.recount()

    # -- reconstruction ----------------------------------------------------

    def _rebuild(self, ssid: int, instance: int) -> tuple[dict, int]:
        """Reconstruct one instance's state at ``ssid``.

        Returns ``(state, entries_scanned)`` where the scan count is the
        true backward-walk cost used for query timing.
        """
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
            # Walk costs changed: drop this instance's reconstructions.
            self._forget(instance)
        if pruned:
            self.compactions += 1
            # Older versions no longer reconstruct.
            for version in [v for v in self._served if v < committed_ssid]:
                self._leave(version)
        return pruned

    def total_entries(self) -> int:
        return sum(
            len(delta)
            for chain in self._chains.values()
            for delta in chain.deltas.values()
        )
