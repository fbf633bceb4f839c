"""Full snapshot state tables (Table II).

Each stateful operator gets one snapshot table holding complete copies
of its keyed state per snapshot id.  With the paper's default retention
of two versions, memory stays constant: a newly committed snapshot
overwrites the older of the two (the store drives this through
``drop_snapshot``, and drops an aborted attempt's copies through
``abort``).  Committed snapshots are replicated synchronously during
the 2PC, so they survive node failures.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from ..errors import SnapshotNotFoundError
from .base import SnapshotTableBase


class FullSnapshotTable(SnapshotTableBase):
    """Snapshot state of one operator, full-copy mode."""

    stable_versions = True

    def __init__(self, name: str, parallelism: int,
                 node_of_instance: Callable[[int], int]) -> None:
        super().__init__(name, parallelism, node_of_instance)
        #: ssid -> instance -> {key: state object}
        self._by_ssid: dict[int, dict[int, dict[Hashable, object]]] = {}

    # -- storage ----------------------------------------------------------

    def _store(self, ssid: int, instance: int,
               payload: dict[Hashable, object],
               deleted: set[Hashable] | None) -> None:
        self._by_ssid.setdefault(ssid, {})[instance] = dict(payload)

    def _discard(self, ssid: int) -> None:
        self._by_ssid.pop(ssid, None)

    _retire = _discard

    # -- reads ----------------------------------------------------------

    def _version(self, ssid: int) -> dict[int, dict[Hashable, object]]:
        snapshot = self._by_ssid.get(ssid)
        if snapshot is None:
            raise SnapshotNotFoundError(ssid)
        return snapshot

    def _instances_at(self, ssid: int) -> Iterable[int]:
        # Instances in the order their checkpoint writes landed.
        return self._version(ssid)

    def materialize_instance(self, ssid: int,
                             instance: int) -> tuple[dict, int]:
        # A full copy needs no rebuild: it is read in place.
        state = self._version(ssid).get(instance, {})
        return state, len(state)

    def snapshot_size(self, ssid: int) -> int:
        snapshot = self._version(ssid)
        return sum(len(state) for state in snapshot.values())

    def total_entries(self) -> int:
        """All stored entries across versions (memory accounting)."""
        return sum(
            len(state)
            for snapshot in self._by_ssid.values()
            for state in snapshot.values()
        )
