"""A small deterministic LRU cache used by the SQL layer.

The compile-once caches — the LIKE-pattern regex cache in
:mod:`repro.sql.compiled`, and the fragment-closure and statement-shape
caches each ``QueryService`` hands to
:func:`repro.sql.batch.compile_fragment` and
:func:`repro.sql.statements.parse_cached` — need the same thing: a
bounded mapping that
evicts the least-recently-used entry instead of flushing wholesale, and
that counts hits/misses for :class:`~repro.observability.ClusterReport`.
Eviction order is the ``OrderedDict`` recency order, a pure function of
the access sequence, so cache behaviour is deterministic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """Bounded mapping with least-recently-used eviction.

    ``get`` counts a hit or miss and refreshes recency; ``put`` inserts
    and evicts the oldest entry once ``capacity`` is exceeded.
    """

    __slots__ = ("_data", "capacity", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("LruCache capacity must be >= 1")
        self._data: OrderedDict[K, V] = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def get(self, key: K) -> V | None:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            # Recency order, not insertion order: popping the front is
            # the LRU entry, deterministic in the access sequence.
            self._data.popitem(last=False)  # lint: allow(determinism)

    def set_capacity(self, capacity: int) -> None:
        """Resize, evicting LRU entries if shrinking below current size."""
        if capacity < 1:
            raise ValueError("LruCache capacity must be >= 1")
        self.capacity = capacity
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)  # lint: allow(determinism)

    def discard_if(self, stale: Callable[[K], bool]) -> None:
        """Drop every entry whose key ``stale`` holds for."""
        for key in [key for key in self._data if stale(key)]:
            del self._data[key]

    def clear(self) -> None:
        """Drop all entries (hit/miss counters are kept)."""
        self._data.clear()

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)
