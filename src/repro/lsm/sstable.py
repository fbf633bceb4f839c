"""Immutable runs (SSTables) of multi-versioned entries.

An entry is ``(user_key, ssid, value)``; a deletion stores the
:data:`TOMBSTONE` sentinel.  A run holds its entries newest version
first and, within a version, in write order — the order a backward walk
over per-checkpoint deltas visits them — and indexes each key's
versions, newest first, so a point read at snapshot ``ssid`` is a dict
probe followed by a short walk.  User keys need only be hashable.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterator

from .bloom import BloomFilter


class _Tombstone:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()

#: One stored version: (user_key, ssid, value-or-TOMBSTONE).
Entry = tuple


class SSTable:
    """An immutable run."""

    __slots__ = ("_entries", "_versions", "_bloom", "min_key", "max_key")

    def __init__(self, entries: list[Entry]) -> None:
        # Newest version first; a stable sort keeps write order within
        # a version.
        self._entries = sorted(entries, key=itemgetter(1), reverse=True)
        #: key -> its (ssid, value) versions, newest first.
        self._versions: dict[Hashable, list[tuple[int, object]]] = {}
        for key, version, value in self._entries:
            self._versions.setdefault(key, []).append((version, value))
        self._bloom = BloomFilter(self._versions)
        try:
            self.min_key = min(self._versions)
            self.max_key = max(self._versions)
        except (ValueError, TypeError):  # empty, or keys that do not order
            self.min_key = self.max_key = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[Entry]:
        return self._entries

    def might_contain(self, key: Hashable) -> bool:
        return self._bloom.might_contain(key)

    def get(self, key: Hashable, ssid: int) -> tuple[str, object, int]:
        """Newest version of ``key`` with version <= ``ssid``.

        Returns ``(status, value, entries_touched)`` where status is
        ``"found"`` (value holds the version, possibly TOMBSTONE),
        ``"newer_only"`` (the key exists here but only with versions
        above ``ssid`` — older runs must be searched), or ``"absent"``.
        """
        touched = 0
        for version, value in self._versions.get(key, ()):
            touched += 1
            if version <= ssid:
                return "found", value, touched
        if touched:
            return "newer_only", None, touched
        return "absent", None, 0

    def scan(self) -> Iterator[Entry]:
        return iter(self._entries)

    def versions_of(self, key: Hashable) -> list[tuple[int, object]]:
        """All stored (ssid, value) versions of ``key``, newest first."""
        return list(self._versions.get(key, ()))
