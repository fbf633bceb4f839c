"""Key-level locks.

S-QUERY protects live-state entries from torn reads by locking each key
for the duration of a single read or write (read-committed-without-
failures, §VII-B).  The repeatable-read upgrade holds all of a query's
locks until the query finishes.

The simulation is single-threaded, so these locks express *logical*
ownership: an acquire either succeeds immediately or registers a waiter
that is granted the lock (via callback) when the holder releases.  Lock
hold durations in virtual time are modelled by the callers.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Hashable

from ..errors import LockError


class LockManager:
    """FIFO key-level lock table."""

    def __init__(self) -> None:
        self._holders: dict[Hashable, object] = {}
        self._waiters: dict[Hashable, deque] = {}
        self._acquisitions = 0
        self._contentions = 0

    @property
    def acquisitions(self) -> int:
        return self._acquisitions

    @property
    def contentions(self) -> int:
        """Number of acquires that had to wait."""
        return self._contentions

    @property
    def held_count(self) -> int:
        """Number of keys currently locked (0 after a clean drain)."""
        return len(self._holders)

    @property
    def waiting_count(self) -> int:
        """Number of acquire requests still queued behind a holder."""
        return sum(len(queue) for queue in self._waiters.values())

    def held_keys(self) -> list[Hashable]:
        return list(self._holders)

    def is_locked(self, key: Hashable) -> bool:
        return key in self._holders

    def holder_of(self, key: Hashable) -> object | None:
        return self._holders.get(key)

    def try_acquire(self, key: Hashable, owner: object) -> bool:
        """Acquire ``key`` for ``owner`` if free; non-blocking."""
        if key in self._holders:
            return False
        self._holders[key] = owner
        self._acquisitions += 1
        return True

    def acquire(self, key: Hashable, owner: object,
                granted: Callable[[], None] | None = None) -> bool:
        """Acquire ``key`` or queue for it.

        Returns ``True`` when granted immediately.  Otherwise the request
        waits in FIFO order and ``granted`` fires on hand-over (if given).
        """
        if self.try_acquire(key, owner):
            if granted is not None:
                granted()
            return True
        self._contentions += 1
        self._waiters.setdefault(key, deque()).append((owner, granted))
        return False

    def run_locked(self, key: Hashable, fn: Callable[..., None],
                   *args: object) -> None:
        """Call ``fn(*args)`` holding ``key`` as ``fn``, now or when the
        FIFO hands the key over; release it however ``fn`` ends."""
        if key in self._holders:
            self.acquire(key, fn,
                         granted=partial(self._run_held, key, fn, args))
            return
        self._holders[key] = fn
        self._acquisitions += 1
        self._run_held(key, fn, args)

    def _run_held(self, key: Hashable, fn: Callable[..., None],
                  args: tuple) -> None:
        try:
            fn(*args)
        finally:
            self.release(key, fn)

    def release(self, key: Hashable, owner: object) -> None:
        """Release ``key``; hands the lock to the next FIFO waiter."""
        holder = self._holders.get(key)
        if holder is None:
            raise LockError(f"release of unlocked key {key!r}")
        if holder is not owner and holder != owner:
            raise LockError(
                f"lock on {key!r} held by {holder!r}, not {owner!r}"
            )
        waiters = self._waiters.get(key)
        if waiters:
            next_owner, granted = waiters.popleft()
            if not waiters:
                del self._waiters[key]
            self._holders[key] = next_owner
            self._acquisitions += 1
            if granted is not None:
                granted()
        else:
            del self._holders[key]

    def release_all(self, owner: object) -> int:
        """Release every key held by ``owner``; returns the count."""
        held = [
            key for key, holder in self._holders.items()
            if holder is owner or holder == owner
        ]
        for key in held:
            self.release(key, owner)
        return len(held)
