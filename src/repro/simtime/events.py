"""Queue entries, cancellation handles and the time-ordered event queue.

An entry is one plain list ``[time, seq, callback, args]``, then, in a
run, more ``callback, args`` pairs: members fired in order as one event.
``heapq`` orders lists with C comparisons, and ``seq`` is unique, so a
comparison is decided by ``(time, seq)``, never by a callback or a
Python-level ``__lt__``; it breaks ties in scheduling order.  A callback
slot of ``None`` marks an entry that was cancelled or has fired.

``joinable`` maps a time to the latest entry at it while ``call_at``
pushed that entry and it has not fired: a ``call_at`` at that time
joins its run, as it would have taken the next ``seq`` there anyway.
A ``call_batched`` member's args are ``(items,)``: while it is the last
member of a joinable entry, a ``call_batched`` of the same callback at
that time appends to ``items`` instead of adding a member.  Cancelled
entries beyond ``COMPACT_MIN`` and half the heap are dropped at once
(asyncio's rule); ``(time, seq)`` keeps the live entries' order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import SimulationError

COMPACT_MIN = 128  # cancelled entries a heap keeps, whatever its size


class EventHandle:
    """Opaque handle returned by ``schedule``; supports cancellation."""

    __slots__ = ("_entry", "_queue")

    def __init__(self, entry: list, queue: EventQueue) -> None:
        self._entry = entry
        self._queue = queue

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def active(self) -> bool:
        """Still scheduled: neither fired nor cancelled."""
        return self._entry[2] is not None

    def cancel(self) -> None:
        """Unschedule the event; a no-op once it has fired or been
        cancelled, so the queue's live count moves at most once.  The
        arguments are dropped at once: the entry stays on the heap
        until its time or a compaction, and must not keep them alive."""
        entry = self._entry
        if entry[2] is not None:
            entry[2] = None
            entry[3] = ()
            queue = self._queue
            queue.dead += 1
            heap = queue.heap
            if queue.dead > COMPACT_MIN and 2 * queue.dead > len(heap):
                # In place: the event loop holds the list.
                heap[:] = [entry for entry in heap if entry[2] is not None]
                heapq.heapify(heap)
                queue.dead = 0


class EventQueue:
    """Binary-heap event queue with lazy deletion of cancelled events.

    ``heap``, ``dead`` (cancelled entries still on the heap), ``seq``
    and ``joinable`` are what ``Simulator`` works on directly, with no
    frame per event; ``pop`` and ``peek_time`` are the same steps for
    callers that drive a queue of ``push`` entries by hand.
    """

    def __init__(self) -> None:
        self.heap: list[list] = []
        self.dead = 0
        self.seq = 0
        self.joinable: dict[float, list] = {}

    def __len__(self) -> int:
        return len(self.heap) - self.dead

    def push(self, time: float, callback: Callable[..., None],
             args: tuple[Any, ...]) -> EventHandle:
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        entry = [time, self.seq, callback, args]
        self.seq += 1
        self.joinable.pop(time, None)  # nothing joins across this entry
        heapq.heappush(self.heap, entry)
        return EventHandle(entry, self)

    def peek_time(self) -> float | None:
        """Timestamp of the earliest live entry without removing it."""
        heap = self.heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self.dead -= 1
        return heap[0][0] if heap else None

    def pop(self) -> tuple[float, Callable[..., None], tuple] | None:
        """Remove the earliest live entry and return its ``(time,
        callback, args)``, or ``None`` when no live entry remains."""
        if self.peek_time() is None:
            return None
        entry = heapq.heappop(self.heap)
        callback, entry[2] = entry[2], None
        return entry[0], callback, entry[3]
