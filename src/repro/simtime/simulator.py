"""The discrete-event simulator loop."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError
from .events import EventHandle, EventQueue
from .rng import RngStreams

_INF = float("inf")


class Simulator:
    """Executes scheduled callbacks in virtual-time order.

    Components schedule callbacks with :meth:`schedule` (relative delay)
    or :meth:`schedule_at` / :meth:`call_at` / :meth:`call_batched`
    (absolute time; the last two return no handle).  The simulation
    advances with :meth:`run_until` / :meth:`run`; time never moves
    backwards.
    """

    def __init__(self, seed: int = 7) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._processed = 0
        self.rng = RngStreams(seed)

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Events (queue entries, a run each) executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})"
            )
        return self._queue.push(time, callback, args)

    def call_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual ``time``, with no
        handle.  Calls due at one time with nothing scheduled between
        them share one queue entry (layout in :mod:`.events`)."""
        queue = self._queue
        entry = queue.joinable.get(time)
        if entry is not None:
            entry += callback, args
            return
        if not time >= self._now:  # NaN fails this too
            raise SimulationError(f"cannot call at {time} before {self._now}")
        entry = queue.joinable[time] = [time, queue.seq, callback, args]
        queue.seq += 1
        heappush(queue.heap, entry)

    def call_batched(self, time: float, callback: Callable[[list], None],
                     item: Any) -> None:
        """``call_at(time, callback, [item])``, except that when the last
        call already due at ``time`` is ``callback`` itself (by
        identity), ``item`` joins that call's list instead: consecutive
        same-time calls of one callback run as one call over their
        items, in order.  Exact for a callback that handles its items
        one by one and does not raise: nothing can run between two
        items of one list that would not have run between their calls."""
        queue = self._queue
        entry = queue.joinable.get(time)
        if entry is not None:
            if entry[-2] is callback:
                entry[-1][0].append(item)
            else:
                entry += callback, ([item],)
            return
        if not time >= self._now:  # NaN fails this too
            raise SimulationError(f"cannot call at {time} before {self._now}")
        entry = queue.joinable[time] = [time, queue.seq, callback, ([item],)]
        queue.seq += 1
        heappush(queue.heap, entry)

    def step(self) -> bool:
        """Execute the next event, a whole run; ``False`` when none remain."""
        return self._drain(_INF, 1) == 1

    def run_until(self, time: float) -> None:
        """Run all events with timestamps ``<= time``, then set now=time.

        Events scheduled during execution are processed too, as long as
        they fall within the horizon.
        """
        if time < self._now:
            raise SimulationError("run_until target is in the past")
        self._drain(time, _INF, exclusive=True)
        if time > self._now:
            self._now = time

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or ``max_events``); returns count."""
        return self._drain(
            _INF, _INF if max_events is None else max_events, exclusive=True)

    def _drain(self, horizon: float, limit: float,
               exclusive: bool = False) -> int:
        """The one event loop: fire up to ``limit`` live entries with
        timestamps ``<= horizon`` in ``(time, seq)`` order; returns how
        many fired.  ``exclusive`` callers (``run``, ``run_until``) may
        not nest; ``step`` may be called from anywhere.

        Works on the queue's heap directly (entry layout in
        :mod:`.events`): a member costs no Python frame besides its
        callback's own, and one that raises leaves the rest of its run
        at the head of its time.
        """
        if exclusive:
            if self._running:
                raise SimulationError("simulator re-entered while running")
            self._running = True
        queue = self._queue
        heap = queue.heap
        joinable = queue.joinable
        fired = 0
        try:
            while heap and fired < limit:
                entry = heap[0]
                time = entry[0]
                if time > horizon:
                    break
                heappop(heap)
                callback = entry[2]
                if callback is None:  # cancelled
                    queue.dead -= 1
                    continue
                if time < self._now:
                    raise SimulationError("event queue produced a past event")
                entry[2] = None  # fired: the handle goes inactive
                joined = joinable.pop(time, None)  # one hash, mostly
                if joined is not entry and joined is not None:
                    joinable[time] = joined  # a later entry at ``time``
                self._now = time
                self._processed += 1
                fired += 1
                if len(entry) == 4:
                    callback(*entry[3])
                    continue
                run = iter(entry[4:])
                try:
                    callback(*entry[3])
                    for callback, args in zip(run, run):
                        callback(*args)
                except BaseException:
                    if rest := list(run):
                        heappush(heap, [time, entry[1], *rest])
                    raise
        finally:
            if exclusive:
                self._running = False
        return fired
