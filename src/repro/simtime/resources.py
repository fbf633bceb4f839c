"""Simulated contended resources: FIFO servers and worker pools.

These model CPUs and store partitions.  Both use *advance reservation*:
because jobs are only ever submitted at the current virtual time and the
simulator processes events in time order, reserving the earliest feasible
completion slot at submission time yields the same schedule as an
operational FIFO queue, with far fewer events.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from ..errors import SimulationError
from .simulator import Simulator

Callback = Callable[..., None]


class Server:
    """A single FIFO server (e.g. one store partition).

    Jobs run one at a time, in submission order; each job occupies the
    server for its ``duration`` and then fires its completion callback.
    """

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        self._sim = sim
        self.name = name
        self._busy_until = 0.0
        self._jobs = 0
        self._busy_time = 0.0
        self._wait_time = 0.0

    @property
    def busy_until(self) -> float:
        return max(self._busy_until, self._sim.now)

    @property
    def jobs_served(self) -> int:
        return self._jobs

    @property
    def total_busy_ms(self) -> float:
        return self._busy_time

    @property
    def total_wait_ms(self) -> float:
        """Sum of queueing delays experienced by submitted jobs."""
        return self._wait_time

    def submit(self, duration: float, on_complete: Callback | None = None,
               *args: Any) -> float:
        """Queue a job; returns its completion time (virtual ms)."""
        if not duration >= 0:  # NaN fails this too
            raise SimulationError(
                f"job duration must be non-negative, not {duration}")
        now = self._sim._now  # the clock, without the property frame
        start = self._busy_until
        if start < now:
            start = now
        finish = start + duration
        self._busy_until = finish
        self._jobs += 1
        self._busy_time += duration
        self._wait_time += start - now
        if on_complete is not None:
            self._sim.call_at(finish, on_complete, *args)
        return finish

    def utilization(self, horizon_ms: float) -> float:
        """Fraction of ``horizon_ms`` spent busy (may exceed 1 if the
        queue has grown beyond the horizon — a sign of overload)."""
        if horizon_ms <= 0:
            return 0.0
        return self._busy_time / horizon_ms


class WorkerPool:
    """An ``n``-worker pool with per-key FIFO ordering.

    Jobs tagged with the same key execute in submission order (this is
    how we keep per-operator-instance record processing ordered while
    instances share a node's CPU pool).  Jobs with different keys run
    concurrently, up to the worker count.
    """

    def __init__(self, sim: Simulator, workers: int,
                 name: str = "pool") -> None:
        if workers < 1:
            raise SimulationError("worker pool needs at least one worker")
        self._sim = sim
        self.name = name
        self._worker_busy_until = [0.0] * workers
        self._key_busy_until: dict[Hashable, float] = {}
        self._jobs = 0
        self._busy_time = 0.0
        self._wait_time = 0.0

    @property
    def workers(self) -> int:
        return len(self._worker_busy_until)

    @property
    def jobs_served(self) -> int:
        return self._jobs

    @property
    def total_busy_ms(self) -> float:
        return self._busy_time

    @property
    def total_wait_ms(self) -> float:
        return self._wait_time

    def submit(self, key: Hashable | None, duration: float,
               on_complete: Callback | None = None, *args: Any) -> float:
        """Queue a job for ``key``; returns its completion time.

        ``key=None`` asks for no ordering: the job takes the earliest
        free worker and leaves no per-key entry behind — for submitters
        that never have two jobs queued at once (a query's steps on its
        entry pool each start at the previous one's completion)."""
        if not duration >= 0:  # NaN fails this too
            raise SimulationError(
                f"job duration must be non-negative, not {duration}")
        now = self._sim._now
        busy = self._worker_busy_until
        earliest = min(busy)
        worker = busy.index(earliest)  # ties: the lowest-numbered worker
        if earliest < now:
            earliest = now
        if key is None:
            finish = earliest + duration
        else:
            key_free = self._key_busy_until.get(key, 0.0)
            if earliest < key_free:
                earliest = key_free
            finish = self._key_busy_until[key] = earliest + duration
        busy[worker] = finish
        self._jobs += 1
        self._busy_time += duration
        self._wait_time += earliest - now
        if on_complete is not None:
            self._sim.call_at(finish, on_complete, *args)
        return finish

    def key_available_at(self, key: Hashable) -> float:
        """Earliest time a new job for ``key`` could start."""
        return max(self._sim.now, self._key_busy_until.get(key, 0.0))

    def utilization(self, horizon_ms: float) -> float:
        if horizon_ms <= 0:
            return 0.0
        return self._busy_time / (horizon_ms * self.workers)
