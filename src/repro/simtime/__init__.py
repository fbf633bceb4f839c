"""Discrete-event simulation core: virtual clock, event queue, resources.

The whole reproduction runs on virtual time so that latency and
throughput measurements are deterministic.  The public pieces are:

* :class:`~repro.simtime.simulator.Simulator` — the event loop, where
  calls due at one time with nothing between them share a queue entry;
* :class:`~repro.simtime.resources.Server` — a FIFO single-server
  resource (store partitions, coordinator);
* :class:`~repro.simtime.resources.WorkerPool` — an n-worker pool with
  per-key FIFO ordering (node CPU pools);
* :class:`~repro.simtime.rng.RngStreams` — named deterministic random
  streams.
"""

from .events import EventHandle
from .rng import RngStreams
from .resources import Server, WorkerPool
from .simulator import Simulator

__all__ = [
    "EventHandle",
    "RngStreams",
    "Server",
    "Simulator",
    "WorkerPool",
]
