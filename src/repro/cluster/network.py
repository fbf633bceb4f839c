"""Point-to-point network model with in-order delivery per channel."""

from __future__ import annotations

from typing import Any, Callable

from ..config import NetworkConfig
from ..simtime import Simulator


class NetworkModel:
    """Computes message delays and delivers messages in order.

    Delay = base one-way latency (+ size / bandwidth + jitter) for remote
    messages, or a small constant for node-local delivery.  Per logical
    channel (identified by the caller), delivery order is preserved even
    when jitter would reorder messages.
    """

    def __init__(self, sim: Simulator, config: NetworkConfig) -> None:
        self._sim = sim
        self._config = config
        self._jitter = sim.rng.stream("network")
        self._last_delivery: dict[Any, float] = {}
        self._messages = 0
        self._bytes = 0

    @property
    def messages_sent(self) -> int:
        return self._messages

    @property
    def bytes_sent(self) -> int:
        return self._bytes

    @property
    def open_channels(self) -> int:
        """FIFO channels currently tracked (ordering floors held)."""
        return len(self._last_delivery)

    def close_channel(self, channel: Any) -> bool:
        """Forget ``channel``'s ordering floor.

        Callers close their channels when the conversation ends (e.g. a
        query completes), so the floor table does not grow with the
        total number of queries ever run and a later channel that
        happens to reuse the same identity does not inherit a stale
        floor.  Returns whether the channel was known.
        """
        return self._last_delivery.pop(channel, None) is not None

    def _evict_quiescent_channels(self) -> None:
        """Drop channels whose floor is in the past (backstop bound).

        A floor at or before the current virtual time can never delay a
        future send (arrivals are computed as now + delay), so these
        entries carry no ordering information anymore.
        """
        now = self._sim.now
        stale = [
            channel for channel, floor in self._last_delivery.items()
            if floor <= now
        ]
        for channel in stale:
            del self._last_delivery[channel]

    def delay(self, src_node: int, dst_node: int, nbytes: int = 0) -> float:
        """One-way delay for a message of ``nbytes``."""
        if src_node == dst_node:
            return self._config.local_delay_ms
        jitter = 0.0
        if self._config.jitter_ms > 0:
            jitter = self._jitter.uniform(0.0, self._config.jitter_ms)
        return (
            self._config.remote_base_ms
            + nbytes / self._config.bytes_per_ms
            + jitter
        )

    def send(self, src_node: int, dst_node: int,
             deliver: Callable[..., None], *args: Any,
             nbytes: int = 0, channel: Any = None) -> float:
        """Schedule ``deliver(*args)`` after the modelled delay.

        ``channel`` is an arbitrary hashable identifying a FIFO stream;
        messages on the same channel never overtake each other.  Returns
        the delivery time.
        """
        self._messages += 1
        self._bytes += nbytes
        # The clock without the property frame, as the resources read it.
        arrival = self._sim._now + self.delay(src_node, dst_node, nbytes)
        if channel is not None:
            if (
                channel not in self._last_delivery
                and len(self._last_delivery) >= self._config.max_channels
            ):
                self._evict_quiescent_channels()
            floor = self._last_delivery.get(channel, 0.0)
            if arrival <= floor:
                arrival = floor + 1e-9
            self._last_delivery[channel] = arrival
        self._sim.call_at(arrival, deliver, *args)
        return arrival
