"""State-backend protocol between the dataflow engine and storage.

The engine delegates all state externalisation to a backend:

* :class:`VanillaBackend` is plain Jet — snapshots are opaque blobs in
  the store (sufficient for recovery, invisible to queries) and live
  state is not mirrored.
* :class:`repro.state.manager.SQueryBackend` adds the paper's
  contribution: queryable live state and queryable snapshot state.

Cost accounting convention: the *CPU* part of a snapshot (serialisation)
runs on the instance's processing worker; the *store* part runs on the
node's store partition servers, where it contends with query scans.
"""

from __future__ import annotations

from typing import Callable, Hashable, Protocol

from ..cluster import Cluster
from ..errors import RecoveryError
from ..simtime import Server


def submit_chunked_write(server: Server, entries: int, per_entry_ms: float,
                         chunk_entries: int,
                         on_done: Callable[[], None]) -> None:
    """Write ``entries`` to a store server in chunks.

    Store operations are fine-grained in the real system, so concurrent
    query scan chunks interleave with a snapshot's writes — this is the
    mechanism behind Fig. 11's query-induced snapshot slowdown.  The
    chain submits the next chunk only when the previous one completes,
    letting other work claim the server in between.
    """
    total_chunks = max(1, -(-entries // chunk_entries))
    full_chunk_ms = chunk_entries * per_entry_ms
    last_chunk_ms = (entries - (total_chunks - 1) * chunk_entries) \
        * per_entry_ms

    def run_chunk(remaining: int) -> None:
        if remaining == 0:
            on_done()
            return
        duration = full_chunk_ms if remaining > 1 else max(0.0, last_chunk_ms)
        server.submit(duration, run_chunk, remaining - 1)

    run_chunk(total_chunks)


class StateBackend(Protocol):
    """What the dataflow engine needs from a state layer."""

    #: ``True`` when snapshots carry only changed keys.
    incremental: bool

    def register_vertex(self, vertex_name: str, parallelism: int,
                        node_of_instance: Callable[[int], int],
                        stateful: bool) -> None: ...

    def live_update_cost(self, vertex_name: str) -> float: ...

    def on_state_update(self, vertex_name: str, key: Hashable,
                        value: object | None) -> None: ...

    def snapshot_cpu_cost(self, entries: int) -> float: ...

    def write_snapshot(self, vertex_name: str, instance: int, node_id: int,
                       ssid: int, payload: dict, deleted: set,
                       on_done: Callable[[], None]) -> None: ...

    def write_source_offset(self, vertex_name: str, instance: int,
                            node_id: int, ssid: int, offset: int,
                            on_done: Callable[[], None]) -> None: ...

    def restore_instance_state(self, vertex_name: str, instance: int,
                               ssid: int) -> dict: ...

    def restore_source_offset(self, vertex_name: str, instance: int,
                              ssid: int) -> int: ...

    def drop_snapshot(self, ssid: int) -> None: ...


class VanillaBackend:
    """Plain Jet: blob snapshots in the store, no queryable state.

    Snapshot blobs are kept per ``(vertex, ssid, instance)`` so recovery
    can restore each instance partition directly.
    """

    incremental = False

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._costs = cluster.costs
        self._blobs: dict[tuple[str, int, int], dict] = {}
        self._offsets: dict[tuple[str, int, int], int] = {}
        self._vertices: dict[str, int] = {}

    def register_vertex(self, vertex_name: str, parallelism: int,
                        node_of_instance: Callable[[int], int],
                        stateful: bool) -> None:
        self._vertices[vertex_name] = parallelism

    def live_update_cost(self, vertex_name: str) -> float:
        return 0.0

    def on_state_update(self, vertex_name: str, key: Hashable,
                        value: object | None) -> None:
        """No live mirroring in the vanilla engine."""

    def snapshot_cpu_cost(self, entries: int) -> float:
        costs = self._costs
        return costs.snapshot_fixed_ms + entries * costs.snapshot_entry_ms

    def write_snapshot(self, vertex_name: str, instance: int, node_id: int,
                       ssid: int, payload: dict, deleted: set,
                       on_done: Callable[[], None]) -> None:
        """Write the blob through the local store partition server."""
        server = self._cluster.node(node_id).store_server(instance)

        def finish() -> None:
            self._blobs[(vertex_name, ssid, instance)] = dict(payload)
            on_done()

        submit_chunked_write(
            server, len(payload), self._costs.store_entry_ms,
            self._costs.scan_chunk_entries, finish,
        )

    def write_source_offset(self, vertex_name: str, instance: int,
                            node_id: int, ssid: int, offset: int,
                            on_done: Callable[[], None]) -> None:
        server = self._cluster.node(node_id).store_server(instance)

        def finish() -> None:
            self._offsets[(vertex_name, ssid, instance)] = offset
            on_done()

        server.submit(self._costs.store_entry_ms, finish)

    def restore_instance_state(self, vertex_name: str, instance: int,
                               ssid: int) -> dict:
        blob = self._blobs.get((vertex_name, ssid, instance))
        if blob is None:
            raise RecoveryError(
                f"no snapshot blob for {vertex_name}[{instance}] "
                f"at ssid {ssid}"
            )
        return dict(blob)

    def restore_source_offset(self, vertex_name: str, instance: int,
                              ssid: int) -> int:
        offset = self._offsets.get((vertex_name, ssid, instance))
        if offset is None:
            raise RecoveryError(
                f"no offset for source {vertex_name}[{instance}] "
                f"at ssid {ssid}"
            )
        return offset

    def drop_snapshot(self, ssid: int) -> None:
        """Retention: the blobs and offsets of ``ssid`` go, with those
        an aborted older attempt left."""
        stale = [key for key in self._blobs if key[1] <= ssid]
        for key in stale:
            del self._blobs[key]
        stale_offsets = [key for key in self._offsets if key[1] <= ssid]
        for key in stale_offsets:
            del self._offsets[key]

    # -- introspection helpers (tests) -----------------------------------

    def blob_count(self) -> int:
        return len(self._blobs)

    def has_blob(self, vertex_name: str, ssid: int, instance: int) -> bool:
        return (vertex_name, ssid, instance) in self._blobs
