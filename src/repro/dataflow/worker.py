"""Operator and source instance runtimes.

This module implements the execution semantics of §IV: per-instance
single-threaded record processing on the node's worker pool, checkpoint
marker alignment (Fig. 3), snapshot capture through the state backend,
and marker forwarding.  All asynchronous callbacks are guarded by the
job epoch so that in-flight work from before a failure is discarded.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING

from ..cluster.partition import stable_hash
from ..errors import CheckpointError
from .graph import (
    ROUTE_BROADCAST,
    ROUTE_FORWARD,
    ROUTE_PARTITIONED,
    ROUTE_REBALANCE,
)
from .operators import Emitter, Operator
from .records import CheckpointMarker, Record
from .sources import RETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .job import Job


class InputChannel:
    """One FIFO input from a specific upstream instance."""

    __slots__ = ("queue", "blocked_ssid")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.blocked_ssid: int | None = None


class OutputEdge:
    """Routing fan-out from instance ``src`` to a downstream vertex,
    with what deployment fixes resolved once: the input key the targets
    file ``src``'s items under and the FIFO channel to each target."""

    def __init__(self, edge_index: int, routing: str,
                 dst_instances: list["OperatorInstance"],
                 src: "_InstanceBase | None" = None) -> None:
        self.routing = routing
        self.dst_instances = dst_instances
        self.src = src
        src_gid = None if src is None else src.gid
        self.input_key = (edge_index, src_gid)
        self.channels = [(edge_index, src_gid, dst.gid)
                         for dst in dst_instances]
        self._rebalance_next = 0

    def _index(self, record: Record) -> int:
        """Position of ``record``'s target on a one-target routing."""
        parallelism = len(self.dst_instances)
        if self.routing == ROUTE_PARTITIONED:
            return stable_hash(record.key) % parallelism
        if self.routing == ROUTE_FORWARD:
            return record.source_instance % parallelism
        if self.routing == ROUTE_REBALANCE:
            index = self._rebalance_next % parallelism
            self._rebalance_next += 1
            return index
        raise CheckpointError(f"unknown routing {self.routing!r}")

    def targets(self, record: Record) -> list["OperatorInstance"]:
        if self.routing == ROUTE_BROADCAST:
            return list(self.dst_instances)
        return [self.dst_instances[self._index(record)]]

    def send(self, item: Record | CheckpointMarker, nbytes: int) -> None:
        """A record to its routed target, a marker to every target."""
        dst = self.dst_instances
        if type(item) is not Record or self.routing == ROUTE_BROADCAST:
            indexes = range(len(dst))
        elif self.routing == ROUTE_PARTITIONED:  # ``_index``, inline
            indexes = (stable_hash(item.key) % len(dst),)
        else:
            indexes = (self._index(item),)
        src = self.src
        for index in indexes:
            target = dst[index]
            src.job.cluster.network.send(
                src.node_id, target.node_id, target.deliver_guarded,
                src.job.epoch, self.input_key, item,
                nbytes=nbytes, channel=self.channels[index])


class _InstanceBase:
    """Shared plumbing for operator and source instances."""

    def __init__(self, job: "Job", vertex_name: str, instance: int,
                 node_id: int) -> None:
        self.job = job
        self.vertex_name = vertex_name
        self.instance = instance
        self.node_id = node_id
        self.gid = f"{vertex_name}[{instance}]"
        self.output_edges: list[OutputEdge] = []

    def _broadcast_marker(self, ssid: int) -> None:
        marker = CheckpointMarker(ssid)
        for edge in self.output_edges:
            edge.send(marker, 16)

    def _ack_snapshot(self, ssid: int) -> None:
        self.job.coordinator.send_ack(self.node_id, ssid, self.gid)


class OperatorInstance(_InstanceBase):
    """One parallel instance of a DAG operator."""

    def __init__(self, job: "Job", vertex_name: str, instance: int,
                 node_id: int, operator: Operator) -> None:
        super().__init__(job, vertex_name, instance, node_id)
        self.operator = operator
        self.input_channels: dict[tuple[int, str], InputChannel] = {}
        self.is_sink = False  # set by the job after wiring
        self._pending_jobs = 0
        self._snapshotting = False
        self._emitter = Emitter()
        self.records_processed = 0
        costs = job.costs
        self._service_ms = (costs.record_service_ms + costs.state_update_ms
                            if operator.stateful else costs.record_service_ms)
        self._jitter = job.sim.rng.stream("service")
        if operator.state is not None:
            # StateAccess mutation hook -> live-state mirroring.
            operator.state.on_update = partial(
                job.backend.on_state_update, vertex_name)

    # -- wiring -----------------------------------------------------------

    def add_input_channel(self, edge_index: int, src_gid: str) -> None:
        self.input_channels[(edge_index, src_gid)] = InputChannel()

    # -- delivery and pumping ---------------------------------------------

    def deliver_guarded(self, epoch: int, channel_key: tuple,
                        item: object) -> None:
        """Network delivery entry point; drops stale-epoch messages."""
        if epoch != self.job.epoch:
            return
        channel = self.input_channels.get(channel_key)
        if channel is None:
            return
        if (type(item) is Record and not channel.queue
                and channel.blocked_ssid is None and not self._snapshotting):
            # Between pumps only blocked channels hold items: ``_pump``
            # would submit just this record, then find a job pending.
            self._submit_record(item)
            return
        channel.queue.append(item)
        self._pump()

    def _pump(self) -> None:
        """Submit every processable record to the worker pool.

        Channels blocked by a checkpoint marker keep their items queued
        until the snapshot completes (marker alignment, Fig. 3).
        """
        if self._snapshotting:
            return
        for channel in self.input_channels.values():
            if channel.blocked_ssid is not None:
                continue
            while channel.queue:
                item = channel.queue[0]
                if isinstance(item, CheckpointMarker):
                    channel.blocked_ssid = item.ssid
                    channel.queue.popleft()
                    break
                channel.queue.popleft()
                self._submit_record(item)
        self._maybe_align()

    def _submit_record(self, record: Record) -> None:
        self._pending_jobs += 1
        self.job.cluster.nodes[self.node_id].processing_pool.submit(
            self.gid, self._service_time(), self._on_record_done,
            self.job.epoch, record)

    def _service_time(self) -> float:
        duration = self._service_ms
        if self.operator.stateful:
            duration += self.job.backend.live_update_cost(self.vertex_name)
        return duration * self._jitter.uniform(0.8, 1.2)

    def _on_record_done(self, epoch: int, record: Record) -> None:
        if epoch != self.job.epoch:
            return
        self._pending_jobs -= 1
        self.operator.process(record, self._emitter)
        self.records_processed += 1
        nbytes = self.job.costs.row_bytes
        for output in self._emitter.drain():
            for edge in self.output_edges:
                edge.send(output, nbytes)
        if self.is_sink:
            latency = self.job.sim.now - record.created_ms
            self.job.metrics.record_sink_latency(latency)
        if not self._pending_jobs:
            self._maybe_align()

    # -- checkpoint alignment and snapshotting ---------------------------

    def _maybe_align(self) -> None:
        if self._snapshotting or self._pending_jobs > 0:
            return
        ssid = None
        for channel in self.input_channels.values():
            blocked = channel.blocked_ssid
            if blocked is None or (ssid is not None and blocked != ssid):
                return
            ssid = blocked
        if ssid is not None:
            self._begin_snapshot(ssid)

    def _begin_snapshot(self, ssid: int) -> None:
        self._snapshotting = True
        if not self.operator.stateful:
            self._finish_snapshot(ssid)
            return
        state = self.operator.state
        if self.job.backend.incremental:
            payload, deleted = state.take_delta()
        else:
            payload, deleted = state.snapshot_items(), set()
        cpu_cost = self.job.backend.snapshot_cpu_cost(len(payload))
        pool = self.job.cluster.node(self.node_id).processing_pool
        epoch = self.job.epoch

        def after_serialize() -> None:
            if epoch != self.job.epoch:
                return
            self.job.backend.write_snapshot(
                self.vertex_name, self.instance, self.node_id, ssid,
                payload, deleted,
                lambda: self._snapshot_written(epoch, ssid),
            )

        pool.submit(self.gid, cpu_cost, after_serialize)

    def _snapshot_written(self, epoch: int, ssid: int) -> None:
        if epoch != self.job.epoch:
            return
        self._finish_snapshot(ssid)

    def _finish_snapshot(self, ssid: int) -> None:
        self._ack_snapshot(ssid)
        self._broadcast_marker(ssid)
        self._snapshotting = False
        for channel in self.input_channels.values():
            channel.blocked_ssid = None
        self._pump()

    # -- recovery ---------------------------------------------------------

    def reset_for_recovery(self, node_id: int) -> None:
        """Clear in-flight items and rebind to (possibly) a new node."""
        self.node_id = node_id
        self._pending_jobs = 0
        self._snapshotting = False
        self._emitter = Emitter()
        for channel in self.input_channels.values():
            channel.queue.clear()
            channel.blocked_ssid = None


class SourceInstance(_InstanceBase):
    """One parallel instance of a source vertex.

    Emits records with Poisson interarrivals at the configured rate and
    reacts to coordinator triggers by recording its offset and emitting
    a checkpoint marker in-band.
    """

    def __init__(self, job: "Job", vertex_name: str, instance: int,
                 node_id: int, source) -> None:
        super().__init__(job, vertex_name, instance, node_id)
        self.source = source
        self.seq = 0
        self.exhausted = False
        self.records_emitted = 0
        self._parallelism = job.vertex_parallelism(vertex_name)
        self._arrivals = job.sim.rng.stream(f"arrivals.{self.gid}")
        self._batch_wait = job.sim.rng.stream("source_batch")

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        rate = self.source.rate_per_instance(self._parallelism)
        if rate <= 0:
            return
        mean_interarrival = 1000.0 / rate
        delay = self._arrivals.expovariate(1.0 / mean_interarrival)
        self.job.sim.schedule(delay, self._emit, self.job.epoch)

    def _emit(self, epoch: int) -> None:
        if epoch != self.job.epoch or self.exhausted:
            return
        item = self.source.generate(self.instance, self.seq)
        if item is None:
            self.exhausted = True
            self.job.on_source_exhausted(self.gid)
            return
        if item is RETRY:
            # Caught up with a live external input: poll again later.
            self._schedule_next()
            return
        key, value = item
        now = self.job.sim.now
        batch_wait = self._batch_wait.uniform(
            0.0, self.job.costs.source_batch_ms)
        record = Record(
            key=key,
            value=value,
            created_ms=now - batch_wait,
            seq=self.seq,
            source_instance=self.instance,
        )
        self.seq += 1
        self.records_emitted += 1
        # Source processors occupy a processing worker per record (they
        # are cooperative tasklets in Jet); the offered rate is open-loop
        # so emission itself is not delayed, but the CPU time contends
        # with downstream operators on the same node.
        pool = self.job.cluster.nodes[self.node_id].processing_pool
        pool.submit(self.gid, self.job.costs.record_service_ms)
        nbytes = self.job.costs.row_bytes
        for edge in self.output_edges:
            edge.send(record, nbytes)
        self._schedule_next()

    # -- checkpointing -----------------------------------------------------

    def on_trigger(self, epoch: int, ssid: int) -> None:
        """Coordinator trigger: snapshot the offset, emit the marker."""
        if epoch != self.job.epoch:
            return
        offset = self.seq
        self._broadcast_marker(ssid)
        self.job.backend.write_source_offset(
            self.vertex_name, self.instance, self.node_id, ssid, offset,
            lambda: self._offset_written(epoch, ssid),
        )

    def _offset_written(self, epoch: int, ssid: int) -> None:
        if epoch != self.job.epoch:
            return
        self._ack_snapshot(ssid)

    # -- recovery ---------------------------------------------------------

    def reset_for_recovery(self, node_id: int, offset: int) -> None:
        self.node_id = node_id
        self.seq = offset
        self.exhausted = False
