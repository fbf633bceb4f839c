"""Checkpoint coordinator: periodic markers plus two-phase commit.

Phase 1: the coordinator injects a trigger at every source instance;
markers flow through the DAG; every instance snapshots on alignment and
acks.  Phase 2: the coordinator broadcasts the commit to all nodes and,
once all nodes ack, atomically flips the store's committed-snapshot
pointer.  The latency of both phases is measured at the coordinator
exactly as in the paper's snapshot experiments (§IX-C): before phase 1,
after phase 1, and after phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .job import Job

#: Node hosting the checkpoint coordinator (Jet: the master member).
COORDINATOR_NODE = 0


@dataclass
class CheckpointSample:
    """Timing of one completed checkpoint."""

    ssid: int
    started_ms: float
    phase1_ms: float  # duration of phase 1
    phase2_ms: float  # duration of phase 1 + phase 2 (total 2PC)


@dataclass
class _InFlight:
    ssid: int
    started_ms: float
    expected_acks: int
    acks: int = 0
    phase1_done_ms: float | None = None
    commit_acks: int = 0


class CheckpointCoordinator:
    """Drives the periodic snapshot protocol for one job."""

    def __init__(self, job: "Job", interval_ms: float,
                 retained_snapshots: int) -> None:
        self.job = job
        self.interval_ms = interval_ms
        self.retained = retained_snapshots
        self.samples: list[CheckpointSample] = []
        self.skipped = 0
        self.completed = 0
        self._next_ssid = 1
        self._in_flight: _InFlight | None = None
        self._node_id = COORDINATOR_NODE
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.job.sim.schedule(self.interval_ms, self._tick, self.job.epoch)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self, epoch: int) -> None:
        if self._stopped or epoch != self.job.epoch:
            return
        if self._in_flight is not None:
            # Previous checkpoint still running: skip this tick (Jet
            # delays the next snapshot rather than stacking them).
            self.skipped += 1
        else:
            self._begin_checkpoint()
        self.job.sim.schedule(self.interval_ms, self._tick, self.job.epoch)

    # -- phase 1 -----------------------------------------------------------

    def _begin_checkpoint(self) -> None:
        ssid = self._next_ssid
        self._next_ssid += 1
        store = self.job.store
        store.begin_snapshot(ssid)
        expected = self.job.instance_count()
        self._in_flight = _InFlight(
            ssid=ssid,
            started_ms=self.job.sim.now,
            expected_acks=expected,
        )
        network = self.job.cluster.network
        for source in self.job.source_instances():
            network.send(
                self._node_id, source.node_id,
                source.on_trigger, self.job.epoch, ssid,
                nbytes=16,
                channel=("trigger", source.gid),
            )

    def send_ack(self, from_node: int, ssid: int, gid: str) -> None:
        """Instance-side helper: ship a phase-1 ack to the coordinator."""
        self.job.cluster.network.send(
            from_node, self._node_id,
            self._on_ack, self.job.epoch, ssid, gid,
            nbytes=16,
            channel=("ack", gid),
        )

    def _on_ack(self, epoch: int, ssid: int, gid: str) -> None:
        if epoch != self.job.epoch:
            return
        current = self._in_flight
        if current is None or current.ssid != ssid:
            return
        current.acks += 1
        if current.acks > current.expected_acks:
            raise CheckpointError(
                f"too many acks for snapshot {ssid} (from {gid})"
            )
        if current.acks == current.expected_acks:
            self._begin_phase2()

    # -- phase 2 ----------------------------------------------------------

    def _begin_phase2(self) -> None:
        current = self._in_flight
        current.phase1_done_ms = self.job.sim.now
        network = self.job.cluster.network
        round_cost = self.job.costs.two_pc_round_ms
        for node in self.job.cluster.alive_nodes():
            network.send(
                self._node_id, node.node_id,
                self._apply_commit, self.job.epoch, current.ssid,
                node.node_id, round_cost,
                nbytes=16,
                channel=("commit", node.node_id),
            )

    def _apply_commit(self, epoch: int, ssid: int, node_id: int,
                      round_cost: float) -> None:
        """Node-local commit application, then ack back."""
        if epoch != self.job.epoch:
            return
        node = self.job.cluster.node(node_id)
        server = node.store_server(0)
        server.submit(
            round_cost,
            lambda: self.job.cluster.network.send(
                node_id, self._node_id,
                self._on_commit_ack, epoch, ssid,
                nbytes=16,
                channel=("commit-ack", node_id),
            ),
        )

    def _on_commit_ack(self, epoch: int, ssid: int) -> None:
        if epoch != self.job.epoch:
            return
        current = self._in_flight
        if current is None or current.ssid != ssid:
            return
        current.commit_acks += 1
        if current.commit_acks < len(self.job.cluster.alive_nodes()):
            return
        # All nodes acked: atomically publish the snapshot.
        now = self.job.sim.now
        store = self.job.store
        store.commit_snapshot(ssid)
        self.samples.append(CheckpointSample(
            ssid=ssid,
            started_ms=current.started_ms,
            phase1_ms=current.phase1_done_ms - current.started_ms,
            phase2_ms=now - current.started_ms,
        ))
        self.completed += 1
        self._in_flight = None
        for old in store.retire_snapshots(self.retained):
            self.job.backend.drop_snapshot(old)

    # -- recovery -----------------------------------------------------------

    def abort_in_flight(self) -> None:
        """Abort the running checkpoint (node failure mid-protocol)."""
        if self._in_flight is not None:
            # The store has every snapshot table discard what the
            # attempt wrote; writes landing later are refused.
            self.job.store.abort_snapshot(self._in_flight.ssid)
            self._in_flight = None

    # -- metrics ------------------------------------------------------------

    def phase1_latencies(self) -> list[float]:
        return [sample.phase1_ms for sample in self.samples]

    def total_latencies(self) -> list[float]:
        return [sample.phase2_ms for sample in self.samples]
