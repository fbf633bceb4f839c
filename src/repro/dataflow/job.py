"""Job deployment, wiring, metrics, and lifecycle."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import JobConfig
from ..errors import DataflowError
from .backend import StateBackend
from .checkpoint import CheckpointCoordinator
from .graph import Pipeline
from .operators import SinkOperator
from .worker import OperatorInstance, OutputEdge, SourceInstance


@dataclass
class JobMetrics:
    """Measurements collected while a job runs."""

    sink_latencies: list[float] = field(default_factory=list)
    sink_records: int = 0
    recoveries: int = 0

    def record_sink_latency(self, latency_ms: float) -> None:
        self.sink_latencies.append(latency_ms)
        self.sink_records += 1


class Job:
    """A deployed streaming job.

    Construction builds one :class:`OperatorInstance` per (vertex,
    parallel index), stripes instances across cluster nodes, wires the
    network channels for every edge, registers stateful vertices with
    the state backend, and hooks cluster failure notifications into the
    rollback-recovery protocol of §IV.
    """

    def __init__(self, env, pipeline: Pipeline,
                 job_config: JobConfig | None = None,
                 backend: StateBackend | None = None) -> None:
        from .backend import VanillaBackend  # default backend

        pipeline.validate()
        self.env = env
        self.sim = env.sim
        self.cluster = env.cluster
        self.store = env.store
        self.costs = env.costs
        self.pipeline = pipeline
        self.config = job_config or JobConfig()
        self.config.validate()
        self.backend = backend or VanillaBackend(self.cluster)
        self.metrics = JobMetrics()
        self.epoch = 0
        self._started = False
        self._exhausted_sources: set[str] = set()

        self._parallelism: dict[str, int] = {}
        self._instances: dict[str, list[OperatorInstance]] = {}
        self._sources: dict[str, list[SourceInstance]] = {}
        self._assignment: dict[str, int] = {}  # gid -> node id
        self._build_instances()
        self._wire_edges()
        self._register_backend()

        self.coordinator = CheckpointCoordinator(
            self, self.config.checkpoint_interval_ms,
            retained_snapshots=getattr(
                self.backend, "retained_snapshots", 2
            ),
        )
        self.cluster.on_node_failure(self._on_node_failure)

    # -- construction -----------------------------------------------------

    def _default_parallelism(self) -> int:
        if self.config.parallelism is not None:
            return self.config.parallelism
        return self.cluster.config.nodes

    def _build_instances(self) -> None:
        for name, vertex in self.pipeline.vertices.items():
            parallelism = vertex.parallelism or self._default_parallelism()
            self._parallelism[name] = parallelism
            if vertex.is_source:
                instances = []
                for index in range(parallelism):
                    node = self._initial_node(index)
                    instance = SourceInstance(
                        self, name, index, node, vertex.source
                    )
                    self._assignment[instance.gid] = node
                    instances.append(instance)
                self._sources[name] = instances
            else:
                instances = []
                for index in range(parallelism):
                    node = self._initial_node(index)
                    operator = vertex.factory()
                    operator.open(index, parallelism)
                    instance = OperatorInstance(
                        self, name, index, node, operator
                    )
                    self._assignment[instance.gid] = node
                    instances.append(instance)
                self._instances[name] = instances

    def _initial_node(self, instance_index: int) -> int:
        return self.cluster.partitioner.node_of_instance(
            instance_index, 0
        )

    def _wire_edges(self) -> None:
        for edge_index, edge in enumerate(self.pipeline.edges):
            src_instances = self._all_instances_of(edge.src)
            dst_instances = self._instances[edge.dst]
            for src in src_instances:
                for dst in dst_instances:
                    dst.add_input_channel(edge_index, src.gid)
                src.output_edges.append(
                    OutputEdge(edge_index, edge.routing, dst_instances, src)
                )
        for name, instances in self._instances.items():
            if not self.pipeline.out_edges(name):
                for instance in instances:
                    instance.is_sink = True

    def _register_backend(self) -> None:
        for name, vertex in self.pipeline.vertices.items():
            stateful = False
            if not vertex.is_source:
                stateful = self._instances[name][0].operator.stateful

            def node_of(instance: int, vertex_name: str = name) -> int:
                return self.node_of(vertex_name, instance)

            self.backend.register_vertex(
                name, self._parallelism[name], node_of, stateful
            )

    # -- topology queries --------------------------------------------------

    def vertex_parallelism(self, name: str) -> int:
        return self._parallelism[name]

    def node_of(self, vertex_name: str, instance: int) -> int:
        return self._assignment[f"{vertex_name}[{instance}]"]

    def _all_instances_of(self, name: str):
        if name in self._sources:
            return self._sources[name]
        return self._instances[name]

    def source_instances(self) -> list[SourceInstance]:
        return [
            instance
            for instances in self._sources.values()
            for instance in instances
        ]

    def operator_instances(self) -> list[OperatorInstance]:
        return [
            instance
            for instances in self._instances.values()
            for instance in instances
        ]

    def instances_of(self, name: str) -> list[OperatorInstance]:
        if name not in self._instances:
            raise DataflowError(f"unknown operator vertex {name!r}")
        return list(self._instances[name])

    def instance_count(self) -> int:
        return len(self.source_instances()) + len(self.operator_instances())

    def operator_state(self, name: str) -> dict:
        """Merged live state of all instances of a stateful vertex."""
        merged: dict = {}
        for instance in self.instances_of(name):
            if instance.operator.state is not None:
                merged.update(instance.operator.state.items())
        return merged

    def sink_received(self, name: str) -> int:
        return sum(
            instance.operator.received
            for instance in self.instances_of(name)
            if isinstance(instance.operator, SinkOperator)
        )

    def on_source_exhausted(self, gid: str) -> None:
        self._exhausted_sources.add(gid)

    def all_sources_exhausted(self) -> bool:
        return len(self._exhausted_sources) == len(self.source_instances())

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise DataflowError("job already started")
        self._started = True
        for source in self.source_instances():
            source.start()
        self.coordinator.start()

    def run_for(self, duration_ms: float) -> None:
        """Convenience: advance the simulation by ``duration_ms``."""
        self.sim.run_until(self.sim.now + duration_ms)

    def stop(self) -> None:
        self.coordinator.stop()
        self.epoch += 1  # silently drop all in-flight work

    # -- failure recovery ----------------------------------------------------

    def _on_node_failure(self, node_id: int) -> None:
        from .recovery import recover_job

        recover_job(self, node_id)
