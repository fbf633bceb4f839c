"""What the three job-backed workloads share: the scaled cluster, the
S-QUERY backend, state preloading and the checkpoint invariants."""

from __future__ import annotations

from repro import ClusterConfig, Environment, SQueryBackend, SQueryConfig
from repro.cluster.partition import stable_hash

#: Processing CPUs per node in the paper's clusters (Table III); the
#: simulated cluster keeps the per-worker offered rate of the paper's.
PAPER_WORKERS_PER_NODE = 12


def job_environment(nodes: int, seed: int):
    """A 1-worker-per-node cluster with the live+snapshot backend."""
    env = Environment(
        ClusterConfig(nodes=nodes, processing_workers_per_node=1,
                      query_workers_per_node=4,
                      backup_count=1 if nodes > 1 else 0),
        seed=seed,
    )
    backend = SQueryBackend(env.cluster, env.store, SQueryConfig())
    return env, backend


def preload(job, vertex: str, data: dict) -> None:
    """Warm-start ``vertex`` with ``data`` (key -> state object), each
    key on the instance the partitioner routes it to."""
    instances = job.instances_of(vertex)
    for key, value in data.items():
        instance = instances[stable_hash(key) % len(instances)]
        instance.operator.state.put(key, value)


def checkpoint_invariants(job) -> tuple[int, int]:
    """(checks, failed): none skipped, at least one completed, snapshot
    ids strictly increasing."""
    coordinator = job.coordinator
    ssids = [sample.ssid for sample in coordinator.samples]
    checks = [
        coordinator.skipped == 0,
        coordinator.completed >= 1,
        coordinator.completed == len(ssids),
        all(a < b for a, b in zip(ssids, ssids[1:])),
    ]
    return len(checks), checks.count(False)
