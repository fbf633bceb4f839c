"""Tests for the benchmark harness (scaling rules and experiment
plumbing at miniature scale)."""

import pytest

from repro.bench.harness import (
    BlockUpdateOperator,
    BlockUpdateSource,
    build_delta_job,
    make_backend,
    paper_rate,
    preload_qcommerce_state,
    run_overhead_experiment,
    run_snapshot_experiment,
    scaled_cluster,
    sim_rate,
)
from repro.dataflow.backend import VanillaBackend
from repro.env import Environment
from repro.state import SQueryBackend


def test_rate_scaling_roundtrip():
    config = scaled_cluster(nodes=3, workers_per_node=1)
    scaled = sim_rate(1_000_000, config)
    assert scaled == pytest.approx(1_000_000 * 3 / 36)
    assert paper_rate(scaled, config) == pytest.approx(1_000_000)


def test_scaled_cluster_shape():
    config = scaled_cluster(nodes=7, workers_per_node=2)
    assert config.nodes == 7
    assert config.processing_workers_per_node == 2
    assert config.query_workers_per_node == 4
    assert config.backup_count == 1


def test_make_backend_modes():
    env = Environment(scaled_cluster())
    assert isinstance(make_backend(env, "jet"), VanillaBackend)
    backend = make_backend(env, "live+snap")
    assert isinstance(backend, SQueryBackend)
    assert backend.config.live_state and backend.config.snapshot_state
    env2 = Environment(scaled_cluster())
    live_only = make_backend(env2, "live")
    assert live_only.config.live_state
    assert not live_only.config.snapshot_state
    env3 = Environment(scaled_cluster())
    snap_only = make_backend(env3, "snap", snapshot_backend="chain")
    assert snap_only.incremental
    with pytest.raises(ValueError):
        make_backend(env3, "warp")


def test_make_backend_unknown_mode_raises():
    env = Environment(scaled_cluster())
    with pytest.raises(ValueError):
        make_backend(env, "nope")


def test_overhead_experiment_miniature():
    result = run_overhead_experiment(
        "snap", 100_000, warmup_ms=200, measure_ms=500,
        paper_sellers=200,
    )
    assert result.sink_records > 100
    assert result.latency.count == result.sink_records
    assert result.latency.percentile(50) > 0


def test_snapshot_experiment_miniature():
    result = run_snapshot_experiment(
        1_000, mode="snap", checkpoints=5, nodes=3,
        events_per_s=500,
    )
    assert result.checkpoints >= 4
    assert result.total.percentile(50) > 0
    assert result.phase1.percentile(50) <= result.total.percentile(50)


def test_preload_places_keys_on_owning_instances():
    from repro.cluster.partition import stable_hash
    from repro.workloads.qcommerce import build_qcommerce_job

    env = Environment(scaled_cluster(3, 1))
    backend = make_backend(env, "live+snap")
    job = build_qcommerce_job(env, backend, orders=50, riders=10,
                              parallelism=3)
    preload_qcommerce_state(job, 50, 10)
    instances = job.instances_of("orderinfo")
    for index, instance in enumerate(instances):
        for key, _ in instance.operator.state.items():
            assert stable_hash(key) % 3 == index
    total = sum(len(i.operator.state) for i in instances)
    assert total == 50


def test_block_update_source_routes_to_own_instance():
    source = BlockUpdateSource(100.0, rows_per_instance=10,
                               parallelism=4, block=3)
    for instance in range(4):
        for seq in range(5):
            key, payload = source.generate(instance, seq)
            assert key == instance
            start, count, stamp = payload
            assert count == 3
            assert 0 <= start < 10


def test_block_update_operator_writes_local_keys():
    from repro.dataflow.operators import Emitter
    from repro.dataflow.records import Record

    operator = BlockUpdateOperator(rows_per_instance=10)
    operator.open(2, 4)
    operator.process(Record(2, (8, 3, 1.0), 0.0), Emitter())
    keys = sorted(k for k, _ in operator.state.items())
    # start 8, count 3 wraps: indices 8, 9, 0 -> keys 2 + 4*idx.
    assert keys == [2, 2 + 4 * 8, 2 + 4 * 9]
    assert all(k % 4 == 2 for k in keys)


def test_delta_job_delta_fraction_bounds_dirty_keys():
    setup = build_delta_job(
        7_000, delta_fraction=0.1, snapshot_backend="chain", nodes=7,
        records_per_s=2000, block=16,
    )
    setup.job.start()
    setup.env.run_until(3_500)
    table = setup.backend.snapshot_table("deltastate")
    ssid = setup.env.store.committed_ssid
    # Dirty keys per checkpoint stay within the 10% delta subspace
    # (plus the first full snapshot of the warm start).
    later_deltas = [
        len(delta) for version, delta in table._traces[0].items()
        if version > 1
    ]
    # Block writes may overrun the span by at most one block.
    bound = int(setup.rows_per_instance * 0.1) + 16
    assert later_deltas
    assert all(size <= bound for size in later_deltas)
