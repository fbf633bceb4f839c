"""Tests for configuration validation and the environment wrapper."""

import dataclasses

import pytest

from repro import (
    ClusterConfig,
    CostModel,
    Environment,
    JobConfig,
    NetworkConfig,
    SQueryConfig,
    VANILLA,
)
from repro.errors import ConfigurationError


def test_default_cluster_matches_table_three():
    config = ClusterConfig()
    assert config.processing_workers_per_node == 12
    assert config.query_workers_per_node == 4
    assert config.total_processing_workers == 36
    assert config.total_query_workers == 12
    config.validate()


def test_cluster_validation_errors():
    with pytest.raises(ConfigurationError):
        ClusterConfig(nodes=0).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(processing_workers_per_node=0).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(query_workers_per_node=-1).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(partition_count=0).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(nodes=2, backup_count=2).validate()


def test_network_validation_errors():
    with pytest.raises(ConfigurationError):
        NetworkConfig(local_delay_ms=-1).validate()
    with pytest.raises(ConfigurationError):
        NetworkConfig(bytes_per_ms=0).validate()
    with pytest.raises(ConfigurationError):
        NetworkConfig(jitter_ms=-0.1).validate()


def test_cost_model_defaults_valid():
    CostModel().validate()


def test_cost_model_rejects_negative_constants():
    with pytest.raises(ConfigurationError):
        dataclasses.replace(CostModel(), record_service_ms=-1).validate()
    with pytest.raises(ConfigurationError):
        dataclasses.replace(CostModel(), scan_chunk_entries=0).validate()
    with pytest.raises(ConfigurationError):
        dataclasses.replace(
            CostModel(), direct_batch_exponent=1.5
        ).validate()


def test_job_config_validation():
    JobConfig().validate()
    with pytest.raises(ConfigurationError):
        JobConfig(checkpoint_interval_ms=0).validate()
    with pytest.raises(ConfigurationError):
        JobConfig(parallelism=0).validate()


def test_squery_config_validation():
    SQueryConfig().validate()
    with pytest.raises(ConfigurationError):
        SQueryConfig(retained_snapshots=0).validate()
    with pytest.raises(ConfigurationError):
        SQueryConfig(prune_chain_length=0).validate()
    with pytest.raises(ConfigurationError):
        SQueryConfig(live_state=False,
                     active_replication=True).validate()
    with pytest.raises(ConfigurationError):
        SQueryConfig(snapshot_backend="chains").validate()


def test_one_field_names_the_snapshot_policy():
    # Two fields that could disagree, like an "lsm" backend with
    # incremental snapshots off, silently built a full table.
    fields = {field.name for field in dataclasses.fields(SQueryConfig)}
    assert "snapshot_backend" in fields
    assert not fields & {"incremental", "incremental_backend"}


def test_vanilla_disables_everything():
    assert not VANILLA.live_state
    assert not VANILLA.snapshot_state
    VANILLA.validate()


def test_configs_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ClusterConfig().nodes = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        CostModel().record_service_ms = 1.0


def test_environment_bundles_components():
    env = Environment(ClusterConfig(nodes=2,
                                    processing_workers_per_node=1))
    assert env.now == 0.0
    assert len(env.cluster.nodes) == 2
    assert env.costs is env.cluster.costs
    env.run_for(100.0)
    assert env.now == 100.0
    env.run_until(250.0)
    assert env.now == 250.0


def test_environment_custom_costs():
    costs = dataclasses.replace(CostModel(), record_service_ms=0.5)
    env = Environment(ClusterConfig(nodes=1, backup_count=0), costs=costs)
    assert env.costs.record_service_ms == 0.5


def test_environment_seed_determinism():
    values = []
    for _ in range(2):
        env = Environment(seed=123)
        values.append(env.sim.rng.stream("x").random())
    assert values[0] == values[1]
