"""Runtime sanitizer tests: each invariant has a trigger and the
armed detectors stay silent on a healthy workload.

Every test here passes an explicit :class:`SanitizerConfig`, so the
autouse fixture's end-of-test ``verify()`` (which only covers
default-armed runtimes) does not double-fail the deliberate
violations.
"""

import pytest

from repro.analysis.sanitizers import SanitizerRuntime, install_sanitizers
from repro.config import ClusterConfig, SanitizerConfig
from repro.env import Environment
from repro.errors import ConfigurationError, SanitizerError
from repro.query.service import QueryService
from repro.state.isolation import IsolationLevel
from repro.state.snapshots import FullSnapshotTable

from ..conftest import build_average_job, make_squery_backend


def armed_env(**config_overrides):
    config_overrides.setdefault("fail_fast", True)
    config = SanitizerConfig(enabled=True, **config_overrides)
    return Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2),
        sanitizers=config,
    )


def commit_snapshot_with_table(env, ssid=1):
    table = FullSnapshotTable("snapshot_t", parallelism=2,
                              node_of_instance=lambda i: i % 2)
    env.store.register_snapshot_table("snapshot_t", table)
    env.store.begin_snapshot(ssid)
    table.write_instance(ssid, 0, {"a": 1.0})
    table.write_instance(ssid, 1, {"b": 2.0})
    env.store.commit_snapshot(ssid)
    return table


# -- snapshot immutability -------------------------------------------------


def test_write_to_committed_snapshot_raises():
    env = armed_env()
    table = commit_snapshot_with_table(env)
    with pytest.raises(SanitizerError, match="immutable"):
        table.write_instance(1, 0, {"a": 99.0})


def test_drop_of_queryable_snapshot_raises():
    env = armed_env()
    table = commit_snapshot_with_table(env)
    with pytest.raises(SanitizerError, match="still queryable"):
        table.drop_snapshot(1)


def test_abort_of_committed_snapshot_raises():
    env = armed_env()
    table = commit_snapshot_with_table(env)
    with pytest.raises(SanitizerError, match="after it committed"):
        table.abort(1)


def test_aborting_an_in_progress_snapshot_is_fine():
    env = armed_env()
    table = commit_snapshot_with_table(env, ssid=1)
    env.store.begin_snapshot(2)
    table.write_instance(2, 0, {"a": 7.0})
    env.store.abort_snapshot(2)
    assert table.available_ssids() == [1]


def test_retired_snapshot_can_be_dropped():
    env = armed_env()
    table = commit_snapshot_with_table(env, ssid=1)
    env.store.begin_snapshot(2)
    table.write_instance(2, 0, {"a": 1.5})
    env.store.commit_snapshot(2)
    retired = env.store.retire_snapshots(keep=1)
    assert retired == [1]
    assert not table.has_snapshot(1)  # retire already dropped it


def test_writes_to_in_progress_snapshot_are_fine():
    env = armed_env()
    table = commit_snapshot_with_table(env, ssid=1)
    env.store.begin_snapshot(2)
    table.write_instance(2, 0, {"a": 7.0})  # uncommitted: allowed
    env.store.commit_snapshot(2)


def test_fingerprint_catches_in_place_mutation():
    env = armed_env(snapshot_fingerprints=True, fail_fast=False)
    table = commit_snapshot_with_table(env)
    # Reach around the store API and corrupt committed state directly —
    # exactly what the write_instance guard cannot see.
    table._traces[0][1]["a"] = -123.0
    violations = env.sanitizers.verify()
    assert any(v.kind == "torn-snapshot" for v in violations)


def test_fingerprint_passes_when_untouched():
    env = armed_env(snapshot_fingerprints=True, fail_fast=False)
    commit_snapshot_with_table(env)
    assert env.sanitizers.verify() == []


# -- lock leaks ------------------------------------------------------------


def test_query_completing_with_held_lock_raises():
    env = armed_env()
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=10,
                            limit_per_instance=200)
    job.start()
    env.run_until(1_500)
    service = QueryService(env)
    execution = service.submit('SELECT * FROM "average"')
    # Simulate a buggy path acquiring a key lock for the execution and
    # never releasing it; completion must detect the leak.
    assert env.store.locks.try_acquire(("average", 3), execution)
    with pytest.raises(SanitizerError, match="lock"):
        env.run_for(3_000)


def test_verify_flags_lock_held_by_finished_owner():
    env = armed_env(fail_fast=False)

    class FinishedOwner:
        qid = 404
        done = True

    assert env.store.locks.try_acquire(("t", 1), FinishedOwner())
    violations = env.sanitizers.verify()
    assert any(v.kind == "lock-leak" for v in violations)


# -- billing / isolation ---------------------------------------------------


def test_live_query_resolving_snapshot_id_raises():
    env = armed_env()
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=10,
                            limit_per_instance=200)
    job.start()
    env.run_until(1_500)
    service = QueryService(env)
    # Forge a snapshot resolution on a read-uncommitted live query just
    # before it completes: the sanitizer's completion check must reject
    # the classification mismatch.
    sanitized_finish = service._finish_execution

    def forge_then_finish(execution, result, error):
        execution.snapshot_id = 1
        sanitized_finish(execution, result, error)

    service._finish_execution = forge_then_finish
    service.submit('SELECT * FROM "average"')
    with pytest.raises(SanitizerError, match="read-uncommitted"):
        env.run_for(3_000)


def test_shipped_rows_with_zero_bytes_raises():
    env = armed_env(fail_fast=True)
    runtime = env.sanitizers

    class FakeLiveExecution:
        qid = 7
        error = None
        snapshot_id = None
        snapshot_versions = None
        rows_shipped = 50
        bytes_shipped = 0
        isolation = IsolationLevel.READ_UNCOMMITTED

    with pytest.raises(SanitizerError, match="zero bytes"):
        runtime._check_billing(FakeLiveExecution())


# -- dead-node scheduling --------------------------------------------------


def test_submit_to_dead_node_pool_raises():
    env = armed_env()
    env.cluster.kill_node(1)
    node = env.cluster.node(1)
    with pytest.raises(SanitizerError, match="down"):
        node.query_pool.submit("job", 1.0, lambda: None)


def test_submit_to_live_node_pool_is_fine():
    env = armed_env()
    node = env.cluster.node(1)
    node.query_pool.submit("job", 1.0)
    env.run_for(10)


# -- clean end-to-end run --------------------------------------------------


def test_full_workload_under_all_sanitizers_is_clean():
    env = armed_env(snapshot_fingerprints=True)
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=3000, keys=20,
                            checkpoint_interval_ms=500,
                            limit_per_instance=400)
    job.start()
    service = QueryService(env, repeatable_read=True)
    results = []
    env.sim.schedule(
        700, lambda: results.append(
            service.submit('SELECT * FROM "average"')
        )
    )
    env.sim.schedule(
        900, lambda: results.append(
            service.submit('SELECT COUNT(*) AS n FROM "snapshot_average"')
        )
    )
    env.run_until(4_000)
    for execution in results:
        assert execution.done and execution.error is None
    assert env.sanitizers.verify() == []


# -- wiring ----------------------------------------------------------------


def test_autouse_default_arms_new_environments(env):
    assert isinstance(env.sanitizers, SanitizerRuntime)
    assert env.sanitizers.from_default


def test_explicit_config_is_not_marked_default():
    env = armed_env()
    assert not env.sanitizers.from_default


def test_disabled_config_installs_nothing():
    env = Environment(sanitizers=SanitizerConfig(enabled=False))
    assert env.sanitizers is None


def test_fingerprints_require_immutability_guard():
    with pytest.raises(ConfigurationError):
        SanitizerConfig(snapshot_immutability=False,
                        snapshot_fingerprints=True).validate()


def test_report_counts_sanitizer_violations():
    from repro.observability import collect_report

    env = armed_env(fail_fast=False)
    table = commit_snapshot_with_table(env)
    table.write_instance(1, 0, {"a": 5.0})  # recorded, not raised
    report = collect_report(env)
    assert report.sanitizer_violations == 1
