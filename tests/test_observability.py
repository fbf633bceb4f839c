"""Tests for the utilisation/observability report."""

from repro.observability import ClusterReport, NodeReport, collect_report, \
    format_report
from repro.query import QueryService

from .conftest import build_average_job, make_squery_backend


def _node(node_id, processing=0.0, query=0.0, store=0.0):
    return NodeReport(
        node_id=node_id, alive=True,
        processing_utilization=processing, processing_jobs=0,
        query_utilization=query, query_jobs=0,
        store_utilization=store, store_jobs=0,
    )


def test_report_covers_all_nodes(env):
    job = build_average_job(env, rate=2000)
    job.start()
    env.run_until(2_000)
    report = collect_report(env)
    assert len(report.nodes) == 3
    assert report.horizon_ms == 2_000
    assert all(node.alive for node in report.nodes)


def test_processing_utilization_reflects_load(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=4000)
    job.start()
    env.run_until(2_000)
    report = collect_report(env)
    for node in report.nodes:
        assert 0.0 < node.processing_utilization < 1.0
        assert node.processing_jobs > 0
        assert node.store_jobs > 0  # snapshot writes hit the store


def test_network_and_lock_counters(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000)
    job.start()
    env.run_until(1_500)
    report = collect_report(env)
    assert report.network_messages > 0
    assert report.network_bytes > 0
    assert report.lock_acquisitions > 0  # live mirroring locks keys


def test_dead_node_flagged(env):
    job = build_average_job(env, rate=1000, checkpoint_interval_ms=500)
    job.start()
    env.run_until(1_600)
    env.cluster.kill_node(1)
    report = collect_report(env)
    status = {node.node_id: node.alive for node in report.nodes}
    assert status == {0: True, 1: False, 2: True}


def test_hottest_pool_identifies_processing(env):
    job = build_average_job(env, rate=5000)
    job.start()
    env.run_until(2_000)
    report = collect_report(env)
    node_id, kind, utilization = report.hottest_pool()
    assert kind == "processing"
    assert utilization > 0


def test_hottest_pool_considers_store_servers():
    # A store-bound node must win over busier-looking-but-cooler pools;
    # hottest_pool used to ignore store_utilization entirely.
    report = ClusterReport(horizon_ms=1_000, nodes=[
        _node(0, processing=0.30, query=0.10, store=0.20),
        _node(1, processing=0.25, query=0.15, store=0.85),
        _node(2, processing=0.40, query=0.05, store=0.10),
    ])
    assert report.hottest_pool() == (1, "store", 0.85)


def test_hottest_pool_store_loses_when_cooler():
    report = ClusterReport(horizon_ms=1_000, nodes=[
        _node(0, processing=0.60, query=0.10, store=0.20),
    ])
    assert report.hottest_pool() == (0, "processing", 0.60)


def test_format_report_renders(env):
    job = build_average_job(env, rate=1000)
    job.start()
    env.run_until(1_000)
    text = format_report(collect_report(env))
    assert "cluster utilisation" in text
    assert "network:" in text
    assert "proc util" in text
    assert "continuous:" not in text  # subsystem unused: no noise
    assert text.count("\n") >= 5


def test_report_counts_continuous_queries(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000)
    service = QueryService(env)
    job.start()
    env.run_for(100)
    subscription = service.subscribe(
        'SELECT COUNT(*) AS n, SUM(count) AS events FROM "average"'
    )
    env.run_for(1_000)
    report = collect_report(env)
    assert report.active_subscriptions == 1
    assert report.changes_captured > 0
    assert report.push_batches_sent > 0
    assert report.deltas_pushed > 0
    text = format_report(report)
    assert "continuous: 1 subscriptions" in text
    env.continuous.unsubscribe(subscription)
    assert collect_report(env).active_subscriptions == 0


def test_report_counts_query_fault_tolerance():
    from repro import Environment
    from repro.config import ClusterConfig, CostModel, QueryRetryPolicy

    slow = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2),
        costs=CostModel(scan_entry_ms=0.05),
    )
    backend = make_squery_backend(slow)
    job = build_average_job(slow, backend=backend, rate=4000, keys=250)
    job.start()
    slow.run_until(1_500)
    service = QueryService(
        slow, retry_policy=QueryRetryPolicy(query_timeout_ms=500.0)
    )
    execution = service.submit('SELECT COUNT(*) FROM "average"')
    slow.run_for(2.0)  # scans in flight
    victim = next(n for n in slow.cluster.surviving_node_ids()
                  if n != execution.entry_node)
    slow.cluster.fail_node(victim)
    slow.run_for(2_000)
    report = collect_report(slow)
    assert report.query_retries == 1
    assert report.locks_held == 0
    text = format_report(report)
    assert "query fault tolerance: 1 retries" in text
