"""Tests for the utilisation/observability report."""

import dataclasses
from operator import attrgetter

import pytest

from repro import Environment
from repro.config import ClusterConfig, CostModel
from repro.observability import COUNTER_FIELDS, ClusterReport, NodeReport, \
    collect_report, format_report
from repro.query import QueryService

from .conftest import build_average_job, make_squery_backend
from .properties.test_join_properties import QUERIES, populate


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


# -- the report contract -------------------------------------------------------

#: Every field name ``perf/harness.py`` reads: it iterates all of them.
PERF_FIELDS = {
    "horizon_ms", "nodes",
    "network_messages", "network_bytes", "lock_acquisitions",
    "lock_contentions", "locks_held", "open_channels",
    "query_retries", "query_aborts", "query_timeouts",
    "query_rows_shipped", "query_bytes_shipped", "query_partitions_pruned",
    "scan_batch_reuses", "scan_batch_rebuilds",
    "index_probes", "index_rows_read", "rows_skipped_by_index",
    "index_maintenance_ops", "index_maintenance_cost",
    "sketch_probes", "approx_queries_answered", "sketch_maintenance_ops",
    "sketch_maintenance_cost",
    "predicates_compiled", "batches_evaluated", "compile_cache_hits",
    "snapshot_plans_built", "snapshot_plans_reused",
    "joins_copartitioned", "joins_broadcast", "joins_shuffle",
    "joins_index_nested", "joins_central", "join_build_rows",
    "join_bytes_broadcast", "join_bytes_shuffled",
    "like_cache_hits", "like_cache_misses",
    "active_subscriptions", "changes_captured", "deltas_pushed",
    "push_batches_sent", "push_batches_coalesced", "subscription_rescans",
    "shared_plans", "subscriptions_per_plan_max",
    "subscriptions_per_plan_mean", "router_deltas_routed",
    "residual_filter_drops", "coalesced_batches", "slow_consumers_evicted",
    "plan_maintenance_ops", "plan_maintenance_cost",
    "sanitizer_violations", "lock_order_edges_observed",
    "lockdep_violations",
}

#: Report field -> the ``QueryExecution`` attribute it totals.
QUERY_FIELDS = {
    "query_rows_shipped": "rows_shipped",
    "query_bytes_shipped": "bytes_shipped",
    "query_partitions_pruned": "partitions_pruned",
    "approx_queries_answered": "approx_answered",
    **{name: name for name in (
        "index_probes", "index_rows_read", "rows_skipped_by_index",
        "sketch_probes", "predicates_compiled", "batches_evaluated",
        "compile_cache_hits", "joins_copartitioned", "joins_broadcast",
        "joins_shuffle", "joins_index_nested", "joins_central",
        "join_build_rows", "join_bytes_broadcast", "join_bytes_shuffled",
    )},
}

#: Report field -> (owner in the environment, the owner's attribute).
OWNED_FIELDS = {
    "network_messages": ("cluster.network", "messages_sent"),
    "network_bytes": ("cluster.network", "bytes_sent"),
    "open_channels": ("cluster.network", "open_channels"),
    "lock_acquisitions": ("store.locks", "acquisitions"),
    "lock_contentions": ("store.locks", "contentions"),
    "locks_held": ("store.locks", "held_count"),
    "active_subscriptions": ("continuous", "active_subscriptions"),
    "changes_captured": ("continuous", "recorder.changes_captured"),
    "deltas_pushed": ("continuous", "deltas_pushed"),
    "push_batches_sent": ("continuous", "batches_sent"),
    "push_batches_coalesced": ("continuous", "batches_coalesced"),
    "subscription_rescans": ("continuous", "rescans_run"),
    "shared_plans": ("continuous", "shared_plan_count"),
    "router_deltas_routed": ("continuous", "router.deltas_routed"),
    "residual_filter_drops": ("continuous", "router.residual_filter_drops"),
    "coalesced_batches": ("continuous", "coalesced_batches"),
    "slow_consumers_evicted": ("continuous", "slow_consumers_evicted"),
    "plan_maintenance_ops": ("continuous", "plan_maintenance_ops"),
    "plan_maintenance_cost": ("continuous", "plan_maintenance_ms"),
    "lock_order_edges_observed": ("sanitizers",
                                  "lock_order_edges_observed"),
    "lockdep_violations": ("sanitizers", "lockdep_violations"),
}

STATEMENTS = [
    'SELECT cust, SUM(amount) AS total FROM "orders" GROUP BY cust',
    "SELECT COUNT(*) AS n FROM \"states\" WHERE status LIKE 'sh%'",
    'SELECT partitionKey FROM "orders" WHERE amount BETWEEN 10 AND 12',
    'SELECT APPROX COUNT(*) AS n FROM "orders" WHERE cust = 3',
    QUERIES[0],  # co-partitioned
    QUERIES[3],  # broadcast
]

#: Read twice: the second read reuses the first one's shard plans.
SNAPSHOT_STATEMENT = 'SELECT COUNT(*) AS n FROM "snapshot_average"'


@pytest.fixture
def scenario():
    """A running job, pushdown scans, an index path, a sketch answer,
    distributed joins, a snapshot read twice, a repeatable-read join, a
    subscription and a node
    killed under a query, with the sanitizers armed: the environment
    and every execution its queries finished."""
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=2),
                      costs=CostModel(scan_entry_ms=0.05))
    assert env.sanitizers is not None
    job = build_average_job(env, backend=make_squery_backend(env),
                            rate=4000, keys=250)
    populate(env, seed=5)
    env.store.create_index("orders", "amount", "sorted")
    env.store.create_sketch("orders", "cust", "countmin")
    service = QueryService(env)
    finished = []
    job.start()
    env.run_for(1_500)
    service.subscribe(
        'SELECT COUNT(*) AS n, SUM(count) AS events FROM "average"'
    )
    for sql in STATEMENTS + [SNAPSHOT_STATEMENT] * 2:
        service.submit(sql, on_done=finished.append)
        env.run_for(100)
    QueryService(env, repeatable_read=True).submit(
        QUERIES[0], on_done=finished.append
    )
    env.run_for(100)
    execution = service.submit('SELECT COUNT(*) FROM "average"',
                               on_done=finished.append)
    env.run_for(2.0)  # scans in flight
    env.cluster.fail_node(next(n for n in env.cluster.surviving_node_ids()
                               if n != execution.entry_node))
    env.run_for(2_000)
    assert len(finished) == len(STATEMENTS) + 4
    return env, finished


def test_report_keeps_the_field_names_perf_reads():
    names = {f.name for f in dataclasses.fields(ClusterReport)}
    assert names == PERF_FIELDS
    assert {f.name for f in COUNTER_FIELDS} == PERF_FIELDS - {
        "horizon_ms", "nodes"}
    report = ClusterReport(horizon_ms=1.0, nodes=[])
    assert all(getattr(report, f.name) == 0 for f in COUNTER_FIELDS)


def test_every_counter_declares_unit_help_and_footer_place():
    for f in COUNTER_FIELDS:
        meta = f.metadata
        assert meta["unit"] and meta["help"], f.name
        assert meta["section"] and meta["label"], f.name
        assert callable(meta["read"]), f.name


def test_report_fields_equal_their_sources(scenario):
    env, finished = scenario
    report = collect_report(env)
    assert report.query_retries == 1
    assert report.approx_queries_answered == 1
    assert report.joins_copartitioned == 2 and report.joins_broadcast == 1
    assert report.index_probes > 0 and report.lock_order_edges_observed > 0
    for name, attribute in QUERY_FIELDS.items():
        assert getattr(report, name) == sum(
            getattr(execution, attribute) for execution in finished
        ), name
    assert 0 < report.snapshot_plans_built <= report.snapshot_plans_reused
    for name in ("query_retries", "query_aborts", "query_timeouts",
                 "snapshot_plans_built", "snapshot_plans_reused"):
        assert getattr(report, name) == sum(
            getattr(service, name) for service in env.query_services
        ), name
    for name, (owner, attribute) in OWNED_FIELDS.items():
        assert getattr(report, name) == \
            attrgetter(f"{owner}.{attribute}")(env), name
    assert report.sanitizer_violations == len(env.sanitizers.violations)
    live = [env.store.get_live_table(name)
            for name in env.store.live_table_names()]
    assert report.scan_batch_rebuilds == \
        sum(table.scan_rebuilds for table in live) > 0
    assert report.scan_batch_reuses == sum(table.scan_reuses for table in live)


def test_footer_prints_a_section_iff_a_counter_of_it_is_nonzero(scenario):
    sections = {}
    for f in COUNTER_FIELDS:
        sections.setdefault(f.metadata["section"], []).append(f.name)
    report = ClusterReport(horizon_ms=1.0)
    assert format_report(report).count(":") == 0  # table only
    for name in PERF_FIELDS - {"horizon_ms", "nodes"}:
        setattr(report, name, 1)
        (section,) = [s for s, names in sections.items() if name in names]
        footer = format_report(report).splitlines()[-1]
        assert footer.startswith(f"{section}: "), name
        setattr(report, name, 0)
    report = collect_report(scenario[0])
    lines = format_report(report).splitlines()
    for section, names in sections.items():
        shown = any(line.startswith(f"{section}: ") for line in lines)
        assert shown == any(getattr(report, n) for n in names), section
