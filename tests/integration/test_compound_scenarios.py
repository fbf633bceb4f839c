"""Compound integration scenarios combining several features at once."""

from repro import ClusterConfig, Environment, JobConfig, Pipeline
from repro.dataflow import (
    Job,
    SinkOperator,
    TumblingWindowOperator,
)
from repro.dataflow.sources import CallableSource
from repro.query import QueryService, StateAuditor

from ..conftest import make_squery_backend


def test_windows_with_incremental_lsm_and_failure():
    """Tumbling windows + LSM incremental snapshots + node failure +
    multi-version query, all in one run."""
    env = Environment(ClusterConfig(nodes=3,
                                    processing_workers_per_node=2))
    backend = make_squery_backend(env, snapshot_backend="lsm",
                                  retained_snapshots=3)

    def add(acc, value):
        return (acc or 0) + value

    pipeline = Pipeline()
    pipeline.add_source(
        "events", CallableSource(lambda i, s: (s % 8, 1), 2000.0)
    )
    pipeline.add_operator(
        "win", lambda: TumblingWindowOperator(400.0, add)
    )
    pipeline.add_operator("out", SinkOperator)
    pipeline.connect("events", "win")
    pipeline.connect("win", "out")
    job = Job(env, pipeline, JobConfig(parallelism=3,
                                       checkpoint_interval_ms=300),
              backend)
    job.start()
    env.run_until(1_500)
    env.cluster.kill_node(1)
    env.run_until(4_000)

    service = QueryService(env)
    live = service.execute('SELECT COUNT(*) AS n FROM "win"')
    assert live.result.rows[0]["n"] == 8
    multi = service.submit(
        'SELECT ssid, COUNT(*) AS n FROM "snapshot_win" '
        "GROUP BY ssid ORDER BY ssid",
        all_versions=True,
    )
    env.run_for(1_000)
    assert multi.error is None
    assert len(multi.result) == 3  # three retained versions
    assert job.metrics.recoveries == 1
    assert job.sink_received("out") > 0


def test_union_audit_and_direct_after_recovery(env):
    """UNION queries, subject access, and direct lookups all agree on
    the post-recovery state."""
    from ..conftest import build_average_job

    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=16,
                            checkpoint_interval_ms=400)
    job.start()
    env.run_until(1_300)
    env.cluster.kill_node(2)
    env.run_until(3_000)

    service = QueryService(env)
    union = service.execute(
        "SELECT 'live' AS v, COUNT(*) AS n FROM \"average\" UNION ALL "
        "SELECT 'snap', COUNT(*) FROM \"snapshot_average\""
    )
    counts = {row["v"]: row["n"] for row in union.result.rows}
    assert counts == {"live": 16, "snap": 16}

    auditor = StateAuditor(env)
    report = auditor.submit_subject_access(5)
    env.run_for(100)
    assert "average" in report.tables_holding_data()
    live_count = report.tables["average"].live_value.count

    from repro.query import DirectObjectInterface

    doi = DirectObjectInterface(env)
    lookup = doi.submit_get("average", [5])
    env.run_for(50)
    assert lookup.values[5].count >= live_count


def test_explain_matches_actual_execution(env):
    """EXPLAIN's join strategy is the one the executor actually uses —
    verified indirectly through identical results for both join
    orders."""
    from ..conftest import build_average_job
    from repro.sql import explain
    from repro.sql.planner import DictCatalog, ListTable

    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=1000, keys=8,
                            checkpoint_interval_ms=400)
    job.start()
    env.run_until(1_300)
    sql = ('SELECT COUNT(*) AS n FROM "average" '
           'JOIN "snapshot_average" USING(partitionKey)')
    catalog = DictCatalog({
        "average": ListTable("average", ()),
        "snapshot_average": ListTable("snapshot_average", ()),
    })
    plan_text = explain(sql, catalog)
    assert "hash join USING(partitionKey)" in plan_text
    service = QueryService(env)
    result = service.execute(sql)
    assert result.result.rows[0]["n"] == 8
