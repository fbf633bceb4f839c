"""Standing queries over the qcommerce workload.

Acceptance: a standing aggregate over qcommerce live state stays
delta-maintained (zero re-scans) across >= 10,000 state updates.
"""

from repro import ClusterConfig, Environment
from repro.query import QueryService
from repro.sql import EvalContext, parse
from repro.sql.executor import execute_select
from repro.sql.planner import DictCatalog, ListTable
from repro.workloads.qcommerce import build_qcommerce_job

from ..conftest import make_squery_backend

#: The push variant of the paper's Query 3 shape: orders per delivery
#: zone, straight off live order-info state.
ZONE_SQL = ('SELECT deliveryZone, COUNT(*) AS orders FROM "orderinfo" '
            'GROUP BY deliveryZone')
STATE_SQL = ('SELECT orderState, COUNT(*) AS n FROM "orderstate" '
             'GROUP BY orderState')


def test_standing_aggregate_survives_10k_updates_without_rescan():
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2)
    )
    backend = make_squery_backend(env)
    job = build_qcommerce_job(env, backend, orders=800,
                              events_per_s=6_000)
    service = QueryService(env)
    job.start()
    env.run_for(100)

    zone_sub = service.subscribe(ZONE_SQL)
    state_sub = service.subscribe(STATE_SQL)
    assert zone_sub.path == "incremental-grouped-aggregate"
    assert state_sub.path == "incremental-grouped-aggregate"

    # Drive until the two subscribed tables have seen >= 10k updates.
    target = 10_000
    while True:
        env.run_for(500)
        applied = (zone_sub.standing.deltas_applied
                   + state_sub.standing.deltas_applied)
        if applied >= target:
            break
        assert env.sim.now < 60_000, "workload too slow to reach 10k"

    # THE acceptance invariant: delta-maintained throughout, re-scanned
    # never.
    assert zone_sub.standing.deltas_applied \
        + state_sub.standing.deltas_applied >= 10_000
    assert zone_sub.standing.rescans == 0
    assert state_sub.standing.rescans == 0
    assert env.continuous.rescans_run == 0

    # The maintained results are exactly what a scan would compute from
    # the live tables right now.
    for sub, table in ((zone_sub, "orderinfo"), (state_sub, "orderstate")):
        live = env.store.get_live_table(table)
        catalog = DictCatalog()
        catalog.add(ListTable(table, tuple(live.rows())))
        expected = execute_select(
            parse(sub.sql), catalog, EvalContext(now_ms=env.sim.now)
        ).rows
        maintained = sub.standing.current_rows()
        assert sorted(map(repr, maintained)) == sorted(map(repr, expected))

    # And the pushed view converges to the same result once in-flight
    # batches settle (sources keep running, so allow the final batch).
    assert zone_sub.deltas_received > 0
    total_orders = sum(row["orders"] for row in zone_sub.rows())
    assert total_orders > 0


def test_subscription_survives_checkpoints_on_incremental_backend():
    """Commits (and incremental-snapshot pruning) must not disturb a
    live-table standing query: no rescans, no spurious rollbacks."""
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2)
    )
    backend = make_squery_backend(env, snapshot_backend="chain",
                                  prune_chain_length=2)
    job = build_qcommerce_job(env, backend, orders=300,
                              events_per_s=2_000,
                              checkpoint_interval_ms=300)
    service = QueryService(env)
    job.start()
    env.run_for(100)
    sub = service.subscribe(STATE_SQL)
    env.run_for(3_000)
    assert len(env.store.available_ssids()) > 0  # commits happened
    assert sub.standing.rescans == 0
    assert sub.rollbacks_received == 0
    assert sub.rows()
