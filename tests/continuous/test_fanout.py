"""Fan-out end to end: plan dedup, residual routing, tiers, eviction.

Acceptance: structurally identical subscriptions share one maintained
plan (maintenance charged once per update per plan, not per
subscriber); residual subscribers only ever see their own rows; the
coalesced and digest tiers bound delivery work; a never-draining
subscriber walks the slow-consumer ladder to eviction without punishing
its co-subscribers; and cancelling the last subscription tears the
arrangement (and its change capture) down.
"""

import pytest

from repro import ClusterConfig, Environment
from repro.config import CostModel
from repro.continuous.delivery import (
    BATCH_DELTA,
    BATCH_EVICTED,
    TIER_COALESCED,
    TIER_DIGEST,
)
from repro.errors import SqlExecutionError
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

SQL = 'SELECT COUNT(*) AS n, SUM(count) AS events FROM "average"'
STAR = 'SELECT * FROM "average"'


def start(env, rate=2000, shared_plans=True, **job_kwargs):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=rate, **job_kwargs)
    service = QueryService(env, shared_plans=shared_plans)
    job.start()
    env.run_for(100)
    return job, service


# -- plan deduplication ------------------------------------------------------


def test_identical_subscriptions_share_one_plan(env):
    _job, service = start(env)
    subs = [service.subscribe(SQL) for _ in range(8)]
    env.run_for(500)
    continuous = env.continuous
    assert continuous.active_subscriptions == 8
    assert continuous.shared_plan_count == 1
    (plan,) = continuous.plans.values()
    assert plan.subscriber_count == 8
    assert all(sub.plan is plan for sub in subs)
    # One standing query maintained for all eight.
    assert continuous.arrangements["average"].reader_count == 1


def test_ablation_gives_every_subscription_a_private_plan(env):
    _job, service = start(env, shared_plans=False)
    [service.subscribe(SQL) for _ in range(8)]
    env.run_for(500)
    continuous = env.continuous
    assert continuous.shared_plan_count == 8
    assert continuous.arrangements["average"].reader_count == 8
    assert continuous.router.residual_filter_drops == 0


def test_plan_maintenance_charged_once_per_plan():
    """THE perf invariant: with sharing on, adding subscribers to one
    plan must not add standing-apply charges; the ablation pays per
    subscriber."""

    def run(n_subs, shared):
        env = Environment(
            ClusterConfig(nodes=3, processing_workers_per_node=2)
        )
        _job, service = start(env, shared_plans=shared)
        for _ in range(n_subs):
            service.subscribe(SQL)
        env.run_for(800)
        return env.continuous.plan_maintenance_ops

    ops_shared_1 = run(1, shared=True)
    ops_shared_8 = run(8, shared=True)
    ops_ablation_8 = run(8, shared=False)
    assert ops_shared_1 > 0
    # Identical deterministic runs: the shared plan applies each update
    # once however many subscribers attached.
    assert ops_shared_8 == ops_shared_1
    assert ops_ablation_8 == 8 * ops_shared_1


# -- residual routing end to end ---------------------------------------------


def test_residual_subscribers_share_plan_without_leakage(env):
    _job, service = start(env, limit_per_instance=400)
    views = {}
    delivered = {}

    def capture(key):
        def on_batch(_sub, batch):
            for entry in batch.entries:
                if entry["row"] is not None:
                    delivered.setdefault(key, []).append(entry["row"])
        return on_batch

    for key in (0, 1, 2, 3):
        views[key] = service.subscribe(
            f'SELECT * FROM "average" WHERE partitionKey = {key}',
            on_batch=capture(key),
        )
    env.run_for(2_000)  # sources exhaust; stream quiesces

    continuous = env.continuous
    # All four collapsed onto the unfiltered SELECT * plan.
    assert continuous.shared_plan_count == 1
    assert continuous.router.residual_filter_drops > 0
    # No cross-subscriber leakage: every row each subscriber ever
    # received carries its own partition key...
    for key, rows in delivered.items():
        assert rows
        assert all(row["partitionKey"] == key for row in rows)
    # ...and the quiesced views equal the table's ground truth.
    table = env.store.get_live_table("average")
    for key, sub in views.items():
        expected = [
            row for row in table.rows() if row["partitionKey"] == key
        ]
        assert sub.rows() == expected


def test_row_without_residual_column_matches_nothing_and_never_raises():
    env = Environment(ClusterConfig(nodes=2, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    table = LiveStateTable(imap)
    env.store.register_live_table("t", table)
    imap.put(1, {"tag": "a"})
    imap.put(2, {"other": 1})
    service = QueryService(env)
    tagged = service.subscribe("SELECT * FROM \"t\" WHERE tag = 'a'")
    star = service.subscribe('SELECT * FROM "t"')
    # The seed snapshot reads the row without ``tag`` as NULL — no
    # match, exactly as delta routing does — instead of raising from
    # the scheduled flush.
    env.run_for(50)
    assert [row["key"] for row in tagged.rows()] == [1]
    table.apply_update(3, {"other": 2})
    table.apply_update(1, {"other": 3})   # moves row 1 out of the bucket
    env.run_for(50)
    assert tagged.rows() == []
    assert len(star.rows()) == 3
    # The documented difference: the original WHERE raises.
    with pytest.raises(SqlExecutionError, match="unknown column 'tag'"):
        service.execute(tagged.sql)


@pytest.mark.parametrize("shared", [True, False])
def test_an_equality_written_first_stays_in_the_shared_plan(shared):
    """``u = 1`` written before ``v < 5`` decides first: the row
    ``{u: 2, v: 'x'}`` leaves at it and never compares ``'x'`` with 5.
    Pulled out into the residual, it would leave ``v < 5`` to meet that
    row in the shared plan and raise."""
    env = Environment(ClusterConfig(nodes=2, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    imap.put(1, {"u": 1, "v": 2})
    imap.put(2, {"u": 2, "v": "x"})
    service = QueryService(env, shared_plans=shared)
    sql = 'SELECT * FROM "t" WHERE u = 1 AND v < 5'
    expected = service.execute(sql).result.rows
    subscription = service.subscribe(sql)
    env.run_for(50)
    assert subscription.active
    assert subscription.rows() == expected == [
        {"u": 1, "v": 2, "partitionKey": 1, "key": 1}]


def test_mixed_residuals_join_the_unfiltered_plan(env):
    _job, service = start(env)
    plain = service.subscribe(STAR)
    filtered = service.subscribe(
        'SELECT * FROM "average" WHERE partitionKey = 5'
    )
    env.run_for(400)
    assert env.continuous.shared_plan_count == 1
    assert plain.plan is filtered.plan
    assert len(plain.rows()) > len(filtered.rows()) == 1


# -- arrangement teardown (leak regression) ----------------------------------


def test_last_unsubscribe_releases_arrangement_and_capture(env):
    _job, service = start(env)
    table = env.store.get_live_table("average")
    first = service.subscribe(SQL)
    env.run_for(200)
    continuous = env.continuous
    assert "average" in continuous.arrangements
    assert table._capture is continuous.recorder

    continuous.unsubscribe(first)
    # The whole chain is torn down: plan, arrangement, change capture.
    assert continuous.plans == {}
    assert continuous.arrangements == {}
    assert table._capture is None

    # Re-subscribing rebuilds cleanly from the current table state.
    second = service.subscribe(SQL)
    env.run_for(300)
    assert "average" in continuous.arrangements
    assert table._capture is continuous.recorder
    assert second.deltas_received > 0
    assert second.rows()[0]["n"] == len(table)
    maintained = second.standing.current_rows()[0]["n"]
    assert maintained == len(table)


# -- delivery tiers ----------------------------------------------------------


def test_coalesced_tier_merges_hot_keys(env):
    _job, service = start(env, rate=4000, limit_per_instance=2000)
    realtime = service.subscribe(STAR)
    coalesced = service.subscribe(STAR, tier=TIER_COALESCED)
    env.run_for(3_000)
    # Same shared plan, same final view...
    assert realtime.plan is coalesced.plan
    assert coalesced.rows() == realtime.rows()
    # ...but the coalesced tier folded repeated per-key updates into
    # far fewer shipped entries and batches.
    assert coalesced.entries_merged > 0
    assert coalesced.deltas_received < realtime.deltas_received
    assert coalesced.batches_received < realtime.batches_received


def test_digest_tier_snapshots_on_a_clock(env):
    _job, service = start(env, rate=4000, limit_per_instance=2000)
    digest = service.subscribe(STAR, tier=TIER_DIGEST)
    realtime = service.subscribe(STAR)
    env.run_for(3_000)
    # Digest subscribers never receive deltas — only periodic
    # residual-filtered snapshots, at most one per digest interval.
    assert digest.deltas_received == 0
    assert digest.snapshots_received > 1
    horizon = 3_000
    ceiling = horizon / env.costs.push_digest_interval_ms + 2
    assert digest.batches_received <= ceiling
    assert digest.batches_received < realtime.batches_received
    # The quiesced digest still converges to the true result.
    assert digest.rows() == realtime.rows()


# -- slow-consumer eviction --------------------------------------------------


def test_never_draining_subscriber_is_coalesced_then_evicted():
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2),
        costs=CostModel(push_evict_stalled_after_ms=300.0),
    )
    _job, service = start(env, rate=4000)
    kinds = []
    # Acks arrive every 1000 ms — far slower than the 300 ms stall
    # deadline, so the window never drains in time.
    slow = service.subscribe(
        SQL, max_outstanding=1, consume_ms=1_000.0,
        on_batch=lambda _s, batch: kinds.append(batch.kind),
    )
    fast = service.subscribe(SQL)

    samples = []

    def sample():
        samples.append(len(slow.pending))
        if env.sim.now < 2_500:
            env.sim.schedule(10.0, sample)

    env.sim.schedule(10.0, sample)
    env.run_for(2_500)

    # Ladder step 1 first (deltas coalesced away), then step 2: evicted
    # with a terminal batch the client actually observes.
    assert slow.batches_coalesced > 0
    assert slow.evicted
    assert not slow.active
    assert kinds[-1] == BATCH_EVICTED
    assert env.continuous.slow_consumers_evicted == 1
    assert slow.id not in env.continuous.subscriptions
    # No unbounded queue growth at any sampled instant.
    assert max(samples) <= env.costs.push_max_pending_deltas
    assert slow.pending == []
    # The co-subscriber kept its realtime stream the whole time.
    assert fast.active
    assert not fast.evicted
    assert fast.batches_coalesced == 0
    assert fast.deltas_received > 100


def test_acking_subscriber_is_never_evicted(env):
    _job, service = start(env, rate=4000)
    # Slow but draining: each ack clears the stall countdown.
    slow = service.subscribe(SQL, max_outstanding=2, consume_ms=80.0)
    env.run_for(3_000)
    assert slow.active
    assert not slow.evicted
    assert env.continuous.slow_consumers_evicted == 0


# -- explain -----------------------------------------------------------------


def test_explain_subscription_reports_shared_plan_decision(env):
    _job, service = start(env)
    sql = 'SELECT * FROM "average" WHERE partitionKey = 7'
    text = service.explain_subscription(sql)
    assert "path: incremental-filter-project" in text
    assert "shared plans: on" in text
    assert "residual filter: partitionKey = 7" in text
    assert "plan: creates a new shared plan" in text

    service.subscribe(STAR)
    joined = service.explain_subscription(sql)
    assert "plan: joins shared plan" in joined
    assert "(1 subscriber)" in joined


def test_explain_subscription_ablation_reports_private_plan(env):
    _job, service = start(env, shared_plans=False)
    text = service.explain_subscription(
        'SELECT * FROM "average" WHERE partitionKey = 7'
    )
    assert "shared plans: off" in text
    assert "residual filter: none" in text
    assert "plan: private (ablation: dedup disabled)" in text


def test_subscription_explain_renders_plan_and_tier(env):
    _job, service = start(env)
    service.subscribe(STAR)
    sub = service.subscribe(
        'SELECT * FROM "average" WHERE partitionKey = 3',
        tier=TIER_COALESCED,
    )
    text = sub.explain()
    assert f"shared plan: {sub.plan.fingerprint} (2 subscribers)" in text
    assert "residual filter: partitionKey = 3" in text
    assert "delivery tier: coalesced" in text
