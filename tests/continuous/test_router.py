"""The subscription router: hash-routed residual fan-out.

Acceptance: one shared plan's delta stream reaches exactly the
subscribers whose residual matches — O(matching) deliveries per delta,
with synthesized retractions when an update moves a row across residual
buckets, and drops counted for every non-matching group subscriber.
"""

from dataclasses import dataclass, field

from repro import ClusterConfig, Environment
from repro.continuous.delivery import TIER_DIGEST, TIER_REALTIME
from repro.continuous.plans import canonicalize
from repro.continuous.router import SharedPlan, SubscriptionRouter
from repro.query import QueryService
from repro.sql import parse
from repro.state.live import LiveStateTable

from .test_plans import FakeStore


@dataclass
class FakeSubscription:
    id: int
    received: list = field(default_factory=list)


def make_plan(sql='SELECT * FROM "orders"'):
    canonical = canonicalize(parse(sql), FakeStore(),
                             extract_residual=False)
    return SharedPlan(canonical.fingerprint, canonical, sql, standing=None)


def attach(router, plan, sub_id, sql):
    canonical = canonicalize(parse(sql), FakeStore())
    subscription = FakeSubscription(sub_id)
    router.attach(plan, subscription, canonical)
    return subscription, canonical


def make_router():
    log = []
    def deliver(subscriptions, entry):
        for subscription in subscriptions:
            subscription.received.append(entry)

    router = SubscriptionRouter(deliver)
    return router, log


def upsert(key, row):
    return {"action": "upsert", "key": key, "row": row}


def delete(key):
    return {"action": "delete", "key": key, "row": None}


def test_unfiltered_subscribers_receive_everything():
    router, _ = make_router()
    plan = make_plan()
    a, _ = attach(router, plan, 1, 'SELECT * FROM "orders"')
    b, _ = attach(router, plan, 2, 'SELECT * FROM "orders"')
    entry = upsert("k", {"zone": "n", "amount": 5})
    router.route(plan, [entry], prev_row=None)
    assert a.received == [entry]
    assert b.received == [entry]
    assert router.deltas_routed == 2
    assert router.residual_filter_drops == 0


def test_residual_routes_to_matching_bucket_only():
    router, _ = make_router()
    plan = make_plan()
    north, _ = attach(router, plan, 1,
                      'SELECT * FROM "orders" WHERE zone = \'n\'')
    south, _ = attach(router, plan, 2,
                      'SELECT * FROM "orders" WHERE zone = \'s\'')
    entry = upsert("k", {"zone": "n", "amount": 5})
    router.route(plan, [entry], prev_row=None)
    assert north.received == [entry]
    assert south.received == []
    assert router.deltas_routed == 1
    # south's group membership was skipped without evaluating anything.
    assert router.residual_filter_drops == 1


def test_move_synthesizes_retraction_for_old_bucket():
    router, _ = make_router()
    plan = make_plan()
    north, _ = attach(router, plan, 1,
                      'SELECT * FROM "orders" WHERE zone = \'n\'')
    south, _ = attach(router, plan, 2,
                      'SELECT * FROM "orders" WHERE zone = \'s\'')
    old_row = {"zone": "n", "amount": 5}
    new_row = {"zone": "s", "amount": 5}
    router.route(plan, [upsert("k", new_row)], prev_row=old_row)
    # south gains the row; north retracts it — exactly what their
    # private standing queries over the original WHERE would emit.
    assert south.received == [upsert("k", new_row)]
    assert north.received == [delete("k")]
    assert router.deltas_routed == 2


def test_update_within_bucket_does_not_retract():
    router, _ = make_router()
    plan = make_plan()
    north, _ = attach(router, plan, 1,
                      'SELECT * FROM "orders" WHERE zone = \'n\'')
    old_row = {"zone": "n", "amount": 5}
    new_row = {"zone": "n", "amount": 9}
    router.route(plan, [upsert("k", new_row)], prev_row=old_row)
    assert north.received == [upsert("k", new_row)]


def test_delete_routes_to_previous_owner():
    router, _ = make_router()
    plan = make_plan()
    north, _ = attach(router, plan, 1,
                      'SELECT * FROM "orders" WHERE zone = \'n\'')
    south, _ = attach(router, plan, 2,
                      'SELECT * FROM "orders" WHERE zone = \'s\'')
    prev = {"zone": "n", "amount": 5}
    router.route(plan, [delete("k")], prev_row=prev)
    assert north.received == [delete("k")]
    assert south.received == []


def test_multi_column_residual_requires_all_values():
    router, _ = make_router()
    plan = make_plan()
    both, _ = attach(
        router, plan, 1,
        'SELECT * FROM "orders" WHERE zone = \'n\' AND amount = 5')
    router.route(plan, [upsert("a", {"zone": "n", "amount": 5})],
                 prev_row=None)
    router.route(plan, [upsert("b", {"zone": "n", "amount": 6})],
                 prev_row=None)
    assert [e["key"] for e in both.received] == ["a"]


def test_numeric_bucket_coalescing_matches_sql_equality():
    router, _ = make_router()
    plan = make_plan()
    ints, _ = attach(router, plan, 1,
                     'SELECT * FROM "orders" WHERE amount = 1')
    # A float row value hash-routes into the integer bucket, exactly as
    # SQL `=` would compare them equal.
    router.route(plan, [upsert("k", {"zone": "n", "amount": 1.0})],
                 prev_row=None)
    assert len(ints.received) == 1


def test_list_dict_and_set_values_match_no_residual():
    router, _ = make_router()
    plan = make_plan()
    # Each literal spells the repr of a non-scalar value below.
    subs = [
        attach(router, plan, i, f'SELECT * FROM "orders" WHERE zone = {sql}')[0]
        for i, sql in enumerate(("'[1]'", "'{''a'': 1}'", "'{1}'"))
    ]
    for value in ([1], {"a": 1}, {1}):
        router.route(plan, [upsert("k", {"zone": value})], prev_row=None)
        router.route(plan, [delete("k")], prev_row={"zone": value})
    # A move from a scalar into a list retracts; nothing else arrives.
    router.route(plan, [upsert("k", {"zone": [1]})],
                 prev_row={"zone": "[1]"})
    assert subs[0].received == [delete("k")]
    assert subs[1].received == subs[2].received == []


def test_missing_residual_column_matches_nothing():
    router, _ = make_router()
    plan = make_plan()
    north, _ = attach(router, plan, 1,
                      'SELECT * FROM "orders" WHERE zone = \'n\'')
    router.route(plan, [upsert("k", {"amount": 5})], prev_row=None)
    assert north.received == []


@dataclass
class FakeStanding:
    published: dict
    version: int = 0


def test_published_rows_read_the_residual_bucket_in_published_order():
    router, _ = make_router()
    standing = FakeStanding({
        "a": {"zone": "n"}, "b": {"zone": "s"}, "c": {"zone": "n"},
        "d": {"zone": ["n"]}, "e": {"amount": 1}, "f": {"zone": "n"},
    })
    canonical = canonicalize(parse('SELECT * FROM "orders"'), FakeStore())
    plan = SharedPlan("p", canonical, 'SELECT * FROM "orders"', standing)
    _, north = attach(router, plan, 1,
                      'SELECT * FROM "orders" WHERE zone = \'n\'')
    _, south = attach(router, plan, 2,
                      'SELECT * FROM "orders" WHERE zone = \'s\'')
    _, plain = attach(router, plan, 3, 'SELECT * FROM "orders"')

    def keys(canonical):
        return [key for key, _row in plan.published_rows(canonical)]

    assert keys(north) == ["a", "c", "f"]
    assert keys(south) == ["b"]
    assert keys(plain) == ["a", "b", "c", "d", "e", "f"]
    group = plan.groups[("zone",)]
    built = group.rows_by_value
    assert keys(north) == ["a", "c", "f"]
    assert group.rows_by_value is built  # same version: not rebuilt
    # A new version (any change to ``published``) rebuilds on read.
    standing.published["b"] = {"zone": "n"}
    standing.version += 1
    assert keys(north) == ["a", "b", "c", "f"]
    assert keys(south) == []


def test_detach_removes_subscriber_and_empty_groups():
    router, _ = make_router()
    plan = make_plan()
    north, canonical = attach(router, plan, 1,
                              'SELECT * FROM "orders" WHERE zone = \'n\'')
    assert plan.subscriber_count == 1
    assert plan.groups
    router.detach(plan, north, canonical)
    assert plan.subscriber_count == 0
    assert not plan.groups
    router.route(plan, [upsert("k", {"zone": "n"})], prev_row=None)
    assert north.received == []


def test_route_all_reaches_every_subscriber():
    router, _ = make_router()
    plan = make_plan()
    subs = [attach(router, plan, i, 'SELECT * FROM "orders"')[0]
            for i in range(3)]
    entry = upsert("k", {"zone": "n"})
    router.route_all(plan, [entry])
    for subscription in subs:
        assert subscription.received == [entry]
    assert router.deltas_routed == 3


def test_one_bucket_walks_each_subscriber_down_its_own_ladder_step():
    """The service's sink takes a whole bucket; each subscriber in it
    gets what a call for it alone gives: an inactive one nothing, a
    digest one a dirty digest, one owed a snapshot a counted drop, one
    whose pending queue is full a coalesce to snapshot, and the rest
    the entry itself."""
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    imap.put(1, {"g": 1, "v": 0})
    service = QueryService(env)
    sql = 'SELECT * FROM "t" WHERE g = 1'
    inactive, digest, owed, full, plain = (
        service.subscribe(sql, tier=TIER_DIGEST if name == "digest"
                          else TIER_REALTIME)
        for name in ("inactive", "digest", "owed", "full", "plain"))
    env.run_for(100.0)
    continuous = env.continuous
    plan = plain.plan
    assert plan.groups[("g",)].bucket((1,)) == [
        inactive, digest, owed, full, plain]
    limit = env.costs.push_max_pending_deltas
    inactive.active = False
    owed.needs_snapshot = True
    full.pending = [upsert("old", {"g": 1})] * limit
    coalesced = continuous.batches_coalesced
    entry = upsert(1, {"g": 1, "v": 5})
    continuous.router.route(plan, [entry], prev_row={"g": 1, "v": 0})

    assert continuous.router.deltas_routed == 5
    assert not inactive.pending and not inactive.flush_scheduled
    assert not inactive.digest_dirty
    assert digest.digest_dirty and digest.digest_scheduled
    assert not digest.pending and not digest.flush_scheduled
    assert owed.deltas_dropped == 1 and not owed.pending
    assert full.pending == [] and full.needs_snapshot
    assert full.deltas_dropped == limit + 1
    assert full.batches_coalesced == 1
    assert continuous.batches_coalesced == coalesced + 1
    assert plain.pending == [entry]
    assert [sub.flush_scheduled for sub in (owed, full, plain)] == [
        False, True, True]
    env.run_for(100.0)
    assert plain.view[1] == entry["row"]
    assert full.snapshots_received == 2
    assert inactive.view[1]["v"] == 0
