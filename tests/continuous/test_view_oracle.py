"""Continuous view oracle: every subscriber's view equals a fresh
``execute`` of its SQL after *every* drained step.

A step mutates state (inserts, updates, deletes and residual moves on a
hand-driven table; a streaming job with one node kill and rollback
recovery), then runs the simulator until no subscriber has anything
pending, owed or in flight.  At that point the pushed view must be what
a polling client would read, compared unordered.  The subscriber mix
covers unfiltered, single- and multi-column residual, projected and
aggregate plans on the realtime, coalesced and digest tiers, plus a
``max_outstanding=1`` subscriber that is forced to coalesce to a
snapshot.

``tests/continuous/test_snapshot_index.py`` runs the same scenarios to
check each snapshot-shaped payload against the reference sweep.
"""

import random

import pytest

from repro import ClusterConfig, Environment
from repro.continuous.delivery import TIER_COALESCED, TIER_DIGEST
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

GROUPS = 4
#: Tag values, including a list whose ``repr`` equals a string literal
#: a subscriber filters on: it must not match that subscriber.
TAGS = ("x", "y", [1], "[1]")
SLOW = {"max_outstanding": 1, "consume_ms": 15.0}

#: name -> (sql, subscribe kwargs) over the hand-driven table ``t``.
TABLE_SUBSCRIPTIONS = {
    "all": ('SELECT * FROM "t"', {}),
    "all_coalesced": ('SELECT * FROM "t"', {"tier": TIER_COALESCED}),
    "g1": ('SELECT * FROM "t" WHERE g = 1', {}),
    "g2_coalesced": ('SELECT * FROM "t" WHERE g = 2',
                     {"tier": TIER_COALESCED}),
    "g0_digest": ('SELECT * FROM "t" WHERE g = 0', {"tier": TIER_DIGEST}),
    "g1_x": ("SELECT * FROM \"t\" WHERE h = 'x' AND g = 1", {}),
    "g3_y_digest": ("SELECT * FROM \"t\" WHERE g = 3 AND h = 'y'",
                    {"tier": TIER_DIGEST}),
    "list_tag": ("SELECT * FROM \"t\" WHERE h = '[1]'", {}),
    "projected": ('SELECT key, g, v FROM "t" WHERE v > 50 AND g = 2', {}),
    "slow": ('SELECT * FROM "t" WHERE g = 1', SLOW),
    "agg": ('SELECT g, COUNT(*) AS c, SUM(v) AS s FROM "t" GROUP BY g',
            {}),
}

#: name -> (sql, subscribe kwargs) over the streaming job's ``average``.
JOB_SUBSCRIPTIONS = {
    "star": ('SELECT * FROM "average"', {}),
    "key3": ('SELECT * FROM "average" WHERE partitionKey = 3', {}),
    "key7_coalesced": ('SELECT * FROM "average" WHERE partitionKey = 7',
                       {"tier": TIER_COALESCED}),
    "key5_digest": ('SELECT * FROM "average" WHERE partitionKey = 5',
                    {"tier": TIER_DIGEST}),
    "key4_both": ('SELECT * FROM "average" '
                  'WHERE key = 4 AND partitionKey = 4', {}),
    "key3_slow": ('SELECT * FROM "average" WHERE partitionKey = 3', SLOW),
    "agg": ('SELECT COUNT(*) AS n, SUM(count) AS events FROM "average"',
            {}),
}


def canonical(rows) -> list[str]:
    """Order-independent form of a row list."""
    return sorted(repr(sorted(row.items())) for row in rows)


def quiescent(continuous) -> bool:
    """No subscriber has anything pending, owed or in flight."""
    for sub in continuous.subscriptions.values():
        if (sub.pending or sub.outstanding or sub.needs_snapshot
                or sub.digest_dirty or sub.needs_rollback_ssid is not None):
            return False
    return not any(plan.standing.needs_rebuild
                   for plan in continuous.plans.values())


def drain(env, limit_ms: float = 3_000.0) -> None:
    waited = 0.0
    while True:
        env.run_for(5.0)
        waited += 5.0
        if quiescent(env.continuous):
            return
        assert waited < limit_ms, "subscriptions never drained"


def fresh_views(service, subs) -> dict[str, list[str]]:
    by_sql: dict[str, list[str]] = {}
    for sub in subs.values():
        if sub.sql not in by_sql:
            by_sql[sub.sql] = canonical(service.execute(sub.sql).result.rows)
    return {name: by_sql[sub.sql] for name, sub in subs.items()}


def assert_views_fresh(service, subs, label) -> None:
    fresh = fresh_views(service, subs)
    for name, sub in subs.items():
        assert sub.active, (label, name)
        assert canonical(sub.rows()) == fresh[name], (label, name)


def subscribe_all(service, population) -> dict:
    return {
        name: service.subscribe(sql, **kwargs)
        for name, (sql, kwargs) in population.items()
    }


# -- hand-driven table -------------------------------------------------------


def random_value(rng) -> dict:
    return {"g": rng.randrange(GROUPS), "h": rng.choice(TAGS),
            "v": rng.randrange(100)}


def mutate(env, table, data: dict, rng) -> None:
    """A burst of inserts, updates, deletes and residual moves, spread
    over a few virtual ms so deltas race the delivery window."""
    for _ in range(rng.randrange(1, 12)):
        roll = rng.random()
        if roll < 0.25 or not data:
            key = max(data, default=-1) + 1
            data[key] = random_value(rng)
        elif roll < 0.85:
            key = rng.choice(sorted(data))
            value = dict(data[key])
            if roll < 0.55:
                value["v"] = rng.randrange(100)      # same residual
            else:
                moved = random_value(rng)            # residual move
                value["g"], value["h"] = moved["g"], moved["h"]
            data[key] = value
        else:
            key = rng.choice(sorted(data))
            del data[key]
        table.apply_update(key, data.get(key))
        env.run_for(rng.choice((0.0, 0.5, 3.0)))


def run_table_scenario(seed: int, shared: bool = True, steps: int = 25,
                       check=None, population=TABLE_SUBSCRIPTIONS):
    """Seeded mutation steps over table ``t``; ``check(service, subs,
    label)`` runs after every drained step (and after seeding)."""
    rng = random.Random(seed)
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    table = LiveStateTable(imap)
    env.store.register_live_table("t", table)
    data = {key: random_value(rng) for key in range(40)}
    for key, value in data.items():
        imap.put(key, dict(value))
    service = QueryService(env, shared_plans=shared)
    subs = subscribe_all(service, population)
    drain(env)
    if check is not None:
        check(service, subs, "seed")
    for index in range(steps):
        mutate(env, table, data, rng)
        drain(env)
        if check is not None:
            check(service, subs, f"step {index}")
    return env, subs


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])
@pytest.mark.parametrize("seed", [3, 11])
def test_table_views_equal_fresh_execute_after_every_step(seed, shared):
    env, subs = run_table_scenario(seed, shared, check=assert_views_fresh)
    # The scenario exercised what it claims to.
    assert subs["slow"].batches_coalesced > 0
    assert subs["slow"].snapshots_received > 1
    assert subs["g0_digest"].snapshots_received > 1
    assert subs["g0_digest"].deltas_received == 0
    assert subs["all_coalesced"].entries_merged > 0
    if shared:
        assert env.continuous.shared_plan_count == 3
        assert env.continuous.router.residual_filter_drops > 0


# -- float aggregates --------------------------------------------------------

#: name -> (sql, subscribe kwargs) over the hand-driven float table ``f``.
FLOAT_SUBSCRIPTIONS = {
    "grouped": ('SELECT g, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, '
                'MAX(v) AS hi, COUNT(v) AS n FROM "f" GROUP BY g', {}),
    "total": ('SELECT SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, '
              'MAX(v) AS hi FROM "f"', {"tier": TIER_COALESCED}),
}
#: Seed rows, then steps of key -> new value (``None`` deletes): a
#: large value beside small ones, a NaN, and the large value retracted.
FLOAT_SEED = {0: 1e16, 1: 1.0, 2: 0.1, 3: 0.1, 4: 0.2, 5: 2.5}
FLOAT_STEPS = [
    {0: None},
    {6: {"g": 0, "v": float("nan")}},
    {6: None, 7: {"g": 1, "v": -1e16}},
    {3: {"g": 1, "v": 1e16}},
    {3: None, 7: None},
    {8: {"g": 0, "v": float("inf")}, 2: None},
]


def test_float_aggregate_views_equal_fresh_execute_after_every_step():
    # One add per value would hold 1e16 + 1.0 + 0.1 as 1e16, and take
    # the 1e16 back to 0.0: the sum is held exactly, and rounded once.
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("f")
    table = LiveStateTable(imap)
    env.store.register_live_table("f", table)
    for key, value in FLOAT_SEED.items():
        imap.put(key, {"g": key // 3, "v": value})
    service = QueryService(env)
    subs = subscribe_all(service, FLOAT_SUBSCRIPTIONS)
    drain(env)
    assert_views_fresh(service, subs, "seed")
    for index, step in enumerate(FLOAT_STEPS):
        for key, value in step.items():
            table.apply_update(key, value)
        drain(env)
        assert_views_fresh(service, subs, f"step {index}")
        group = {row["g"]: row for row in subs["grouped"].rows()}[0]
        if index == 0:
            assert (group["s"], group["lo"], group["hi"]) == (1.1, 0.1, 1.0)
        if index == 1:
            assert group["hi"] != group["hi"]  # NaN ranks above all
            assert group["lo"] == 0.1


# -- streaming job with one kill ---------------------------------------------


def run_kill_scenario(shared: bool = True, check=None,
                      horizon_ms: float = 4_000.0, kill_at_ms: float = 600.0):
    """A bounded streaming job killed mid-stream; ``check`` runs after
    every step at which the stream is idle and the subscribers drained.
    Returns ``(env, job, subs, steps_checked_after_rollback)``."""
    env = Environment(ClusterConfig(nodes=4, processing_workers_per_node=2))
    job = build_average_job(env, backend=make_squery_backend(env),
                            rate=3000, keys=30, parallelism=3,
                            checkpoint_interval_ms=300,
                            limit_per_instance=900)
    service = QueryService(env, shared_plans=shared)
    job.start()
    env.run_for(200)
    subs = subscribe_all(service, JOB_SUBSCRIPTIONS)
    recorder = env.continuous.recorder
    checked_after_rollback = 0
    killed = False
    while env.sim.now < horizon_ms:
        env.run_for(50.0)
        if not killed and env.sim.now >= kill_at_ms:
            env.cluster.kill_node(1)
            killed = True
        if not quiescent(env.continuous):
            continue
        # Drained only if the stream itself is idle: no state change
        # while the fresh executes ran either.
        captured = recorder.changes_captured
        fresh = fresh_views(service, subs)
        if recorder.changes_captured != captured:
            continue
        if check is not None:
            check(service, subs, f"t={env.sim.now}", fresh)
        if all(sub.rollbacks_received for sub in subs.values()):
            checked_after_rollback += 1
    return env, job, subs, checked_after_rollback


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])
def test_views_equal_fresh_execute_across_kill_and_rollback(shared):
    def check(_service, subs, label, fresh):
        for name, sub in subs.items():
            assert sub.active, (label, name)
            assert canonical(sub.rows()) == fresh[name], (label, name)

    env, job, subs, checked = run_kill_scenario(shared, check=check)
    assert job.metrics.recoveries == 1
    for name, sub in subs.items():
        assert sub.rollbacks_received == 1, name
    # Recovery finished and the replayed stream went idle well before
    # the horizon, so many drained steps were compared after it.
    assert checked >= 10
    assert subs["key3_slow"].batches_coalesced > 0
