"""Fan-out equivalence properties: sharing must be invisible.

Plan deduplication is a pure optimisation: for any subscription mix —
unfiltered, residual-filtered, aggregate, every delivery tier — the
rows each subscriber ends up with must be bit-identical with
``shared_plans`` on and off, including under seeded chaos kills with
rollback notifications.  And routing must never leak another
subscriber's rows through a residual filter.

Seeds are fixed so CI is deterministic and failures reproduce exactly.
"""

import random

import pytest

from repro import Environment
from repro.chaos import ChaosHarness
from repro.config import ClusterConfig
from repro.continuous.delivery import TIER_COALESCED, TIER_DIGEST
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

KEYS = 30

#: name -> (sql, subscribe kwargs): a deliberately mixed population —
#: four of these collapse onto ONE shared plan when sharing is on.
SUBSCRIPTIONS = {
    "star": ('SELECT * FROM "average"', {}),
    "key3": ('SELECT * FROM "average" WHERE partitionKey = 3', {}),
    "key7": ('SELECT * FROM "average" WHERE partitionKey = 7',
             {"tier": TIER_COALESCED}),
    "digest": ('SELECT * FROM "average"', {"tier": TIER_DIGEST}),
    "agg": ('SELECT COUNT(*) AS n, SUM(count) AS events FROM "average"',
            {}),
}

RESIDUAL_KEY = {"key3": 3, "key7": 7}


def run_scenario(shared: bool, chaos_seed: int | None = None):
    """One deterministic bounded run; returns (env, subs, delivered)."""
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=2)
    )
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=3000, keys=KEYS,
                            parallelism=3, checkpoint_interval_ms=500,
                            limit_per_instance=1500)
    service = QueryService(env, shared_plans=shared)
    job.start()
    env.run_for(200)

    delivered: dict[str, list] = {name: [] for name in SUBSCRIPTIONS}

    def capture(name):
        def on_batch(_sub, batch):
            delivered[name].append((batch.kind, [
                dict(entry["row"]) for entry in batch.entries
                if entry["row"] is not None
            ]))
        return on_batch

    subs = {
        name: service.subscribe(sql, on_batch=capture(name), **kwargs)
        for name, (sql, kwargs) in SUBSCRIPTIONS.items()
    }
    if chaos_seed is not None:
        chaos = ChaosHarness(env, seed=chaos_seed)
        chaos.plan_random(horizon_ms=2_500.0, kills=2,
                          restart_after_ms=400.0)
        env.run_for(7_000)  # sources exhaust + replay + quiesce
        assert chaos.kills_executed >= 1
    else:
        env.run_for(4_000)  # sources exhaust + quiesce
    return env, subs, delivered


def final_views(subs) -> dict[str, list[str]]:
    """Order-independent canonical form of each subscriber's view."""
    return {
        name: sorted(map(repr, sub.rows()))
        for name, sub in subs.items()
    }


def assert_no_leakage(delivered) -> None:
    """Every row a residual subscriber ever received — delta, snapshot,
    or rollback — satisfies its own residual predicate."""
    for name, key in RESIDUAL_KEY.items():
        rows = [row for _kind, batch in delivered[name] for row in batch]
        assert rows, name
        for row in rows:
            assert row["partitionKey"] == key, (name, row)


def assert_views_match_table(env, subs) -> None:
    table = env.store.get_live_table("average")
    truth = sorted(map(repr, table.rows()))
    assert final_views({"star": subs["star"]})["star"] == truth
    assert final_views({"digest": subs["digest"]})["digest"] == truth
    assert subs["agg"].rows() == [{
        "n": len(table),
        "events": sum(row["count"] for row in table.rows()),
    }]


def test_shared_on_off_views_bit_identical():
    env_on, subs_on, delivered_on = run_scenario(shared=True)
    env_off, subs_off, delivered_off = run_scenario(shared=False)

    # The dedup actually engaged: 5 subscriptions, 2 maintained plans
    # (the four SELECT-* shapes collapse; the aggregate stands alone).
    assert env_on.continuous.shared_plan_count == 2
    assert env_off.continuous.shared_plan_count == 5
    assert env_on.continuous.router.residual_filter_drops > 0

    assert final_views(subs_on) == final_views(subs_off)
    assert_views_match_table(env_on, subs_on)
    assert_views_match_table(env_off, subs_off)
    assert_no_leakage(delivered_on)
    assert_no_leakage(delivered_off)


#: Residual literals spelling the ``repr`` of the non-scalar tags below.
TAG_SUBSCRIPTIONS = {
    "list": "SELECT * FROM \"tags\" WHERE tag = '[1]'",
    "dict": "SELECT * FROM \"tags\" WHERE tag = '{''a'': 1}'",
    "set": "SELECT * FROM \"tags\" WHERE tag = '{1}'",
    "star": 'SELECT * FROM "tags"',
}


def run_tag_scenario(shared: bool, seed: int):
    """Seeded writes moving rows among scalar tags and non-scalar tags
    whose ``repr`` equals another subscriber's literal."""
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("tags")
    table = LiveStateTable(imap)
    env.store.register_live_table("tags", table)
    rng = random.Random(seed)

    def tag():
        return rng.choice(("[1]", [1], "{'a': 1}", {"a": 1}, "{1}", {1},
                           "x"))

    for key in range(KEYS):
        imap.put(key, {"tag": tag()})
    service = QueryService(env, shared_plans=shared)
    subs = {name: service.subscribe(sql)
            for name, sql in TAG_SUBSCRIPTIONS.items()}
    for _ in range(200):
        table.apply_update(rng.randrange(KEYS), {"tag": tag()})
        env.run_for(rng.choice((0.0, 1.0, 4.0)))
    env.run_for(200)
    return service, subs


@pytest.mark.parametrize("seed", [1, 7])
def test_shared_on_off_identical_for_non_scalar_residual_values(seed):
    service_on, subs_on = run_tag_scenario(shared=True, seed=seed)
    service_off, subs_off = run_tag_scenario(shared=False, seed=seed)
    assert final_views(subs_on) == final_views(subs_off)

    def unordered(rows):
        return sorted(repr(sorted(row.items())) for row in rows)

    for name, sub in subs_on.items():
        fresh = service_on.execute(sub.sql).result.rows
        assert unordered(sub.rows()) == unordered(fresh), name
        if name != "star":
            assert all(isinstance(row["tag"], str) for row in sub.rows())


@pytest.mark.parametrize("seed", [5, 17])
def test_shared_on_off_identical_under_chaos(seed):
    env_on, subs_on, delivered_on = run_scenario(shared=True,
                                                 chaos_seed=seed)
    env_off, subs_off, delivered_off = run_scenario(shared=False,
                                                    chaos_seed=seed)

    # Whatever interleaving the seed produced, recovery notified every
    # surviving subscriber in both modes...
    for subs in (subs_on, subs_off):
        for name, sub in subs.items():
            assert sub.active, name
            assert sub.rollbacks_received >= 1, name

    # ...and the delivered end states are still bit-identical.
    assert final_views(subs_on) == final_views(subs_off)
    assert_views_match_table(env_on, subs_on)
    assert_views_match_table(env_off, subs_off)
    assert_no_leakage(delivered_on)
    assert_no_leakage(delivered_off)
