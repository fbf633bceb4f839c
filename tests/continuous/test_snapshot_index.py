"""Snapshot payloads read the residual-keyed index of published rows.

Two guards on ``SharedPlan.published_rows``:

* **Differential.**  Over the scenarios of ``test_view_oracle.py``,
  every snapshot-shaped payload (seed, coalesce-to-snapshot, digest and
  rollback) equals the reference sweep — the plan's published rows run
  through the subscriber's compiled residual predicate, the way
  snapshots used to be built — entry for entry, in the same order, with
  the same key/row shape, and every row a copy.
* **Count budget**, in the style of
  ``tests/sql/test_statement_frame_budget.py``: a subscribe plus its
  seed snapshot on a plan with P published rows and a bucket of b rows
  compiles and evaluates no predicate, copies exactly b rows, and builds
  the bucket map once per residual group, not once per subscriber.
  Counting frames repeats exactly; timing would not.
"""

import sys
from collections import Counter

import pytest

from repro import ClusterConfig, Environment
from repro.continuous import router as router_module
from repro.continuous.delivery import (
    BATCH_ROLLBACK,
    BATCH_SNAPSHOT,
    TIER_DIGEST,
)
from repro.continuous.service import ContinuousQueryService
from repro.query import QueryService
from repro.sql import compiled
from repro.sql.compiled import EvalContext, compile_predicate
from repro.state.live import LiveStateTable

from .test_view_oracle import run_kill_scenario, run_table_scenario


def reference_sweep(subscription, now_ms: float) -> list[dict]:
    """Every published row of the plan through the subscriber's compiled
    residual predicate, in published order (the pre-index algorithm)."""
    published = subscription.plan.standing.published
    canonical = subscription.canonical
    if not canonical.has_residual:
        return [{"key": key, "row": dict(row)}
                for key, row in published.items()]
    predicate = compile_predicate(canonical.residual,
                                  canonical.statement.table.binding)
    context = EvalContext(now_ms=now_ms)
    return [{"key": key, "row": dict(row)}
            for key, row in published.items() if predicate(row, context)]


def shape(entries: list[dict]) -> list:
    """Entries with their dict key order made visible."""
    return [(list(entry), entry["key"], list(entry["row"].items()))
            for entry in entries]


@pytest.fixture
def payloads(monkeypatch):
    """Check every snapshot-shaped payload against the reference sweep
    as it is sent; returns the payload kinds seen."""
    seen: Counter = Counter()
    send = ContinuousQueryService._send

    def checked_send(self, subscription, kind, entries, ssid=None):
        if kind in (BATCH_SNAPSHOT, BATCH_ROLLBACK):
            expected = reference_sweep(subscription, self.sim.now)
            assert shape(entries) == shape(expected)
            published = subscription.plan.standing.published
            assert all(entry["row"] is not published[entry["key"]]
                       for entry in entries)
            if kind == BATCH_ROLLBACK:
                label = "rollback"
            elif subscription.seq == 0:
                label = "seed"
            elif subscription.tier == TIER_DIGEST:
                label = "digest"
            else:
                label = "coalesce"
            seen[label] += 1
            seen[label, subscription.canonical.has_residual] += 1
        return send(self, subscription, kind, entries, ssid)

    monkeypatch.setattr(ContinuousQueryService, "_send", checked_send)
    return seen


ROWS = 200
GROUPS = 10
BUCKET = ROWS // GROUPS


def small_table_env():
    """Table ``m``: ROWS rows, ``g = key % GROUPS``."""
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("m")
    table = LiveStateTable(imap)
    env.store.register_live_table("m", table)
    for key in range(ROWS):
        imap.put(key, {"g": key % GROUPS, "v": key})
    return env, table


@pytest.mark.parametrize("seed", [3, 11])
def test_table_snapshots_equal_reference_sweep(payloads, seed):
    run_table_scenario(seed)
    for label in ("seed", "digest", "coalesce"):
        assert payloads[label, True] > 0, label


def test_rollback_snapshots_equal_reference_sweep(payloads):
    run_kill_scenario()
    for label in ("seed", "digest", "coalesce", "rollback"):
        assert payloads[label, True] > 0, label


def test_rollback_to_empty_state_empties_the_bucket(payloads):
    # The bucket map was last read at the seed; recovery then restores
    # every partition to nothing, so the rebuilt plan publishes no rows
    # and emits no entry — the rebuild alone must invalidate the map.
    env, table = small_table_env()
    sub = QueryService(env).subscribe('SELECT * FROM "m" WHERE g = 3')
    env.run_for(20.0)
    assert len(sub.rows()) == BUCKET
    for partition in sorted({table.partition_of_key(key)
                             for key in range(ROWS)}):
        table.replace_partition(partition, {})
    env.continuous.on_rollback_recovery(None)
    env.run_for(20.0)
    assert payloads["rollback", True] == 1
    assert sub.rollbacks_received == 1
    assert sub.rows() == []


# -- count budget -------------------------------------------------------------


def python_calls(function):
    """Code objects of the Python frames entered while ``function()``
    runs."""
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


ROW_VALUES = router_module._ResidualGroup.row_values.__code__


def compiled_frames(calls) -> int:
    return sum(count for code, count in calls.items()
               if code.co_filename == compiled.__file__)


def test_subscribe_and_seed_read_one_bucket():
    env, table = small_table_env()
    service = QueryService(env)
    # The plan exists and is seeded before anything is counted.
    service.subscribe('SELECT * FROM "m"')
    env.run_for(20.0)
    (plan,) = env.continuous.plans.values()
    published = plan.standing.published
    assert len(published) == ROWS

    seeds: dict[int, list] = {}

    def subscribe_and_seed(group):
        def run():
            sub = service.subscribe(
                f'SELECT * FROM "m" WHERE g = {group}',
                on_batch=lambda s, batch: seeds.setdefault(
                    s.id, batch.entries))
            env.run_for(20.0)
            seeds[group] = seeds.pop(sub.id)
        return run

    first = python_calls(subscribe_and_seed(3))
    # No predicate compiled or evaluated; one pass over P rows builds
    # the group's bucket map; the snapshot copies exactly its b rows.
    assert compiled_frames(first) == 0
    assert first[ROW_VALUES] == ROWS
    assert len(seeds[3]) == BUCKET
    for entry in seeds[3]:
        assert entry["row"] == published[entry["key"]]
        assert entry["row"] is not published[entry["key"]]
        assert entry["row"]["g"] == 3

    # More subscribers of the same group: the map is reused, not rebuilt.
    for group in (4, 5, 3):
        again = python_calls(subscribe_and_seed(group))
        assert compiled_frames(again) == 0
        assert again[ROW_VALUES] == 0
        assert len(seeds[group]) == BUCKET

    # A change invalidates the map: routing the delta reads two value
    # tuples (previous and new row), the next seed rebuilds once.
    def move_then_seed():
        table.apply_update(0, {"g": 4, "v": -1})
        subscribe_and_seed(4)()

    after = python_calls(move_then_seed)
    assert after[ROW_VALUES] == 2 + ROWS
    assert len(seeds[4]) == BUCKET + 1
