"""Count-based guard on what a distributed join spends per row.

Modelled on ``tests/sql/test_statement_frame_budget.py``: on each of the
``join_orders`` benchmark's statement shapes (co-partitioned, broadcast
and shuffle-hash) the join pipeline reads its inputs as the column
batches the shards shipped, and the entry node's final stage reads the
joined rows' columns by position.  Nothing binds an input row or merges
a matched pair into a dict, and nothing of the pipeline, its data plane
or the final stage runs once per joined row: the only dicts shaped are
the groups' representatives and the output rows.  Counting frames
repeats exactly; timing would not.
"""

import random
import sys
from collections import Counter

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService, joins
from repro.sql import batch, executor, join
from repro.state.live import LiveStateTable

from ..properties.test_join_properties import forced

ORDERS = 2_000
NODES = 8
#: Frames the join pipeline, its data plane and the final stage may
#: spend: a fixed number per pair of nodes (a shuffle bills every
#: sender-worker pair) and per output group, never one per row.
SLACK = 8 * NODES ** 2
#: Python functions that bind, merge or shape one row each, and the
#: per-row closures of a row-at-a-time final stage.
PER_ROW = ("bind_row", "_merged", "project", "columns", "row", "rows",
           "value_to_columns", "live_row", "group_key", "add", "order_key",
           "predicate")

STATEMENTS = {
    "copartitioned": (
        'SELECT o.deliveryZone, COUNT(*) AS n FROM "orderinfo" AS o '
        'JOIN "orderstate" AS s USING (partitionKey) '
        "WHERE s.orderState = 'VENDOR_ACCEPTED' "
        "GROUP BY o.deliveryZone ORDER BY o.deliveryZone"),
    "broadcast": (
        'SELECT o.partitionKey, o.amount, z.region FROM "orderinfo" AS o '
        'JOIN "zones" AS z ON o.deliveryZone = z.zoneId '
        "ORDER BY o.partitionKey"),
    "shuffle": (
        'SELECT r.tier, COUNT(*) AS n FROM "orderstate" AS s '
        'JOIN "riders" AS r ON s.riderId = r.riderId '
        "GROUP BY r.tier ORDER BY r.tier"),
}


def orders_environment():
    """``join_orders``' tables at a smaller size: order info and order
    state keyed by order, three delivery zones, riders keyed by slot."""
    rng = random.Random(11)
    riders = ORDERS // 4
    rider_ids = rng.sample(range(riders), riders)
    tables = {
        "orderinfo": {key: {"deliveryZone": rng.randrange(60),
                            "vendorCategory": rng.randrange(9),
                            "amount": rng.randrange(500)}
                      for key in range(ORDERS)},
        "orderstate": {key: {"orderState": rng.choice(
                                 ["VENDOR_ACCEPTED", "NEW", "DONE"]),
                             "riderId": rng.randrange(riders)}
                       for key in range(ORDERS)},
        "zones": {zone: {"zoneId": zone_id,
                         "region": ("east", "west")[zone % 2]}
                  for zone, zone_id in enumerate(rng.sample(range(60), 3))},
        "riders": {slot: {"riderId": rider_ids[slot],
                          "tier": rng.randrange(5)}
                   for slot in range(riders)},
    }
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    for name, data in tables.items():
        imap = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(imap))
        for key, value in data.items():
            imap.put(key, value)
    return env, tables


def joined_rows(tables, strategy) -> int:
    """How many rows the join emits, counted in plain Python."""
    info, state = tables["orderinfo"], tables["orderstate"]
    if strategy == "copartitioned":
        return sum(1 for key, row in state.items()
                   if row["orderState"] == "VENDOR_ACCEPTED"
                   and key in info)
    if strategy == "broadcast":
        zones = Counter(zone["zoneId"] for zone in tables["zones"].values())
        return sum(zones[row["deliveryZone"]] for row in info.values())
    riders = Counter(rider["riderId"] for rider in tables["riders"].values())
    return sum(riders[row["riderId"]] for row in state.values())


def statement_calls(service, sql):
    """Python frames the statement enters from submission to its result,
    by module and function name."""
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls[code.co_filename, code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        execution = service.execute(sql)
    finally:
        sys.setprofile(previous)
    return execution, calls


@pytest.mark.parametrize("strategy", list(STATEMENTS))
def test_join_shapes_one_dict_per_output_row(monkeypatch, strategy):
    env, tables = orders_environment()
    with forced(monkeypatch, strategy):
        service = QueryService(env)
        service.execute(STATEMENTS[strategy])  # warm the caches
        execution, calls = statement_calls(service, STATEMENTS[strategy])
    assert execution.join_strategies == [strategy]
    names = Counter()
    for (_module, name), count in calls.items():
        names[name] += count
    assert [name for name in PER_ROW if names[name]] == []
    assert calls[join.__file__, "gather"] == 0  # merged rows: SELECT * only
    rows = execution.result.rows
    assert joined_rows(tables, strategy) > NODES
    # One dict per output row, each its own; a GROUP BY statement also
    # shapes one representative per group, and its groups are its rows.
    assert len({id(row) for row in rows}) == len(rows) > 0
    assert names["_group_of"] == (0 if strategy == "broadcast"
                                  else len(rows))
    # No frame of the pipeline, its data plane or the final stage runs
    # once per joined row.
    stage = Counter({name: count for (module, name), count
                     in calls.items()
                     if module in (joins.__file__, join.__file__,
                                   batch.__file__, executor.__file__)})
    assert sum(stage.values()) <= SLACK, stage.most_common(5)
