"""EXPLAIN names the read a query runs.

``QueryService.explain`` renders the decisions ``submit`` makes, made
by the same calls: the point keys, the pushdown plan, the sketch
answer, the join plan with the tables its index-nested-loop steps read
mid-join, and every shard's plan from ``_scan_selection``.  For each
statement shape — on a live and on a snapshot table, with pushdown on
and off, and every join strategy forced — the strategy the explanation
names must be the one the execution recorded.

An index-nested-loop build side is read as index-scan shards of the
query, so its rows are billed and counted like any other shard's.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from repro.state.live import LiveStateTable
from repro.state.snapshots import FullSnapshotTable

from ..properties.test_join_properties import STRATEGIES, forced

NODES = 4
PARTITIONS = 16
ORDERS = 3_000

#: ``explain``'s join line per strategy.
JOIN_LABELS = {
    "copartitioned": "co-partitioned hash join",
    "broadcast": "broadcast hash join",
    "shuffle": "shuffle-hash join",
    "index-nested-loop": "index-nested-loop join",
}


@pytest.fixture(scope="module")
def env():
    """``orders`` and ``dims``, live and as committed snapshot 1, with a
    hash index on ``orders.amount`` and ``dims.cust_id`` and an HLL
    sketch on ``orders.cust``."""
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1,
                                    partition_count=PARTITIONS))
    rows = {
        "orders": {key: {"cust": key % 40, "amount": key % 500,
                         "pad": key * 7 % 1_000}
                   for key in range(ORDERS)},
        "dims": {cust: {"cust_id": cust, "region": f"r{cust % 3}"}
                 for cust in range(40)},
    }
    snapshots = {}
    for name, values in rows.items():
        imap = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(imap))
        for key, value in values.items():
            imap.put(key, value)
        snapshots[name] = FullSnapshotTable(
            f"snapshot_{name}", PARTITIONS, lambda instance: instance % NODES
        )
        env.store.register_snapshot_table(f"snapshot_{name}",
                                          snapshots[name])
    for prefix in ("", "snapshot_"):
        env.store.create_index(prefix + "orders", "amount", "hash")
        env.store.create_index(prefix + "dims", "cust_id", "hash")
        env.store.create_sketch(prefix + "orders", "cust", "hll")
    env.store.begin_snapshot(1)
    for name, table in snapshots.items():
        for instance in range(PARTITIONS):
            table.write_instance(1, instance, {
                key: value for key, value in rows[name].items()
                if table.partition_of_key(key) == instance
            })
    env.store.commit_snapshot(1)
    return env


#: shape -> statement over ``{o}`` (orders) and ``{d}`` (dims)
SHAPES = {
    "point": 'SELECT amount FROM "{o}" WHERE key = 7',
    "in-point": 'SELECT amount FROM "{o}" WHERE key IN (1, 2, 3, 901)',
    "scan": 'SELECT key FROM "{o}" WHERE pad > 10',
    "index": 'SELECT key FROM "{o}" WHERE amount = 7',
    "sketch": 'SELECT APPROX COUNT(DISTINCT cust) AS d FROM "{o}"',
    "join": ('SELECT o.key, d.region FROM "{o}" AS o '
             'JOIN "{d}" AS d ON o.cust = d.cust_id WHERE o.amount < 30'),
}


def named(text: str) -> dict:
    """What an explanation says the query runs."""
    lines = [line.strip() for line in text.splitlines()]
    joins = [label for line in lines if line.startswith("join [")
             for label in JOIN_LABELS.values() if label in line]
    return {
        "point": any(line.startswith("point lookup") for line in lines),
        # an index-nested-loop step reads its build side by index
        "index": any(line.startswith("access path") and (
            ": index probe" in line or ": index range" in line
        ) for line in lines) or JOIN_LABELS["index-nested-loop"] in joins,
        "sketch": any(line.startswith("approx [") and ": sketch" in line
                      for line in lines),
        "joins": ([strategy for label in joins
                   for strategy, known in JOIN_LABELS.items()
                   if known == label]
                  if not any(line.startswith("joins: central")
                             for line in lines)
                  else ["central"] * len(joins or [None])),
        "read": [line.split("[")[1].split("]")[0] for line in lines
                 if line.startswith("access path [")],
    }


def recorded(execution) -> dict:
    """What the execution says it ran."""
    return {
        "point": execution.point_keys is not None,
        "index": execution.index_probes > 0,
        "sketch": bool(execution.approx_answered),
        "joins": execution.join_strategies,
    }


def check(service, sql):
    said = named(service.explain(sql))
    execution = service.execute(sql)
    did = recorded(execution)
    assert {name: said[name] for name in did} == did, (sql, said)
    return said, execution


@pytest.mark.parametrize("pushdown", [True, False])
@pytest.mark.parametrize("prefix", ["", "snapshot_"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_explain_names_what_execution_runs(env, shape, prefix, pushdown):
    sql = SHAPES[shape].format(o=prefix + "orders", d=prefix + "dims")
    said, execution = check(QueryService(env, pushdown=pushdown), sql)
    # Each shape exercises what it is named for.
    expected = {
        "point": said["point"], "in-point": said["point"],
        "index": said["index"] == pushdown, "sketch": said["sketch"],
        "scan": not (said["index"] or said["point"]),
        "join": said["joins"] == (["broadcast"] if pushdown
                                  else ["central"]),
    }
    assert expected[shape], (sql, said)
    if said["point"]:
        assert not said["read"]  # a point get sweeps no shard
    assert execution.error is None


@pytest.mark.parametrize("prefix", ["", "snapshot_"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_explain_names_every_forced_join_strategy(env, monkeypatch,
                                                   strategy, prefix):
    orders, dims = prefix + "orders", prefix + "dims"
    sql = SHAPES["join"].format(o=orders, d=dims)
    with forced(monkeypatch, strategy):
        said, _execution = check(QueryService(env), sql)
    assert said["joins"] == [strategy]
    # The build side of an index-nested-loop join is never scanned:
    # only the probe side has an access path.
    assert said["read"] == (
        [orders] if strategy == "index-nested-loop" else [orders, dims]
    )


def test_index_nested_loop_build_read_is_billed_and_counted(
        env, monkeypatch):
    """The build side's index reads count into the query's billed
    entries, store milliseconds and batches like any index-scan
    shard's: the join bills its probe side's scan plus the rows its
    index probes read."""
    service = QueryService(env)
    probe_sql = 'SELECT key, cust FROM "orders" WHERE amount < 30'
    join_sql = SHAPES["join"].format(o="orders", d="dims")
    service.execute(probe_sql)  # warm the compile cache for both
    probe = service.execute(probe_sql)
    with forced(monkeypatch, "index-nested-loop"):
        service.execute(join_sql)
        join = service.execute(join_sql)
    assert join.join_strategies == ["index-nested-loop"]
    assert join.index_rows_read > 0
    probed = probe.entries_billed
    assert join.entries_billed == probed + join.index_rows_read
    assert join.entries_scanned == join.entries_billed
    assert join.batches_evaluated > probe.batches_evaluated
    assert join.scan_ms_billed > probe.scan_ms_billed
