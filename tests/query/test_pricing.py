"""What the chooser estimates, what the shards bill and what ``explain``
prints are one number.

``repro.sql.access`` prices a shard read once; the chooser calls it for
a whole shard, ``QueryService._read`` per chunk.  For each access
path — point get, full scan, hash probe, sorted range, sketch answer —
the estimate of the path the chooser takes, summed over the nodes'
shards, equals the store-server time the execution bills (compile cache
warm: an estimate does not know what the cache holds).
"""

import re

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from repro.sql import parse
from repro.sql.access import (
    SketchCandidate,
    choose_access_path,
    point_read_ms,
)
from repro.sql.fragments import split_select
from repro.state.live import LiveStateTable
from repro.state.view import TableView

NODES = 4
KEYS = 6_000

#: ``(statement, kind of the access path every shard must take)``
PATHS = [
    ('SELECT key FROM "metrics" WHERE weight = 2', "scan"),
    ('SELECT weight, COUNT(*) AS n FROM "metrics" WHERE weight < 5 '
     "GROUP BY weight", "scan"),
    ('SELECT key, weight FROM "metrics" WHERE weight < 6 '
     "ORDER BY weight LIMIT 3", "scan"),
    ('SELECT key FROM "metrics" WHERE value = 7', "index-eq"),
    ('SELECT COUNT(*) AS n FROM "metrics" WHERE value IN (3, 4)',
     "index-eq"),
    ('SELECT key FROM "metrics" WHERE label LIKE \'item-07%\'',
     "index-range"),
    ('SELECT APPROX COUNT(*) AS n FROM "metrics" WHERE weight = 2',
     "sketch"),
]


@pytest.fixture(scope="module")
def env():
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1,
                                    partition_count=32))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(KEYS):
        imap.put(key, {"value": key % 100, "weight": key % 7,
                       "label": f"item-{key % 40:02d}"})
    env.store.create_index("metrics", "value", "hash")
    env.store.create_index("metrics", "label", "sorted")
    env.store.create_sketch("metrics", "weight", "countmin")
    return env


def store_busy_ms(env) -> float:
    return sum(server.total_busy_ms
               for node in env.cluster.nodes
               for server in node.store_servers)


def chooser_estimates(env, sql) -> list:
    """The chooser's pick per shard, from the public pricing API: one
    call per node for an exact statement, one for the whole table for a
    sketch-answerable one (the sketch answer is computed once)."""
    select = parse(sql)
    view = TableView(env.store.get_live_table("metrics"))
    fragment = split_select(select).fragments["metrics"]
    nodes = env.cluster.surviving_node_ids()
    if select.approx:
        partitions, entries = view.partitions_and_entries(nodes)
        return [choose_access_path(
            fragment, view, partitions, entries, env.costs,
            sketch=SketchCandidate("countmin('weight')",
                                   probes=len(partitions)),
        )]
    return [
        choose_access_path(fragment, view, view.partitions_on_node(node),
                           view.entries_on_node(node), env.costs)
        for node in nodes
    ]


@pytest.mark.parametrize("sql,kind", PATHS)
def test_estimate_equals_bill_equals_explain(env, sql, kind):
    service = QueryService(env)
    service.execute(sql)  # warm the compile cache
    before = store_busy_ms(env)
    execution = service.execute(sql)
    billed = store_busy_ms(env) - before

    paths = chooser_estimates(env, sql)
    assert {path.kind for path in paths} == {kind}
    estimate = sum(path.cost_ms for path in paths)
    assert estimate == pytest.approx(billed, abs=1e-9)
    if kind == "sketch":
        assert execution.approx_answered
        assert execution.sketch_probes == sum(p.probes for p in paths)
    else:
        assert execution.predicates_compiled == 0  # cache was warm
        assert execution.scan_ms_billed == pytest.approx(estimate,
                                                         abs=1e-9)
        assert execution.entries_billed == sum(p.candidates
                                               for p in paths)

    prefix = "approx [" if kind == "sketch" else "access path ["
    line = next(line for line in service.explain(sql).splitlines()
                if line.lstrip().startswith(prefix))
    assert re.search(r"est\. ([0-9.]+) ms", line).group(1) == \
        f"{billed:.3f}", line


def test_point_estimate_equals_bill_equals_explain(env):
    """A point get bills one seek per key on each owner's store server
    and nothing else; ``explain`` prints that sum."""
    sql = 'SELECT value FROM "metrics" WHERE key IN (3, 4, 5, 4000)'
    service = QueryService(env)
    before = store_busy_ms(env)
    execution = service.execute(sql)
    billed = store_busy_ms(env) - before
    assert execution.point_keys == (3, 4, 5, 4000)
    assert billed == pytest.approx(point_read_ms(env.costs, 4), abs=1e-12)
    assert execution.scan_ms_billed == 0  # no scan chunk ran
    line = service.explain(sql).splitlines()[0]
    assert line.startswith("point lookup: 4 key(s)"), line
    assert re.search(r"est\. ([0-9.]+) ms", line).group(1) == \
        f"{billed:.3f}", line
