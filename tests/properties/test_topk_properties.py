"""Property tests for the pushed ORDER BY / LIMIT (scan-side top-k).

A shard that ships only its first ``LIMIT + OFFSET`` rows must never
change an answer: rows come back identical **in order**, ties included,
whatever the gates (``pushdown`` / ``repeatable_read``),
the table family (live state, one snapshot version, an ``ssid`` tuple),
the node count, or a node dying mid-scan.  Values are drawn from tiny
ranges so most rows tie on every term and only the stable arrival order
decides which of them make the cut.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Environment
from repro.config import ClusterConfig, CostModel
from repro.errors import SqlExecutionError
from repro.query import QueryService
from repro.sql import parse
from repro.sql.access import TOP_K_ENTRY_SHARE
from repro.sql.fragments import split_select
from repro.state.incremental import IncrementalSnapshotTable
from repro.state.live import LiveStateTable
from repro.state.lsm_backend import LsmSnapshotTable
from repro.state.snapshots import FullSnapshotTable

VALUES = st.fixed_dictionaries({
    "a": st.none() | st.integers(0, 2),
    "b": st.none() | st.sampled_from(["x", "y"]),
    "f": st.none() | st.sampled_from([-1.5, 0.0, 2.5]),
    # ints and floats that tie across types (1 == 1.0)
    "m": st.sampled_from([0, 1, 1.0, 2.5]),
})
TERMS = st.sampled_from(
    ["a", "b", "f", "m", "a + m", "t.a", "key % 3", "out"]
)
#: Select lists; ``out`` is an output column every one of them defines,
#: so every ORDER BY term resolves on every shape.  Which combinations
#: are pushed is ``split_select``'s call (asserted case by case in
#: ``tests/sql/test_fragments.py``); here both kinds must agree.
SHAPES = st.sampled_from([
    "key, a AS out, b, f, m",
    "a, a AS out, key",
    "key, b AS a, a AS out",   # ORDER BY a sorts by the stored b
    "key, a + 1 AS out",
    "DISTINCT key, a AS out",
])
#: ``(pushed WHERE, the same in Python)``
FILTERS = st.sampled_from([
    (None, lambda row: True),
    ("a < 2", lambda row: row["a"] is not None and row["a"] < 2),
    ("b IS NOT NULL AND m >= 1",
     lambda row: row["b"] is not None and row["m"] >= 1),
])
GATES = [
    {"pushdown": pushdown, "repeatable_read": repeatable_read}
    for pushdown in (True, False)
    for repeatable_read in (True, False)
]


@st.composite
def scenarios(draw):
    rows = draw(st.lists(VALUES, max_size=24))
    items = draw(SHAPES)
    terms = draw(st.lists(st.tuples(TERMS, st.booleans()),
                          min_size=1, max_size=3))
    where, survives = draw(FILTERS)
    sql = f'SELECT {items} FROM "{{table}}" t'
    if where is not None:
        sql += f" WHERE {where}"
    sql += " ORDER BY " + ", ".join(
        term + (" DESC" if descending else "")
        for term, descending in terms
    )
    sql += f" LIMIT {draw(st.integers(0, len(rows) + 2))}"
    offset = draw(st.none() | st.integers(0, 3))
    if offset is not None:
        sql += f" OFFSET {offset}"
    survivors = sum(1 for row in rows if survives(row))
    return draw(st.integers(1, 5)), rows, sql, survivors


SNAPSHOT_BACKENDS = {
    "snap": FullSnapshotTable,
    "snap_inc": IncrementalSnapshotTable,
    "snap_lsm": LsmSnapshotTable,
}


def build(nodes, rows, costs=None):
    """One environment holding ``rows`` as live state and, per snapshot
    backend, as two committed versions (the first without every other
    row, so an ``ssid`` tuple reads two different versions)."""
    env = Environment(
        ClusterConfig(nodes=nodes, processing_workers_per_node=1,
                      backup_count=min(1, nodes - 1)),
        **({} if costs is None else {"costs": costs}),
    )
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    for key, value in enumerate(rows):
        imap.put(key, value)
    parallelism = 2 * nodes
    tables = [
        backend(name, parallelism, lambda i: i % nodes)
        for name, backend in SNAPSHOT_BACKENDS.items()
    ]
    for table in tables:
        env.store.register_snapshot_table(table.name, table)
    for ssid, step in ((1, 2), (2, 1)):
        env.store.begin_snapshot(ssid)
        for table in tables:
            instances = {instance: {} for instance in range(parallelism)}
            for key in range(0, len(rows), step):
                instances[table.partition_of_key(key)][key] = rows[key]
            for instance, entries in instances.items():
                table.write_instance(ssid, instance, entries)
        env.store.commit_snapshot(ssid)
    return env


def run(service, sql, **submit):
    execution = service.submit(sql, **submit)
    while not execution.done:
        assert service.sim.step()
    assert service.store.locks.held_count == 0
    return execution


#: A shard of five rows already streams through three chunks, so the
#: held rows are re-selected against later survivors.
SMALL_CHUNKS = CostModel(scan_chunk_entries=2)


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_rows_identical_in_order_across_gates_and_table_families(scenario):
    nodes, rows, sql, survivors = scenario
    env = build(nodes, rows, SMALL_CHUNKS)
    services = [(gates, QueryService(env, **gates)) for gates in GATES]
    targets = [("data", {}, survivors)]  # live state
    # the committed version of every snapshot backend...
    targets += [(name, {}, survivors) for name in SNAPSHOT_BACKENDS]
    # ...and an ssid tuple
    targets.append(("snap", {"all_versions": True}, None))
    for table, submit, survivors in targets:
        statement = sql.format(table=table)
        top_k = split_select(parse(statement)).fragment(table).top_k
        expected = None
        for gates, service in services:
            execution = run(service, statement, **submit)
            if execution.error is not None:
                # e.g. ``a + m`` where the output column a is text: a
                # failing order key fails alike on every path.
                assert isinstance(execution.error, SqlExecutionError)
                answer = str(execution.error)
            else:
                answer = (execution.result.columns, execution.result.rows)
            if expected is None:
                expected = answer
            assert answer == expected, (statement, gates, submit)
            if not gates["pushdown"] or submit:
                continue  # ships every stored row
            if top_k is not None:
                assert execution.rows_shipped <= nodes * top_k.keep
            else:
                assert execution.rows_shipped == survivors


def test_the_generator_draws_pushed_and_central_statements():
    pushed = {
        (items, term)
        for items in SHAPES.elements for term in TERMS.elements
        if split_select(parse(
            f'SELECT {items} FROM "data" t ORDER BY {term} LIMIT 3'
        )).fragment("data").top_k is not None
    }
    assert ("key, a AS out, b, f, m", "a + m") in pushed
    # An alias ranks by its item's expression over the stored row...
    assert ("key, a AS out, b, f, m", "out") in pushed
    assert ("key, a + 1 AS out", "out") in pushed
    assert ("key, b AS a, a AS out", "a") in pushed
    assert ("key, b AS a, a AS out", "f") in pushed
    # ...unless that reads a name another item's alias shadows.
    assert ("key, b AS a, a AS out", "out") not in pushed
    assert not any(items.startswith("DISTINCT") for items, _ in pushed)
    # The qualified name reads the stored column past the alias.
    assert ("key, b AS a, a AS out", "t.a") in pushed


def test_pushed_alias_ships_k_rows_per_shard():
    rows = [{"a": key % 7, "b": None, "f": None, "m": 0}
            for key in range(40)]
    env = build(4, rows)
    sql = 'SELECT key, a AS out FROM "data" ORDER BY out DESC LIMIT 3'
    on = run(QueryService(env), sql)
    off = run(QueryService(env, pushdown=False), sql)
    assert on.result.rows == off.result.rows
    assert [row["out"] for row in on.result.rows] == [6, 6, 6]
    assert on.rows_shipped <= 4 * 3 and off.rows_shipped == 40


def test_pushed_ordinal_ships_k_rows_per_shard():
    rows = [{"a": key % 3, "b": None, "f": None, "m": 0}
            for key in range(40)]
    env = build(4, rows)
    sql = 'SELECT key, a FROM "data" ORDER BY 2 DESC LIMIT 3'
    on = run(QueryService(env), sql)
    off = run(QueryService(env, pushdown=False), sql)
    assert on.result.rows == off.result.rows
    # The three first-arrived rows of the a = 2 tie group.
    assert [row["a"] for row in on.result.rows] == [2, 2, 2]
    assert on.rows_shipped == 4 * 3 and off.rows_shipped == 40
    # 12 two-column rows against 40 stored ones.
    assert (on.bytes_shipped, off.bytes_shipped) == (12 * 48, 40 * 96)


def test_shards_no_larger_than_k_run_and_bill_no_stage():
    rows = [{"a": key % 3, "b": None, "f": None, "m": 0}
            for key in range(40)]
    env = build(4, rows)
    scan = 'SELECT key, a FROM "data"'
    plain = run(QueryService(env), scan)
    huge = run(QueryService(env), scan + " ORDER BY a LIMIT 1000000")
    cut = run(QueryService(env), scan + " ORDER BY a LIMIT 2")
    assert huge.rows_shipped == 40 and cut.rows_shipped == 8
    # LIMIT 1000000 scans at the price of no ORDER BY at all; a real
    # cut pays its share of the bounded-state rate on every entry.
    assert huge.scan_ms_billed == plain.scan_ms_billed
    surcharge = (TOP_K_ENTRY_SHARE
                 * CostModel().partial_agg_entry_ms)
    assert cut.scan_ms_billed == pytest.approx(
        plain.scan_ms_billed + 40 * surcharge
    )


#: Slow scans widen the mid-scan window the kill lands in.
SLOW_SCANS = CostModel(scan_entry_ms=0.05)


@pytest.mark.parametrize("kill_after_ms", [2.0, 4.0, 6.0])
def test_mid_scan_kill_retries_to_the_undisturbed_answer(kill_after_ms):
    rows = [{"a": key % 4, "b": "x", "f": None, "m": key % 2}
            for key in range(600)]
    env = build(4, rows, SLOW_SCANS)
    service = QueryService(env)
    # The key makes the order total: a death re-homes partitions, and
    # with them the arrival order that would break a tie.
    sql = ('SELECT key, a FROM "data" ORDER BY a DESC, m, key DESC '
           "LIMIT 25 OFFSET 5")
    expected = run(QueryService(env, pushdown=False), sql).result.rows
    assert run(service, sql).result.rows == expected

    execution = service.submit(sql)
    env.run_for(kill_after_ms)  # planning done, scans in flight
    assert not execution.done
    victim = next(
        node for node in env.cluster.surviving_node_ids()
        if node != execution.entry_node
    )
    env.cluster.fail_node(victim)
    env.run_for(2_000)
    assert execution.done and execution.error is None
    assert execution.retries == 1
    # The dead node's shipped rows were discarded with its attempt
    # token; the survivors' re-scan cuts the same first 30 rows.
    assert execution.result.rows == expected
    assert execution.rows_shipped <= 4 * 30


@pytest.mark.parametrize("by_node", [False, True])
@pytest.mark.parametrize("tail", ["LIMIT 3", "DESC LIMIT 2 OFFSET 2",
                                  "LIMIT 0"])
def test_mixed_type_column_error_parity(by_node, tail):
    # ``a`` holds ints and text.  Mixed within every shard, each shard
    # abandons its top-k and ships everything; split by node, every
    # shard ranks its own rows happily and ships k of them — and the
    # entry node still meets both types.  Either way the error (or,
    # for LIMIT 0, which compares nothing, its absence) is the one
    # the unpushed statement produces.
    env = build(3, [])
    live = env.store.get_live_table("data")
    imap = env.store.get_map("data")
    for key in range(60):
        text = live.owner_node_of(key) == 0 if by_node else key % 2 == 0
        imap.put(key, {"a": f"s{key % 5}" if text else key % 5})
    sql = f'SELECT key FROM "data" ORDER BY a {tail}'
    outcomes = set()
    for gates in GATES:
        execution = run(QueryService(env, **gates), sql)
        if execution.error is None:
            outcomes.add(("rows", str(execution.result.rows)))
        else:
            assert isinstance(execution.error, SqlExecutionError)
            outcomes.add(("error", str(execution.error)))
    if tail == "LIMIT 0":
        assert outcomes == {("rows", "[]")}
    else:
        assert outcomes == {("error", "cannot compare int with str")}
