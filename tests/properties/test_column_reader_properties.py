"""Property tests for the column reader and the columnar scan sweep.

A shard reads its entries column by column and folds, cuts or projects
over those lists.  Whatever the values are — dicts (in any key order),
dataclasses, namedtuples and scalars mixed in one table, missing
columns, NULLs, unhashable group keys, order keys of mixed types —
what it ships (rows in order and in stored column order, partial
groups with their accumulator states), the keys it locks, or the error
it raises is what a row-at-a-time sweep over the node's whole rows
gives, for every chunk size, on live state, on a committed version of
each snapshot backend and on an ``ssid`` tuple; and the statement's
answer is the one ``pushdown=False`` gives.

The row-at-a-time sweep and the row shaping it reads are spelled out
here (they are what ``repro.sql.batch`` and ``repro.state.rows`` did
before the sweep went columnar), so the expectation shares no code with
the reader or the accumulator under test.
"""

import dataclasses
import math
import re
from collections import namedtuple

from hypothesis import given, settings, strategies as st

from repro import Environment
from repro.config import ClusterConfig
from repro.errors import SqlExecutionError
from repro.query import QueryService
from repro.sql import EvalContext, parse
from repro.sql.batch import CompiledFragment, run_fragment_batches
from repro.sql.compiled import compile_expr, compile_predicate
from repro.sql.executor import (
    compile_agg_feeds,
    compile_group_key,
    new_group_accs,
    order_keyed,
)
from repro.sql.fragments import split_select
from repro.state.incremental import IncrementalSnapshotTable
from repro.state.live import LiveStateTable
from repro.state.lsm_backend import LsmSnapshotTable
from repro.state.snapshots import FullSnapshotTable
from repro.state.view import TableView

CTX = EvalContext(now_ms=0.0)
CHUNKS = (1, 7, 256)


@dataclasses.dataclass
class Reading:
    a: object
    b: object

    @property
    def g(self):  # an attribute, never a column
        return "property"


Pair = namedtuple("Pair", ["a", "g"])

#: NULLs, numbers that tie across types, text (so SUM / MIN / ORDER BY
#: meet mixed types) and lists (unhashable as a group key).
EXACT_CELLS = [None, None, 0, 1, 1, 1.0, 2, 2.5, "x", "y", [1], [1, 2]]
#: ... and floats whose sums depend on the order of the adds, that do
#: not compare (NaN) or differ only in sign (-0.0), and bools.
CELLS = EXACT_CELLS + [
    float("nan"), -0.0, float("inf"), 1e16, 0.1, True, False,
]


def values_of(cells):
    """Table values whose cells are drawn from ``cells``.  Dict values
    draw their keys in any order and may lack any column; "key" and
    "ssid" collide with the entry's own, "t.a" is what a
    binding-qualified reference falls back to."""
    cell = st.sampled_from(cells)
    dicts = st.lists(
        st.tuples(st.sampled_from(["a", "b", "g", "key", "ssid", "t.a"]),
                  cell),
        max_size=5,
    ).map(dict)
    return st.one_of(
        dicts, dicts,
        st.builds(Reading, cell, cell),
        st.builds(Pair, cell, cell),
        st.sampled_from([0, 3, 2.5, "x"]),
    )


def rows_of(**cells):
    """Dict values with exactly these columns, in any key order."""
    return st.fixed_dictionaries(
        {name: st.sampled_from(values) for name, values in cells.items()}
    ).flatmap(lambda value: st.permutations(list(value.items())).map(dict))


#: Tables that fold cleanly, so groups and top-k cuts are compared as
#: often as error texts, and ones whose every row has every column but
#: of mixed types, so accumulators and order keys are what fails.
CLEAN = rows_of(a=[None, 0, 1, 2], b=[None, "x", "y"],
                g=[None, 1, 1.0, "u", [1]])
MIXED = rows_of(a=[None, 0, 1, 2.5, "x"], b=[None, "x", 3],
                g=[None, 1, "u", [1]])
#: Numbers only, so float sums, averages and extremes fold to the end.
FLOATS = rows_of(a=[None, 0, 1, 0.1, 2.5, -0.0, 1e16, True, False],
                 b=[None, 0.1, -1.5, 1e16, float("nan"), float("inf")],
                 g=[None, 1, 1.0, "u"])
TABLES = (st.lists(values_of(CELLS), max_size=20)
          | st.lists(CLEAN, max_size=20) | st.lists(MIXED, max_size=20)
          | st.lists(FLOATS, max_size=20))
#: What the answer test draws: no value whose SUM, AVG, MIN or MAX
#: depends on the order partial states merge in (floats that round,
#: NaN), which ``pushdown`` changes.
ANSWER_TABLES = (st.lists(values_of(EXACT_CELLS), max_size=20)
                 | st.lists(CLEAN, max_size=20)
                 | st.lists(MIXED, max_size=20))

STATEMENTS = [
    'SELECT key, a FROM "{t}" t WHERE a < 2',
    # (The key conjunct first: partitions it prunes hold only rows it
    # would have short-circuited.)
    'SELECT * FROM "{t}" t WHERE key >= 1 AND b IS NOT NULL',
    'SELECT g, a, b FROM "{t}" t',
    'SELECT key, ssid, value FROM "{t}" t WHERE key < 9',
    'SELECT t.a, key FROM "{t}" t WHERE t.a IS NOT NULL',
    'SELECT g, COUNT(*) AS c, SUM(a) AS s, MIN(b) AS lo FROM "{t}" t '
    "GROUP BY g",
    'SELECT t.g, MAX(a + 1) AS m, COUNT(b) AS n FROM "{t}" t '
    "WHERE key >= 0 GROUP BY t.g",
    'SELECT a % 2 AS p, AVG(a) AS v, MAX(b) AS hi FROM "{t}" t '
    "GROUP BY a % 2",
    'SELECT COUNT(a) AS n, SUM(value) AS s, MAX(key) AS k FROM "{t}" t',
    'SELECT b, g, COUNT(*) AS c FROM "{t}" t GROUP BY b, g HAVING '
    "COUNT(*) > 0",
    'SELECT key, a FROM "{t}" t ORDER BY a LIMIT 3',
    'SELECT key, b FROM "{t}" t WHERE g IS NOT NULL '
    "ORDER BY b DESC, t.a LIMIT 2 OFFSET 1",
    'SELECT key, value FROM "{t}" t ORDER BY value, key DESC LIMIT 4',
    'SELECT a, key FROM "{t}" t ORDER BY a + 1 DESC, key LIMIT 2',
]
#: What the shard computes with one call over a column list: a column
#: compared with a literal (either side), a group's slice folded.
KERNEL_STATEMENTS = [
    'SELECT key, a FROM "{t}" t WHERE a = 1',
    'SELECT key, b FROM "{t}" t WHERE 1 <> b',
    'SELECT key, a FROM "{t}" t WHERE a <= 0.1',
    'SELECT key, g FROM "{t}" t WHERE 2 > t.g',
    'SELECT key, b FROM "{t}" t WHERE b >= \'x\'',
    'SELECT key, a FROM "{t}" t WHERE TRUE = a AND 1e16 > b',
    'SELECT g, COUNT(*) AS c FROM "{t}" t WHERE 0 < a AND a < 1e16 '
    "GROUP BY g",
    # Every group a singleton.
    'SELECT key, SUM(a) AS s, MIN(b) AS lo, COUNT(g) AS n FROM "{t}" t '
    "GROUP BY key",
    # Float aggregates, grouped and not.
    'SELECT g, SUM(a) AS s, AVG(b) AS v, MIN(b) AS lo, MAX(a) AS hi '
    'FROM "{t}" t GROUP BY g',
    'SELECT SUM(b) AS s, AVG(a) AS v, MIN(a) AS lo, MAX(b) AS hi '
    'FROM "{t}" t',
    'SELECT key, b FROM "{t}" t ORDER BY b DESC, key LIMIT 3',
]
STATEMENTS += KERNEL_STATEMENTS


# -- the expectation: whole rows, swept one at a time -------------------------


def shaped(key, value, ssid=None):
    """Tables I / II, as ``repro.state.rows`` first defined them."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        row = {field.name: getattr(value, field.name)
               for field in dataclasses.fields(value)}
    elif isinstance(value, dict):
        row = dict(value)
    elif hasattr(value, "_asdict"):
        row = dict(value._asdict())
    else:
        row = {"value": value}
    row["partitionKey"] = key
    row["key"] = key
    if ssid is not None:
        row["ssid"] = ssid
    return row


def order_key_of(order_by, binding, row):
    """NULL ranks last in either direction; NaN above every number."""
    key = []
    for order in order_by:
        value = compile_expr(order.expr, binding)(row, CTX)
        if value is None:
            key += [0 if order.descending else 2, None]
        elif value != value:
            key += [2 if order.descending else 1, None]
        else:
            key += [int(order.descending), value]
    return tuple(key)


def swept(fragment, rows, keep):
    """``(lock keys, payload)`` of a row-major sweep over whole rows,
    or the error it stops at."""
    binding = fragment.binding
    predicates = [compile_predicate(conjunct, binding)
                  for conjunct in fragment.pushed]
    partial = fragment.partial
    if partial is not None:
        group_key = compile_group_key(partial.group_by, binding)
        feeds = compile_agg_feeds(partial.calls, binding)
    groups = {}
    survivors = []
    for row in rows:
        if not all(predicate(row, CTX) for predicate in predicates):
            continue
        if partial is not None:
            key = group_key(row, CTX)
            group = groups.get(key)
            if group is None:
                rep = {name: row[name] for name in partial.rep_columns
                       if name in row}
                group = groups[key] = (rep, new_group_accs(partial.calls))
            for feed, acc in zip(feeds, group[1]):
                acc.add(1 if feed is None else feed(row, CTX))
        survivors.append(row)
    locks = [row["partitionKey"] for row in survivors]
    if partial is not None:
        return locks, [
            (key, rep, [vars(acc) for acc in accs])
            for key, (rep, accs) in groups.items()
        ]
    if keep is not None:
        order_by = fragment.top_k.order_by
        try:
            survivors = [row for _key, row in order_keyed(
                order_by,
                [(order_key_of(order_by, binding, row), row)
                 for row in survivors],
                keep,
            )]
        except SqlExecutionError:
            pass  # the stage steps aside: every survivor ships
    if fragment.projection is None:
        return locks, [list(row.items()) for row in survivors]
    return locks, [
        [(name, value) for name, value in row.items()
         if name in fragment.projection]
        for row in survivors
    ]


def outcome(function):
    try:
        return exact(function())
    except SqlExecutionError as exc:
        return f"{type(exc).__name__}: {exc}"


def exact(value):
    """``value`` with each scalar tagged with its type and each float
    spelled out bit for bit (``float.hex``, and the sign NaN and zero
    carry), so ``==`` on the result means the same bits were computed:
    ``True`` is not ``1``, ``-0.0`` is not ``0.0``, a NaN is a NaN."""
    if isinstance(value, float):
        return "float", value.hex(), math.copysign(1.0, value)
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [exact(item) for item in value]
    if isinstance(value, dict):
        return "dict", [(exact(key), exact(item))
                        for key, item in value.items()]
    if value is None or isinstance(value, (bool, int, str)):
        return type(value).__name__, value
    return value


def shipped(fragment, batch, chunk, keep):
    locks, payload, _batches = run_fragment_batches(
        CompiledFragment(fragment), batch, CTX, chunk, keep
    )
    if fragment.partial is not None:
        return locks, [
            (key, rep, [vars(acc) for acc in accs])
            for key, rep, accs in payload.entries
        ]
    # Column order is part of what ships.
    return locks, [list(row.items()) for row in payload.rows()]


# -- tables -------------------------------------------------------------------

SNAPSHOT_BACKENDS = {
    "snap": FullSnapshotTable,
    "snap_inc": IncrementalSnapshotTable,
    "snap_lsm": LsmSnapshotTable,
}
NODES = 2


def build(values):
    """``values`` as live state and, per snapshot backend, as two
    committed versions (the first holds every other entry only)."""
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    imap = env.store.create_map("data")
    tables = {"data": LiveStateTable(imap)}
    env.store.register_live_table("data", tables["data"])
    for key, value in enumerate(values):
        imap.put(key, value)
    parallelism = 2 * NODES
    for name, backend in SNAPSHOT_BACKENDS.items():
        tables[name] = backend(name, parallelism, lambda i: i % NODES)
        env.store.register_snapshot_table(name, tables[name])
    for ssid, step in ((1, 2), (2, 1)):
        env.store.begin_snapshot(ssid)
        for name in SNAPSHOT_BACKENDS:
            table = tables[name]
            instances = {instance: {} for instance in range(parallelism)}
            for key in range(0, len(values), step):
                instances[table.partition_of_key(key)][key] = values[key]
            for instance, entries in instances.items():
                table.write_instance(ssid, instance, entries)
        env.store.commit_snapshot(ssid)
    return env, tables


def views(tables):
    yield "data", {}, TableView(tables["data"])
    for name in SNAPSHOT_BACKENDS:
        yield name, {}, TableView(tables[name], (2,))
    yield "snap", {"all_versions": True}, TableView(tables["snap"], (1, 2))


def run(service, sql, **submit):
    execution = service.submit(sql, **submit)
    while not execution.done:
        assert service.sim.step()
    assert service.store.locks.held_count == 0
    if execution.error is not None:
        assert isinstance(execution.error, SqlExecutionError)
        return f"{type(execution.error).__name__}: {execution.error}"
    return execution.result.columns, execution.result.rows


@settings(max_examples=80, deadline=None)
@given(TABLES, st.sampled_from(STATEMENTS))
def test_a_shard_ships_what_the_row_sweep_ships(values, statement):
    env, tables = build(values)
    stored = {None: dict(enumerate(values)),
              1: dict(list(enumerate(values))[::2]),
              2: dict(enumerate(values))}
    for name, _submit, view in views(tables):
        fragment = split_select(
            parse(statement.format(t=name))
        ).fragment(name)
        seen = 0
        for node in range(NODES):
            rows = list(view.rows_on_node(node))
            # Whole rows are the reader's too: check them against the
            # shaping spelled out above, entry by entry.
            for row in rows:
                ssid = row.get("ssid") if view.immutable else None
                assert list(row.items()) == list(shaped(
                    row["key"], stored[ssid][row["key"]], ssid
                ).items())
            seen += len(rows)
            keep = fragment.top_k_keep(len(rows))
            expected = outcome(lambda: swept(fragment, rows, keep))
            for chunk in CHUNKS:
                batch = view.scan_on_node(node)
                assert len(batch) == len(rows)
                got = outcome(lambda: shipped(fragment, batch, chunk, keep))
                assert got == expected, (name, node, chunk)
        assert seen == sum(len(stored[ssid]) for ssid in
                           (view.versions or (None,)))


@settings(max_examples=120, deadline=None)
@given(st.lists(FLOATS, min_size=9, max_size=40)
       | st.lists(values_of(CELLS), max_size=40),
       st.sampled_from(KERNEL_STATEMENTS))
def test_column_kernels_compute_the_row_sweeps_bits(values, statement):
    # Longer tables than above, so chunks hold enough rows per group
    # for their slices to be folded in one call.
    _env, tables = build(values)
    view = TableView(tables["data"])
    fragment = split_select(parse(statement.format(t="data"))).fragment(
        "data"
    )
    for node in range(NODES):
        rows = list(view.rows_on_node(node))
        keep = fragment.top_k_keep(len(rows))
        expected = outcome(lambda: swept(fragment, rows, keep))
        for chunk in CHUNKS:
            got = outcome(lambda: shipped(
                fragment, view.scan_on_node(node), chunk, keep,
            ))
            assert got == expected, (node, chunk)


#: What an accumulator raises depends on what it held when the value
#: arrived, and a shard's accumulators start empty: over mixed types
#: the statement fails either way, but ``pushdown`` decides which
#: mixed pair (or which later error of that shard) is met first.
ACCUMULATOR_ERROR = re.compile(r": cannot apply (SUM|AVG|MIN|MAX) to ")


def same_answer(got, expected):
    if got == expected:
        return True
    return isinstance(got, str) and isinstance(expected, str) and bool(
        ACCUMULATOR_ERROR.search(got) or ACCUMULATOR_ERROR.search(expected)
    )


@settings(max_examples=60, deadline=None)
@given(ANSWER_TABLES, st.sampled_from(STATEMENTS))
def test_the_answer_is_the_one_without_pushdown(values, statement):
    env, tables = build(values)
    central = QueryService(env, pushdown=False)
    services = [QueryService(env), QueryService(env, repeatable_read=True)]
    for name, submit, _view in views(tables):
        sql = statement.format(t=name)
        expected = run(central, sql, **submit)
        for service in services:
            got = run(service, sql, **submit)
            assert same_answer(got, expected), (name, submit, got, expected)
