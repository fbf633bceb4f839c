"""Service-level tests for distributed query execution (pushdown).

The distributed plan must be invisible in results — pushdown on and off
produce identical rows for every query shape — while shipping strictly
less over the network and pruning partitions the key predicates prove
empty.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.errors import SqlExecutionError
from repro.observability import collect_report, format_report
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

NODES = 5
KEYS = 1_000


@pytest.fixture
def wide_env():
    """Five nodes, one wide live table, no job (deterministic data)."""
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1)
    )
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(KEYS):
        imap.put(key, {
            "value": key % 50,
            "weight": key % 7,
            "label": f"item-{key % 3}",
            "pad1": key, "pad2": key * 2, "pad3": key * 3,
        })
    return env


@pytest.fixture
def snapshot_env(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=20,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(2_250)
    return env


EQUIVALENCE_SQL = [
    'SELECT key, value FROM "metrics" WHERE value < 3 ORDER BY key',
    'SELECT * FROM "metrics" WHERE value = 7 AND weight = 2',
    'SELECT weight, SUM(value) AS s, COUNT(*) AS c FROM "metrics" '
    "GROUP BY weight HAVING COUNT(*) > 10 ORDER BY weight",
    'SELECT COUNT(*) AS n FROM "metrics"',
    'SELECT MIN(value) AS lo, MAX(value) AS hi, AVG(weight) AS w '
    'FROM "metrics" WHERE key >= 100',
    'SELECT DISTINCT weight FROM "metrics" WHERE value < 5 '
    "ORDER BY weight",
    'SELECT label, COUNT(DISTINCT value) AS dv FROM "metrics" '
    "GROUP BY label ORDER BY label",
    'SELECT key FROM "metrics" WHERE label LIKE \'item-1%\' '
    "ORDER BY key LIMIT 7 OFFSET 2",
    'SELECT a.key, b.weight FROM "metrics" AS a '
    'JOIN "metrics" AS b ON a.key = b.key '
    "WHERE a.value < 2 ORDER BY a.key",
    'SELECT key, CASE WHEN value < 25 THEN 0 ELSE 1 END AS bucket '
    'FROM "metrics" WHERE key BETWEEN 10 AND 40 ORDER BY key',
    'SELECT COUNT(*) AS n FROM "metrics" WHERE key IN (1, 2, 3, 999)',
]


@pytest.mark.parametrize("sql", EQUIVALENCE_SQL)
def test_pushdown_on_off_results_identical(wide_env, sql):
    on = QueryService(wide_env, pushdown=True).execute(sql)
    off = QueryService(wide_env, pushdown=False).execute(sql)
    assert on.result.columns == off.result.columns
    assert on.result.rows == off.result.rows


#: Rows whose stored keys contain a dot, read by a binding-qualified
#: reference (``t.a`` over ``{'t.a': 0}``) or a quoted dotted name
#: (``"t.a"`` over ``{'a': 5}``), as a bound row reads them: each ships
#: under every name the reference may read it by.
DOTTED = {
    "data": {1: {"t.a": 0, "k": 1}, 2: {"a": 5, "k": 2},
             3: {"a": 7, "t.a": 9, "k": 3}},
    "other": {1: {"k": 1, "b": 10}, 2: {"k": 2, "b": 20},
              3: {"k": 3, "b": 30}},
}
DOTTED_SQL = [
    'SELECT t.a FROM "data" t ORDER BY t.k',
    'SELECT "t.a" AS x FROM "data" AS t ORDER BY k',
    'SELECT t.a, COUNT(*) AS n FROM "data" AS t GROUP BY t.a '
    "ORDER BY t.a",
    'SELECT t.a AS ta, u.b AS ub FROM "data" AS t '
    'JOIN "other" AS u ON t.k = u.k ORDER BY u.b',
    'SELECT t.a AS ta, u.b AS ub FROM "data" AS t '
    'JOIN "other" AS u USING (k) WHERE u.b > 10 ORDER BY ub',
]


@pytest.mark.parametrize("sql", DOTTED_SQL)
def test_pushdown_ships_every_name_a_reference_reads(sql):
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    for name, rows in DOTTED.items():
        imap = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(imap))
        for key, value in rows.items():
            imap.put(key, value)
    off = QueryService(env, pushdown=False).execute(sql).result
    on = QueryService(env, pushdown=True).execute(sql).result
    assert off.columns == on.columns
    assert off.rows == on.rows
    assert len(off.rows) > 1


NAN = float("nan")
#: ORDER BY -> keys in order.  NaN sorts above every number
#: (PostgreSQL's rule) and NULLs stay last in both directions.
NAN_ORDERS = {
    "v, key": [2, 0, 3, 4, 1, 6, 5],
    "v DESC, key": [1, 6, 4, 3, 0, 2, 5],
    "v, key DESC": [2, 0, 3, 4, 6, 1, 5],
    "v DESC, key DESC": [6, 1, 4, 3, 0, 2, 5],
}


@pytest.mark.parametrize("pushdown", [True, False])
@pytest.mark.parametrize("limit", [None, 2, 5])
@pytest.mark.parametrize("order", NAN_ORDERS)
def test_nan_order_keys_sort_above_every_number(pushdown, limit, order):
    # The pushed top-k builds its keys column-wise on the shards, the
    # entry node row-wise: both must place NaN, and break its ties.
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    for key, value in enumerate([1.0, NAN, 0.5, 2.0, 3.0, None, NAN]):
        imap.put(key, {"v": value})
    sql = f'SELECT key, v FROM "t" ORDER BY {order}'
    if limit is not None:
        sql += f" LIMIT {limit}"
    execution = QueryService(env, pushdown=pushdown).execute(sql)
    assert execution.result.column("key") == NAN_ORDERS[order][:limit]


#: ``(values of x, statement, rows)``: GROUP BY, DISTINCT, UNION and
#: DISTINCT aggregates tell values apart exactly where SQL ``=`` does — a
#: list is not its text, a dict's item order does not matter, and a
#: tuple holding a list keys like any other value (an expected error's
#: text in place of the rows).
EQUALITY_KEYS = [
    ([[1], "[1]", [1]], 'SELECT x, COUNT(*) AS n FROM "t" GROUP BY x',
     [("[1]", 1), ([1], 2)]),
    ([[1], "[1]", [1]], 'SELECT DISTINCT x FROM "t"', [("[1]",), ([1],)]),
    ([[1], "[1]"], 'SELECT x FROM "t" UNION SELECT x FROM "t"',
     [("[1]",), ([1],)]),
    ([{"a": 1, "b": 2}, {"b": 2, "a": 1}],
     'SELECT x, COUNT(*) AS n FROM "t" GROUP BY x', [({"a": 1, "b": 2}, 2)]),
    ([(1, [2]), (1, [2]), (2, [3])],
     'SELECT x, COUNT(*) AS n FROM "t" GROUP BY x', [((1, [2]), 2),
                                                     ((2, [3]), 1)]),
    ([(1, [2]), (1, [2])], 'SELECT DISTINCT x FROM "t"', [((1, [2]),)]),
    ([[1], [1], [2], [1.0]], 'SELECT COUNT(DISTINCT x) AS n FROM "t"',
     [(2,)]),
    # a value no key can hold is a typed error
    ([[bytearray(b"a")]], 'SELECT x, COUNT(*) AS n FROM "t" GROUP BY x',
     "cannot compare bytearray values"),
]


@pytest.mark.parametrize("pushdown", [True, False])
@pytest.mark.parametrize("values, sql, rows", EQUALITY_KEYS)
def test_container_values_key_by_sql_equality(pushdown, values, sql, rows):
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    for key, value in enumerate(values):
        imap.put(key, {"x": value})
    service = QueryService(env, pushdown=pushdown)
    if isinstance(rows, str):
        with pytest.raises(SqlExecutionError, match=rows):
            service.execute(sql)
        return
    assert sorted(service.execute(sql).result.tuples(), key=repr) == rows


#: ``(statement, rows or error text)`` over the rows below.  A row
#: leaves at its first conjunct that is not TRUE (the WHERE rule of
#: ``repro.sql.batch``): a row NULL on one conjunct never evaluates —
#: or raises in — a later one, with pushdown or without.
NULL_CONJUNCT_ROWS = [{"a": None, "b": "x"}, {"a": False, "b": 1},
                      {"a": False, "b": "y"}, {"a": True, "b": 2}]
NULL_CONJUNCTS = [
    ('SELECT key FROM "t" WHERE TRUE = a AND 1e16 > b', [(3,)]),
    ('SELECT key FROM "t" WHERE (a OR a) AND 1e16 > b', [(3,)]),
    ('SELECT key FROM "t" WHERE a = TRUE AND b <> \'q\'', [(3,)]),
    ('SELECT key FROM "t" WHERE a = TRUE AND b = 2 AND 1e16 > b', [(3,)]),
    ('SELECT COUNT(*) AS n FROM "t" WHERE a = TRUE AND 1e16 > b', [(1,)]),
    # ... while a row TRUE on the first conjunct meets the second
    ('SELECT key FROM "t" WHERE b IS NOT NULL AND 1e16 > b',
     "cannot compare float with str"),
]


@pytest.mark.parametrize("pushdown", [True, False])
@pytest.mark.parametrize("sql, expected", NULL_CONJUNCTS)
def test_null_conjunct_drops_its_row_before_later_conjuncts(pushdown, sql,
                                                            expected):
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    for key, value in enumerate(NULL_CONJUNCT_ROWS):
        imap.put(key, value)
    service = QueryService(env, pushdown=pushdown)
    if isinstance(expected, str):
        with pytest.raises(SqlExecutionError, match=expected):
            service.execute(sql)
        return
    assert sorted(service.execute(sql).result.tuples()) == expected


#: ``t`` and ``u`` of the entry-node cases below: row 0's ``a`` is NULL
#: and its ``b`` compares with no number; row 2's ``a`` is FALSE.
ENTRY_T = [{"a": None, "b": "x", "k": 1}, {"a": True, "b": 5, "k": 1},
           {"a": False, "b": "z", "k": 1}]
ENTRY_U = [{"k": 1, "y": 1}]
JOIN_TU = 'SELECT t.key FROM "t" AS t JOIN "u" AS u ON t.k = u.k WHERE '
#: ``(statement, rows or error text)``: a table's own conjuncts run on
#: its rows before the join, wherever they are written; a conjunct the
#: entry node keeps (a residual over both tables, or ``LOCALTIMESTAMP``)
#: runs after them, over the rows they leave, and raises on those.
ENTRY_CONJUNCTS = [
    (JOIN_TU + "t.a = TRUE AND t.b > u.y", [(1,)]),
    (JOIN_TU + "TRUE = t.a AND u.y < t.b", [(1,)]),
    (JOIN_TU + "t.b > u.y AND t.a = TRUE", [(1,)]),
    (JOIN_TU + "t.key > 0 AND t.b > u.y AND t.a = TRUE", [(1,)]),
    (JOIN_TU + "t.a = FALSE AND t.key > 1 AND u.y < t.b",
     "cannot compare int with str"),
    (JOIN_TU + "t.a = TRUE AND t.k = u.y", [(1,)]),
    (JOIN_TU + "t.a = TRUE AND u.y = 1 AND t.k = u.y", [(1,)]),
    (JOIN_TU + "t.key = 1 AND t.b > u.y", [(1,)]),
    (JOIN_TU + "t.b > u.y", "cannot compare str with int"),
    ('SELECT key FROM "t" WHERE a = TRUE AND b < LOCALTIMESTAMP', []),
    ('SELECT key FROM "t" WHERE b < LOCALTIMESTAMP AND key <> 0',
     "cannot compare str with float"),
    ('SELECT COUNT(*) AS n FROM "t" WHERE a = TRUE AND b < LOCALTIMESTAMP',
     [(0,)]),
]


def entry_env():
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    for name, rows in (("t", ENTRY_T), ("u", ENTRY_U)):
        imap = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(imap))
        for key, value in enumerate(rows):
            imap.put(key, value)
    return env


@pytest.mark.parametrize("pushdown", [True, False])
@pytest.mark.parametrize("sql, expected", ENTRY_CONJUNCTS)
def test_entry_node_conjunct_keeps_its_errors(pushdown, sql, expected):
    service = QueryService(entry_env(), pushdown=pushdown)
    if isinstance(expected, str):
        with pytest.raises(SqlExecutionError, match=expected):
            service.execute(sql)
        return
    assert sorted(service.execute(sql).result.tuples()) == expected


def test_index_read_under_an_entry_node_conjunct_is_exact():
    """An index read skips only rows its leading conjunct is not TRUE
    on, which leave there on every path: with a residual conjunct to
    follow it still reads through the index, and answers — or raises —
    what a scan and pushdown off do."""
    env = Environment(ClusterConfig(nodes=NODES, processing_workers_per_node=1,
                                    partition_count=32))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    for key in range(3000):
        imap.put(key, {"a": key % 300, "b": 5})
    imap.put(3000, {"a": None, "b": "x"})
    imap.put(3001, {"a": 3, "b": "x"})
    env.store.create_index("t", "a", "hash")
    service = QueryService(env)
    references = [QueryService(env, indexes=False),
                  QueryService(env, pushdown=False)]

    def outcome(service, sql):
        try:
            return sorted(service.execute(sql).result.tuples())
        except SqlExecutionError as exc:
            return str(exc)

    assert "index probe on 'a'" in service.explain(
        'SELECT key FROM "t" WHERE a = 3 AND b < 7')
    for sql, expected in [
        # row 3000's NULL ``a`` drops it before ``b`` is read
        ('SELECT key FROM "t" WHERE a = 3 AND b < LOCALTIMESTAMP + 1e9 '
         "AND key <> 3001", [(key,) for key in range(3, 3000, 300)]),
        # row 3001 joins the candidates, and raises on every path
        ('SELECT key FROM "t" WHERE a = 3 AND b < LOCALTIMESTAMP',
         "cannot compare str with float"),
    ]:
        assert "index probe on 'a'" in service.explain(sql)
        assert outcome(service, sql) == expected
        for reference in references:
            assert outcome(reference, sql) == expected


def test_selective_scan_ships_fewer_rows_and_bytes(wide_env):
    sql = 'SELECT key, value FROM "metrics" WHERE value = 0'
    on = QueryService(wide_env, pushdown=True).execute(sql)
    off = QueryService(wide_env, pushdown=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert on.rows_shipped == KEYS // 50
    assert off.rows_shipped == KEYS
    assert on.bytes_shipped * 5 <= off.bytes_shipped
    # Every entry is still scanned — pushdown saves shipping, not reads.
    assert on.entries_scanned == off.entries_scanned == KEYS


def test_group_by_ships_partial_states_not_rows(wide_env):
    sql = ('SELECT weight, SUM(value) AS s FROM "metrics" '
           "GROUP BY weight")
    on = QueryService(wide_env, pushdown=True).execute(sql)
    # At most one group state per (group, node).
    assert on.rows_shipped <= 7 * NODES
    assert len(on.result.rows) == 7


def test_multi_point_get_via_in_list(wide_env):
    service = QueryService(wide_env)
    execution = service.execute(
        'SELECT value FROM "metrics" WHERE key IN (3, 77, 500)'
    )
    assert execution.point_keys == (3, 77, 500)
    assert execution.entries_scanned == 3
    assert sorted(row["value"] for row in execution.result.rows) == \
        sorted([3 % 50, 77 % 50, 500 % 50])


def test_multi_point_get_via_or_equalities(wide_env):
    service = QueryService(wide_env)
    execution = service.execute(
        'SELECT value FROM "metrics" WHERE key = 5 OR key = 999'
    )
    assert execution.point_keys == (5, 999)
    assert execution.entries_scanned == 2
    assert len(execution.result.rows) == 2


def test_single_key_point_lookup_unchanged(wide_env):
    service = QueryService(wide_env)
    execution = service.execute(
        'SELECT value FROM "metrics" WHERE key = 42'
    )
    assert execution.point_keys == (42,)
    assert execution.entries_scanned == 1


def test_large_in_list_prunes_partitions_instead(wide_env):
    # 65 keys exceed the multi-point budget: the query scans, but the
    # key-set filter prunes every partition that can't hold them.
    keys = ", ".join(str(k) for k in range(65))
    service = QueryService(wide_env)
    execution = service.execute(
        f'SELECT COUNT(*) AS n FROM "metrics" WHERE key IN ({keys})'
    )
    assert execution.point_keys is None
    assert execution.result.rows[0]["n"] == 65
    assert execution.partitions_pruned > 0
    assert execution.entries_scanned < KEYS


def test_snapshot_range_scan_uses_zone_map_pruning(snapshot_env):
    # The job uses 20 keys, so every partition's (min, max) zone map
    # lies below 1000 and the range predicate prunes all of them.
    sql = 'SELECT COUNT(*) AS n FROM "snapshot_average" WHERE key > 1000'
    execution = QueryService(snapshot_env).execute(sql)
    baseline = QueryService(snapshot_env, pushdown=False).execute(sql)
    assert execution.result.rows == baseline.result.rows
    assert execution.result.rows[0]["n"] == 0
    assert execution.partitions_pruned > 0
    assert execution.entries_scanned == 0
    assert baseline.entries_scanned > 0


def test_snapshot_queries_identical_on_off(snapshot_env):
    ssid = snapshot_env.store.committed_ssid
    for sql in (
        'SELECT key, count, total FROM "snapshot_average" ORDER BY key',
        'SELECT COUNT(*) AS n, SUM(count) AS s FROM "snapshot_average"',
        f'SELECT key FROM "snapshot_average" WHERE ssid = {ssid} '
        "ORDER BY key",
    ):
        on = QueryService(snapshot_env, pushdown=True).execute(sql)
        off = QueryService(snapshot_env, pushdown=False).execute(sql)
        assert on.result.rows == off.result.rows


def test_all_versions_stays_on_legacy_path(snapshot_env):
    on = QueryService(snapshot_env, pushdown=True)
    execution = on.submit(
        'SELECT COUNT(*) AS n FROM "snapshot_average"', all_versions=True
    )
    snapshot_env.run_for(1_000)
    assert execution.done and execution.error is None
    assert execution.partitions_pruned == 0


def test_repeatable_read_locks_only_surviving_rows(wide_env):
    sql = 'SELECT key FROM "metrics" WHERE value = 0'
    on_env_locks = wide_env.store.locks
    before = on_env_locks.acquisitions
    QueryService(wide_env, repeatable_read=True,
                 pushdown=True).execute(sql)
    on_acquired = on_env_locks.acquisitions - before
    before = on_env_locks.acquisitions
    QueryService(wide_env, repeatable_read=True,
                 pushdown=False).execute(sql)
    off_acquired = on_env_locks.acquisitions - before
    assert on_acquired == KEYS // 50  # only rows passing the predicate
    assert off_acquired == KEYS


def test_counters_roll_up_into_cluster_report(wide_env):
    service = QueryService(wide_env)
    service.execute('SELECT key FROM "metrics" WHERE value = 0')
    keys = ", ".join(str(k) for k in range(65))
    service.execute(
        f'SELECT COUNT(*) AS n FROM "metrics" WHERE key IN ({keys})'
    )
    assert service.totals["rows_shipped"] > 0
    assert service.totals["bytes_shipped"] > 0
    assert service.totals["partitions_pruned"] > 0
    report = collect_report(wide_env)
    assert report.query_rows_shipped == service.totals["rows_shipped"]
    assert report.query_bytes_shipped == service.totals["bytes_shipped"]
    assert report.query_partitions_pruned == \
        service.totals["partitions_pruned"]
    assert "partitions pruned" in format_report(report)


def test_explain_shows_distributed_strategy(wide_env):
    service = QueryService(wide_env)
    plan = service.explain(
        'SELECT weight, SUM(value) AS s FROM "metrics" '
        "WHERE pad1 > 3 GROUP BY weight"
    )
    assert "pushed filter" in plan
    assert "partial aggregate" in plan
    point = service.explain(
        'SELECT value FROM "metrics" WHERE key IN (1, 2)'
    )
    assert "point lookup: 2 key(s)" in point
    # A point get sweeps no shard: nothing about scans or pushdown.
    assert "access path" not in point and "distributed" not in point
    off = QueryService(wide_env, pushdown=False).explain(
        'SELECT COUNT(*) FROM "metrics"'
    )
    assert "ship all rows" in off


def test_cost_model_flag_controls_default(wide_env):
    assert QueryService(wide_env).pushdown_enabled is True
    assert QueryService(wide_env,
                        pushdown=False).pushdown_enabled is False
