"""Standing-query engine: path classification and per-delta results.

The incremental paths must produce results *identical* to handing the
same rows to the batch SQL executor — these tests cross-check every
maintained result against ``execute_select`` over the same data.
"""

import pytest

from repro.continuous.standing import (
    PATH_FILTER_PROJECT,
    PATH_GROUPED_AGGREGATE,
    PATH_RESCAN,
    StandingQuery,
    classify,
)
from repro.sql import EvalContext, parse
from repro.sql.executor import execute_select
from repro.sql.planner import DictCatalog, ListTable
from repro.state.rows import live_row


class FakeStore:
    """Just enough of StateStore for classification."""

    def __init__(self, live=("orders",), snapshot=("snapshot_orders",)):
        self._live = set(live)
        self._snapshot = set(snapshot)

    def has_live_table(self, name):
        return name in self._live

    def has_snapshot_table(self, name):
        return name in self._snapshot


def make_standing(sql, store=None):
    return StandingQuery(sql, parse(sql), store or FakeStore(),
                         now=lambda: 1_000.0)


def batch_rows(sql, rows):
    """The batch executor's answer over the same live rows."""
    catalog = DictCatalog()
    catalog.add(ListTable("orders", tuple(rows.values())))
    result = execute_select(parse(sql), catalog,
                            EvalContext(now_ms=1_000.0))
    return result.rows


def assert_matches_batch(standing, rows):
    expected = batch_rows(standing.sql, rows)
    got = standing.current_rows()
    assert sorted(map(repr, got)) == sorted(map(repr, expected))


# -- classification ----------------------------------------------------------


@pytest.mark.parametrize("sql,path", [
    ('SELECT partitionKey, amount FROM "orders"', PATH_FILTER_PROJECT),
    ('SELECT * FROM "orders" WHERE amount > 5', PATH_FILTER_PROJECT),
    ('SELECT zone, COUNT(*), SUM(amount) FROM "orders" GROUP BY zone',
     PATH_GROUPED_AGGREGATE),
    ('SELECT COUNT(*) FROM "orders"', PATH_GROUPED_AGGREGATE),
    ('SELECT MIN(amount), MAX(amount), AVG(amount) FROM "orders"',
     PATH_GROUPED_AGGREGATE),
    # having on aggregates is fine
    ('SELECT zone, COUNT(*) FROM "orders" GROUP BY zone '
     'HAVING COUNT(*) > 2', PATH_GROUPED_AGGREGATE),
])
def test_incremental_classification(sql, path):
    chosen, _ = classify(parse(sql), FakeStore())
    assert chosen == path


@pytest.mark.parametrize("sql", [
    'SELECT COUNT(*) FROM "snapshot_orders"',            # snapshot table
    'SELECT * FROM "orders" ORDER BY amount',            # ranking
    'SELECT * FROM "orders" LIMIT 5',                    # ranking
    'SELECT DISTINCT zone FROM "orders"',                # dedup
    'SELECT COUNT(DISTINCT zone) FROM "orders"',         # distinct agg
    'SELECT * FROM "orders" WHERE ts < LOCALTIMESTAMP',  # time-dependent
    'SELECT amount, COUNT(*) FROM "orders" GROUP BY zone',  # non-key col
    'SELECT o.zone FROM "orders" o JOIN "snapshot_orders" s '
    'USING(partitionKey)',                               # join
    'SELECT zone FROM "orders" UNION ALL '
    'SELECT zone FROM "orders"',                         # union
])
def test_rescan_classification(sql):
    chosen, reason = classify(parse(sql), FakeStore())
    assert chosen == PATH_RESCAN
    assert reason  # every fallback explains itself


def test_explain_names_path():
    standing = make_standing(
        'SELECT zone, SUM(amount) FROM "orders" GROUP BY zone'
    )
    text = standing.explain()
    assert PATH_GROUPED_AGGREGATE in text
    assert "SUM" in text


# -- filter/project maintenance ----------------------------------------------


def test_filter_project_tracks_batch_executor():
    standing = make_standing(
        'SELECT partitionKey, amount FROM "orders" WHERE amount >= 10'
    )
    rows = {}

    def mutate(key, value):
        old = rows.get(key)
        if value is None:
            rows.pop(key, None)
            new = None
        else:
            new = live_row(key, value)
            rows[key] = new
        standing.on_delta(key, old, new)

    standing.seed({})
    mutate("a", {"amount": 5, "zone": "n"})    # filtered out
    mutate("b", {"amount": 15, "zone": "s"})   # included
    assert_matches_batch(standing, rows)
    mutate("a", {"amount": 20, "zone": "n"})   # crosses the predicate
    assert_matches_batch(standing, rows)
    mutate("b", {"amount": 1, "zone": "s"})    # falls back out
    assert_matches_batch(standing, rows)
    mutate("a", None)                          # deleted entirely
    assert_matches_batch(standing, rows)
    assert standing.rescans == 0


def test_filter_project_select_star():
    standing = make_standing('SELECT * FROM "orders" WHERE amount > 0')
    standing.seed({})
    row = live_row("k", {"amount": 3, "zone": "w"})
    entries = standing.on_delta("k", None, row)
    assert entries == [{"action": "upsert", "key": "k", "row": row}]
    # Unchanged value: no delta emitted.
    assert standing.on_delta("k", row, dict(row)) == []


# -- grouped aggregate maintenance -------------------------------------------


def make_agg(sql='SELECT zone, COUNT(*) AS n, SUM(amount) AS total, '
                 'AVG(amount) AS mean, MIN(amount) AS lo, '
                 'MAX(amount) AS hi FROM "orders" GROUP BY zone'):
    return make_standing(sql)


def drive(standing, mutations):
    rows = {}
    for key, value in mutations:
        old = rows.get(key)
        if value is None:
            rows.pop(key, None)
            new = None
        else:
            new = live_row(key, value)
            rows[key] = new
        standing.on_delta(key, old, new)
    return rows


def test_grouped_aggregates_match_batch_executor():
    standing = make_agg()
    standing.seed({})
    rows = drive(standing, [
        ("a", {"zone": "n", "amount": 10}),
        ("b", {"zone": "n", "amount": 20}),
        ("c", {"zone": "s", "amount": 5}),
        ("a", {"zone": "n", "amount": 12}),   # update in place
        ("b", {"zone": "s", "amount": 20}),   # moves groups
        ("c", None),                          # delete empties a group? no
        ("d", {"zone": "w", "amount": 7}),
    ])
    assert_matches_batch(standing, rows)
    assert standing.rescans == 0


def test_group_disappears_on_last_retract():
    standing = make_standing(
        'SELECT zone, COUNT(*) AS n FROM "orders" GROUP BY zone'
    )
    standing.seed({})
    drive(standing, [("a", {"zone": "n", "amount": 1})])
    assert standing.current_rows() == [{"zone": "n", "n": 1}]
    entries = standing.on_delta("a", live_row("a", {"zone": "n",
                                                    "amount": 1}), None)
    assert entries == [{"action": "delete", "key": ("n",), "row": None}]
    assert standing.current_rows() == []


def test_min_max_retract_falls_back_to_next_extreme():
    standing = make_standing(
        'SELECT MIN(amount) AS lo, MAX(amount) AS hi FROM "orders"'
    )
    standing.seed({})
    rows = drive(standing, [
        ("a", {"amount": 5}), ("b", {"amount": 9}), ("c", {"amount": 1}),
    ])
    assert standing.current_rows() == [{"lo": 1, "hi": 9}]
    # Retract the current extremes: the multiset must fall back.
    rows = dict(rows)
    standing.on_delta("c", rows.pop("c"), None)
    standing.on_delta("b", rows.pop("b"), None)
    assert standing.current_rows() == [{"lo": 5, "hi": 5}]
    assert standing.rescans == 0


def test_min_max_over_container_values_matches_executor():
    """MIN / MAX compare the values themselves, not a stand-in key."""
    standing = make_standing(
        'SELECT MIN(x) AS lo, MAX(x) AS hi FROM "orders"'
    )
    standing.seed({})
    rows = drive(standing, [
        ("a", {"x": [9]}), ("b", {"x": [10]}), ("c", {"x": [2, 1]}),
    ])
    assert standing.current_rows() == batch_rows(standing.sql, rows) == [
        {"lo": [2, 1], "hi": [10]}]
    standing.on_delta("b", rows.pop("b"), None)
    assert standing.current_rows() == batch_rows(standing.sql, rows) == [
        {"lo": [2, 1], "hi": [9]}]


def test_global_aggregate_over_empty_input_matches_executor():
    standing = make_standing(
        'SELECT COUNT(*) AS n, SUM(amount) AS total FROM "orders"'
    )
    standing.seed({})
    assert_matches_batch(standing, {})  # COUNT=0, SUM=NULL row
    rows = drive(standing, [("a", {"amount": 4})])
    assert_matches_batch(standing, rows)
    standing.on_delta("a", live_row("a", {"amount": 4}), None)
    assert_matches_batch(standing, {})


def test_having_filters_maintained_groups():
    standing = make_standing(
        'SELECT zone, COUNT(*) AS n FROM "orders" GROUP BY zone '
        'HAVING COUNT(*) >= 2'
    )
    standing.seed({})
    rows = drive(standing, [
        ("a", {"zone": "n", "amount": 1}),
        ("b", {"zone": "n", "amount": 1}),
        ("c", {"zone": "s", "amount": 1}),
    ])
    assert_matches_batch(standing, rows)  # only zone n qualifies
    standing.on_delta("b", rows.pop("b"), None)
    assert_matches_batch(standing, rows)  # n drops below the bar


def test_where_clause_gates_group_membership():
    standing = make_standing(
        'SELECT zone, SUM(amount) AS total FROM "orders" '
        'WHERE amount > 0 GROUP BY zone'
    )
    standing.seed({})
    rows = drive(standing, [
        ("a", {"zone": "n", "amount": 5}),
        ("b", {"zone": "n", "amount": -3}),   # excluded by WHERE
    ])
    assert_matches_batch(standing, rows)
    # Update flips b across the WHERE boundary.
    old = rows["b"]
    rows["b"] = live_row("b", {"zone": "n", "amount": 3})
    standing.on_delta("b", old, rows["b"])
    assert_matches_batch(standing, rows)


def test_seed_from_existing_rows():
    rows = {
        "a": live_row("a", {"zone": "n", "amount": 2}),
        "b": live_row("b", {"zone": "s", "amount": 8}),
    }
    standing = make_standing(
        'SELECT zone, COUNT(*) AS n FROM "orders" GROUP BY zone'
    )
    standing.seed(rows)
    assert_matches_batch(standing, rows)


def test_rescan_path_marks_dirty_only():
    standing = make_standing('SELECT DISTINCT zone FROM "orders"')
    standing.seed({})
    assert standing.dirty
    standing.set_published_rows([{"zone": "n"}])
    assert not standing.dirty
    assert standing.on_delta("a", None, live_row("a", {"zone": "s"})) == []
    assert standing.dirty
    assert standing.current_rows() == [{"zone": "n"}]
