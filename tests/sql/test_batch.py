"""Tests for columnar batch execution (repro.sql.batch).

Whatever the chunk size, the batch path must produce what a row-major
sweep (row by row, conjunct by conjunct) produces: same survivors in
the same order, same partial-group contents, and the same first error
when a pushed expression fails.  Expectations are recomputed from
``ROWS`` with plain comprehensions or spelled literally, so they share
no code with the evaluator under test.
"""

import functools
from fractions import Fraction

import pytest

from repro.errors import SqlExecutionError
from repro.sql import EvalContext, parse
from repro.sql.batch import (
    BatchAccumulator,
    CompiledFragment,
    compile_fragment,
    run_fragment_batches,
)
from repro.sql.batch import finish_groups
from repro.sql.fragments import (
    PartialGroups,
    merge_partial_groups,
    split_select,
)
from repro.sql.lru import LruCache

CTX = EvalContext(now_ms=0.0)

ROWS = [
    {"key": k, "partitionKey": k, "value": k % 5, "weight": k % 3,
     "tag": ("alpha", "beta", None)[k % 3], "pad": k * 10}
    for k in range(23)
]


def fragment_of(sql: str):
    plan = split_select(parse(sql))
    return plan, plan.fragment("t")


def first_seen(values):
    return list(dict.fromkeys(values))


def groups_as_rows(plan, payload):
    merged = merge_partial_groups([payload], plan.partial, "t")
    return finish_groups(plan.final_select, merged, CTX).rows


@pytest.mark.parametrize("chunk", [1, 4, 7, 100])
def test_projection_fragment_matches_interpreted(chunk):
    plan, fragment = fragment_of(
        'SELECT key, value FROM "t" WHERE value < 3 AND key > 2'
    )
    compiled = CompiledFragment(fragment)
    lock_rows, payload, batches = run_fragment_batches(
        compiled, ROWS, CTX, chunk
    )
    expected_locks = [
        raw for raw in ROWS if raw["value"] < 3 and raw["key"] > 2
    ]
    assert lock_rows == expected_locks
    assert all(got is raw for got, raw in zip(lock_rows, expected_locks))
    assert payload.rows() == [
        {"key": raw["key"], "value": raw["value"]}
        for raw in expected_locks
    ]
    assert batches == (len(ROWS) + chunk - 1) // chunk


@pytest.mark.parametrize("chunk", [1, 6, 100])
def test_partial_aggregate_fragment_matches_interpreted(chunk):
    sql = ('SELECT weight, SUM(value) AS s, COUNT(*) AS c, '
           'MIN(value) AS lo FROM "t" WHERE value <> 1 '
           "GROUP BY weight ORDER BY weight")
    plan, fragment = fragment_of(sql)
    compiled = CompiledFragment(fragment)
    lock_rows, payload, _ = run_fragment_batches(
        compiled, ROWS, CTX, chunk
    )
    survivors = [raw for raw in ROWS if raw["value"] != 1]
    assert lock_rows == survivors
    assert isinstance(payload, PartialGroups)
    # Groups appear in first-seen order, each represented by the
    # columns the finalize stage reads outside aggregate arguments...
    weights = first_seen(raw["weight"] for raw in survivors)
    assert [(key, rep) for key, rep, _ in payload.entries] == \
        [((weight,), {"weight": weight}) for weight in weights]
    # ...and the merged final result carries the accumulator states.
    members = {
        weight: [raw["value"] for raw in survivors
                 if raw["weight"] == weight]
        for weight in weights
    }
    assert groups_as_rows(plan, payload) == [
        {"weight": weight, "s": sum(members[weight]),
         "c": len(members[weight]), "lo": min(members[weight])}
        for weight in sorted(weights)
    ]


def test_null_heavy_group_keys_match():
    sql = ('SELECT tag, COUNT(*) AS c FROM "t" GROUP BY tag '
           "ORDER BY c")
    plan, fragment = fragment_of(sql)
    compiled = CompiledFragment(fragment)
    _, payload, _ = run_fragment_batches(compiled, ROWS, CTX, 5)
    # NULL is a group key like any other, in first-seen position.
    assert [entry[0] for entry in payload.entries] == \
        [("alpha",), ("beta",), (None,)]
    # ORDER BY c is stable: alpha and beta tie at 8 in group order.
    assert groups_as_rows(plan, payload) == [
        {"tag": None, "c": 7}, {"tag": "alpha", "c": 8},
        {"tag": "beta", "c": 8},
    ]


def error_rows():
    rows = [dict(raw) for raw in ROWS]
    rows[9]["value"] = "boom"   # first error in row-major order
    rows[15]["value"] = object()  # later error must not win
    return rows


@pytest.mark.parametrize("chunk", [1, 4, 100])
def test_first_error_matches_interpreted_sweep(chunk):
    _, fragment = fragment_of('SELECT key FROM "t" WHERE value < 3')
    compiled = CompiledFragment(fragment)
    rows = error_rows()
    with pytest.raises(SqlExecutionError) as batch_error:
        run_fragment_batches(compiled, rows, CTX, chunk)
    # Row 9's error, never row 15's ("cannot compare object with int").
    assert str(batch_error.value) == "cannot compare str with int"


def test_error_in_aggregate_feed_matches_interpreted():
    _, fragment = fragment_of(
        'SELECT weight, SUM(value) AS s FROM "t" GROUP BY weight'
    )
    compiled = CompiledFragment(fragment)
    rows = [dict(raw) for raw in ROWS]
    del rows[7]["value"]  # unknown column mid-chunk
    with pytest.raises(SqlExecutionError) as batch_error:
        run_fragment_batches(compiled, rows, CTX, 10)
    assert str(batch_error.value) == "unknown column 'value'"


@pytest.mark.parametrize("chunk", [1, 2, 100])
def test_a_rows_first_error_is_the_first_in_evaluation_order(chunk):
    # Row by row a group's key, then each aggregate's feed and add in
    # turn: the terms are evaluated column by column, but when one row
    # fails twice what raises is still what fails first in that order.
    _, fragment = fragment_of(
        'SELECT weight, SUM(value) AS s, MIN(pad) AS lo, MAX(tag) AS hi '
        'FROM "t" GROUP BY weight'
    )
    compiled = CompiledFragment(fragment)
    rows = [dict(raw) for raw in ROWS[:6]]
    del rows[4]["pad"]         # MIN's feed cannot be read on row 4 ...
    assert rows[1]["weight"] == rows[4]["weight"]
    for expected, spoil in [
        ("unknown column 'pad'", lambda: None),
        # ... MAX's add fails there too, but MIN comes first ...
        ("unknown column 'pad'", lambda: rows[4].update(tag=7)),
        # ... and SUM's add before either.
        ("cannot apply SUM to str",
         lambda: rows[4].update(value="text")),
        # An earlier row's later aggregate beats them all.
        ("unknown column 'tag'", lambda: rows[3].pop("tag")),
        ("unknown column 'weight'", lambda: rows[2].pop("weight")),
    ]:
        spoil()
        with pytest.raises(SqlExecutionError) as error:
            run_fragment_batches(compiled, rows, CTX, chunk)
        assert str(error.value) == expected


@pytest.mark.parametrize("chunk", [1, 2, 100])
def test_extremes_over_types_that_do_not_order_raise_at_the_result(chunk):
    # MIN / MAX hold every type they meet: a group holding an int and a
    # string is no row's error, so a later row's still comes first, and
    # with none the finished groups raise what every path raises.
    plan, fragment = fragment_of(
        'SELECT weight, SUM(value) AS s, MAX(tag) AS hi FROM "t" '
        'GROUP BY weight'
    )
    compiled = CompiledFragment(fragment)
    rows = [dict(raw) for raw in ROWS[:6]]
    rows[3]["tag"] = 7
    assert rows[3]["weight"] == rows[0]["weight"]
    _locks, payload, _batches = run_fragment_batches(
        compiled, rows, CTX, chunk)
    with pytest.raises(SqlExecutionError) as error:
        groups_as_rows(plan, payload)
    assert str(error.value) == "cannot compare int with str"
    rows[5]["value"] = "text"
    with pytest.raises(SqlExecutionError) as error:
        run_fragment_batches(compiled, rows, CTX, chunk)
    assert str(error.value) == "cannot apply SUM to str"


class Unkeyable:
    """A value no GROUP BY key can be made of."""

    __hash__ = None


@pytest.mark.parametrize("chunk", [1, 2, 100])
def test_a_key_that_cannot_be_made_raises_in_row_order(chunk):
    # Keys are made column by column, yet what raises is the first
    # failure of a row-at-a-time pass: an earlier row's second part
    # before a later row's first, an earlier row's add before a later
    # row's key, a row's key part before the next part's read.
    _, fragment = fragment_of(
        'SELECT weight, tag, SUM(value) AS s FROM "t" GROUP BY weight, tag'
    )
    compiled = CompiledFragment(fragment)
    for expected, spoil in [
        ("cannot compare bytearray values",
         lambda rows: rows[4].update(weight=Unkeyable())
         or rows[2].update(tag=bytearray())),
        ("cannot apply SUM to str",
         lambda rows: rows[3].update(tag=bytearray())
         or rows[1].update(value="text")),
        ("cannot compare Unkeyable values",
         lambda rows: rows[2].update(weight=Unkeyable())
         or rows[2].pop("tag")),
    ]:
        rows = [dict(raw) for raw in ROWS[:6]]
        spoil(rows)
        with pytest.raises(SqlExecutionError) as error:
            run_fragment_batches(compiled, rows, CTX, chunk)
        assert str(error.value) == expected


def test_eliminated_rows_never_error():
    # A row killed by an earlier conjunct must not surface errors from
    # later conjuncts — conjunct-major order preserves the row-major
    # early-exit exactly.
    _, fragment = fragment_of(
        'SELECT key FROM "t" WHERE value < 2 AND pad / value > 0'
    )
    compiled = CompiledFragment(fragment)
    rows = [
        {"key": 0, "partitionKey": 0, "value": 0, "pad": 10},  # v<2, /0!
        {"key": 1, "partitionKey": 1, "value": 9, "pad": 10},  # killed
        {"key": 2, "partitionKey": 2, "value": 1, "pad": 10},
    ]
    with pytest.raises(SqlExecutionError) as batch_error:
        run_fragment_batches(compiled, rows, CTX, 10)
    assert str(batch_error.value) == "division by zero"
    # Without the erroring row, the killed row is silently dropped.
    lock_rows, payload, _ = run_fragment_batches(
        compiled, rows[1:], CTX, 10
    )
    assert lock_rows == [rows[2]] and payload.rows() == [{"key": 2}]


def test_fragment_cache_hits_on_identical_shape():
    _, fragment = fragment_of('SELECT key FROM "t" WHERE value < 4')
    _, plan_fragment = fragment_of('SELECT key FROM "t" WHERE value < 4')
    cache = LruCache(4)
    first, first_hit = compile_fragment(fragment, cache)
    again, again_hit = compile_fragment(plan_fragment, cache)
    assert again is first  # frozen fragments hash by value
    assert (first_hit, again_hit) == (False, True)
    assert (cache.hits, cache.misses) == (1, 1)
    # Another cache (another query service) compiles for itself.
    other, other_hit = compile_fragment(fragment, LruCache(4))
    assert other is not first and other_hit is False


def test_batch_accumulator_survivor_order_is_row_order():
    _, fragment = fragment_of('SELECT key FROM "t" WHERE value >= 0')
    compiled = CompiledFragment(fragment)
    acc = BatchAccumulator(compiled, CTX)
    survivors = acc.add_batch(list(reversed(ROWS)))
    assert [row["key"] for row in survivors] == \
        [raw["key"] for raw in reversed(ROWS)]
    assert acc.survived == len(ROWS)


# -- top-k stage ---------------------------------------------------------------

#: Heavy ties (value has 5 distinct values, tag 2 and NULL): which rows
#: of a tie group are held is decided by scan order alone.  Each case
#: is ``(sql, survives, [(column, descending), ...])``.
TOP_K_CASES = [
    ('SELECT key FROM "t" ORDER BY value LIMIT 4',
     lambda raw: True, [("value", False)]),
    ('SELECT key FROM "t" ORDER BY value DESC LIMIT 7',
     lambda raw: True, [("value", True)]),
    ('SELECT key FROM "t" ORDER BY tag, value DESC LIMIT 6',
     lambda raw: True, [("tag", False), ("value", True)]),
    ('SELECT key FROM "t" ORDER BY tag DESC, weight DESC LIMIT 9 OFFSET 2',
     lambda raw: True, [("tag", True), ("weight", True)]),
    ('SELECT key FROM "t" WHERE pad > 40 ORDER BY weight LIMIT 3',
     lambda raw: raw["pad"] > 40, [("weight", False)]),
    # Later rows that tie the held bound on the first term still enter.
    ('SELECT key FROM "t" ORDER BY weight DESC, key DESC LIMIT 2',
     lambda raw: True, [("weight", True), ("key", True)]),
    ('SELECT key FROM "t" ORDER BY weight, pad DESC LIMIT 4',
     lambda raw: True, [("weight", False), ("pad", True)]),
]


def ranked(rows, terms):
    """``rows`` in ORDER BY order by pairwise comparison: NULLs last in
    either direction, ties left in input order (``sorted`` is stable)."""

    def compare(left, right):
        for column, descending in terms:
            a, b = left[column], right[column]
            if a is None or b is None:
                if (a is None) != (b is None):
                    return 1 if a is None else -1
            elif a != b:
                return -1 if (a < b) != descending else 1
        return 0

    return sorted(rows, key=functools.cmp_to_key(compare))


@pytest.mark.parametrize("sql,survives,terms", TOP_K_CASES)
def test_top_k_holds_the_first_rows_of_the_stable_order(sql, survives,
                                                        terms):
    _, fragment = fragment_of(sql)
    compiled = CompiledFragment(fragment)
    keep = fragment.top_k.keep
    survivors = [raw for raw in ROWS if survives(raw)]
    assert len(survivors) > keep
    expected = [raw["key"] for raw in ranked(survivors, terms)[:keep]]
    for chunk in (1, 7, 256):
        lock_rows, payload, batches = run_fragment_batches(
            compiled, ROWS, CTX, chunk, keep
        )
        # The held rows — and their order — never depend on the
        # chunking; the lock set stays every survivor.
        assert [row["key"] for row in payload.rows()] == expected, chunk
        assert lock_rows == survivors
        assert batches == (len(ROWS) + chunk - 1) // chunk
    # Without the stage every survivor ships, in scan order.
    _, payload, _ = run_fragment_batches(compiled, ROWS, CTX, 7)
    assert [row["key"] for row in payload.rows()] == \
        [raw["key"] for raw in survivors]


def test_a_groups_slice_folds_to_the_bits_of_one_add_per_row():
    # Float sums are exact, rounded once (1e16 + 1.0 + 1.0 is not 1e16),
    # MIN / MAX keep the first of tied values (-0.0 and 0.0), and NaN
    # ranks above every number.
    xs = (1e16, 1.0, 1.0, 0.1, None, 2.5, 3, -0.0, 1.0)
    ys = (-0.0, 0.0, None, float("nan"), 2.5, -1.5, 0.0)
    rows = [{"key": k, "partitionKey": k, "g": k % 2, "x": xs[k % 9],
             "y": ys[k % 7]} for k in range(80)]
    _, fragment = fragment_of(
        'SELECT g, SUM(x) AS s, AVG(x) AS a, MIN(y) AS lo, MAX(y) AS hi, '
        'COUNT(y) AS n FROM "t" GROUP BY g'
    )
    expected = {}
    for g in (0, 1):
        group = [raw for raw in rows if raw["g"] == g]
        present = [raw["x"] for raw in group if raw["x"] is not None]
        total = float(sum(map(Fraction, present)))
        held = [raw["y"] for raw in group if raw["y"] is not None]
        numbers = [y for y in held if y == y]
        expected[(g,)] = [total, total / len(present), min(numbers),
                          float("nan"), len(held)]

    def bits(values):
        return [(type(value), value.hex() if isinstance(value, float)
                 else value) for value in values]

    for chunk in (1, 7, 256):
        _, payload, _ = run_fragment_batches(
            CompiledFragment(fragment), rows, CTX, chunk
        )
        assert {
            key: bits(acc.result() for acc in accs)
            for key, _rep, accs in payload.entries
        } == {key: bits(values) for key, values in expected.items()}, chunk


def test_top_k_never_originates_an_error():
    _, fragment = fragment_of(
        'SELECT key FROM "t" WHERE key <> 3 ORDER BY value LIMIT 2'
    )
    compiled = CompiledFragment(fragment)
    rows = [dict(raw) for raw in ROWS]
    rows[20]["value"] = "text"  # cannot be ranked against the ints
    for chunk in (1, 7, 256):
        lock_rows, payload, _ = run_fragment_batches(
            compiled, rows, CTX, chunk, 2
        )
        # The shard ships every survivor, untruncated and in scan order:
        # the error is the final ORDER BY's to raise.
        assert [row["key"] for row in payload.rows()] == \
            [raw["key"] for raw in rows if raw["key"] != 3]
        assert lock_rows == [raw for raw in rows if raw["key"] != 3]
    # A key that fails to evaluate abandons the stage the same way...
    del rows[20]["value"]
    _, payload, _ = run_fragment_batches(compiled, rows, CTX, 7, 2)
    assert len(payload) == len(rows) - 1
    # ...and a WHERE error still wins, wherever the two rows sit.
    rows[22]["key"] = "k"
    _, where_fragment = fragment_of(
        'SELECT key FROM "t" WHERE key < 100 ORDER BY value LIMIT 2'
    )
    with pytest.raises(SqlExecutionError) as error:
        run_fragment_batches(
            CompiledFragment(where_fragment), rows, CTX, 7, 2
        )
    assert str(error.value) == "cannot compare str with int"
