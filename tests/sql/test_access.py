"""Tests for cost-based access-path selection (repro.sql.access)."""

from repro.config import CostModel
from repro.kvstore.indexes import EqProbe, RangeProbe
from repro.sql import parse
from repro.sql.access import choose_access_path, probe_for
from repro.sql.compiled import like_literal_prefix
from repro.sql.fragments import (
    KeyRange,
    KeySet,
    _prefix_upper_bound,
    extract_column_filter,
    extract_key_filter,
    split_select,
)
from repro.sql.planner import split_conjuncts


def column_filter_of(sql: str, column: str):
    select = parse(sql)
    return extract_column_filter(
        split_conjuncts(select.where), column, select.table.binding
    )


# -- LIKE prefix extraction --------------------------------------------------


def test_like_literal_prefix():
    assert like_literal_prefix("item-0%") == "item-0"
    assert like_literal_prefix("exact") == "exact"  # wildcard-free
    assert like_literal_prefix("%suffix") is None
    assert like_literal_prefix("a_c") == "a"
    assert like_literal_prefix("_") is None
    assert like_literal_prefix("") is None


def test_prefix_upper_bound():
    assert _prefix_upper_bound("abc") == "abd"
    assert _prefix_upper_bound("a") == "b"
    # A trailing max code point falls back to the previous character.
    top = chr(0x10FFFF)
    assert _prefix_upper_bound("a" + top) == "b"
    assert _prefix_upper_bound(top * 3) is None


def test_prefix_upper_bound_skips_surrogate_block():
    # Regression: a prefix ending in U+D7FF used to increment straight
    # into the surrogate block, producing a lone surrogate bound that
    # no UTF-8 serialization of the plan could encode.  The increment
    # must skip to U+E000, the first character after the block.
    bound = _prefix_upper_bound("a퟿")
    assert bound == "a"
    assert bound is not None and not any(
        0xD800 <= ord(ch) <= 0xDFFF for ch in bound
    )
    bound.encode("utf-8")  # must be a valid, encodable string
    # The bound is still correct: above the prefix and above every
    # real string that starts with it.
    assert "a퟿" < bound
    assert "a퟿￿" < bound
    # A LIKE over such a prefix builds the same surrogate-free range.
    like_range = column_filter_of(
        "SELECT * FROM \"t\" WHERE v LIKE 'a퟿%'", "v"
    )
    assert like_range == (
        KeyRange(low="a퟿", high="a", high_inclusive=False),
        True,  # the LIKE itself still re-checks each candidate
    )


# -- column filter extraction ------------------------------------------------


def test_equality_and_in_column_filters():
    assert column_filter_of(
        'SELECT * FROM "t" WHERE v = 5', "v"
    ) == (KeySet((5,)), False)
    assert column_filter_of(
        'SELECT * FROM "t" WHERE v IN (3, 1, 3)', "v"
    ) == (KeySet((3, 1)), False)


def test_range_and_between_column_filters():
    assert column_filter_of(
        'SELECT * FROM "t" WHERE v > 10 AND v <= 20', "v"
    ) == (KeyRange(low=10, high=20, low_inclusive=False), False)
    assert column_filter_of(
        'SELECT * FROM "t" WHERE v BETWEEN 2 AND 9', "v"
    ) == (KeyRange(low=2, high=9), False)


def test_like_prefix_column_filter_is_a_string_range():
    extracted = column_filter_of(
        "SELECT * FROM \"t\" WHERE label LIKE 'item-0%'", "label"
    )
    assert extracted == (
        KeyRange(low="item-0", high="item-1", high_inclusive=False),
        True,  # bounds constrain str(value): needs_str
    )


def test_wildcard_free_like_is_an_exact_string_match():
    assert column_filter_of(
        "SELECT * FROM \"t\" WHERE label LIKE 'item-1'", "label"
    ) == (KeySet(("item-1",)), True)


def test_negated_and_leading_wildcard_like_do_not_contribute():
    assert column_filter_of(
        "SELECT * FROM \"t\" WHERE label NOT LIKE 'item%'", "label"
    ) is None
    assert column_filter_of(
        "SELECT * FROM \"t\" WHERE label LIKE '%-1'", "label"
    ) is None


def test_like_and_equality_filters_intersect():
    extracted = column_filter_of(
        "SELECT * FROM \"t\" WHERE label LIKE 'item%' "
        "AND label IN ('item-1', 'other')", "label"
    )
    assert extracted == (KeySet(("item-1",)), True)


def test_unrestricted_column_yields_none():
    assert column_filter_of(
        'SELECT * FROM "t" WHERE v = 1', "other"
    ) is None
    assert column_filter_of('SELECT * FROM "t"', "v") is None


def test_like_never_feeds_key_filters():
    # str-coerced bounds are unsound for raw-key routing: the key
    # extractor must ignore LIKE even on the key column.
    select = parse("SELECT * FROM \"t\" WHERE key LIKE 'a%'")
    assert extract_key_filter(
        split_conjuncts(select.where), "key", select.table.binding
    ) is None


# -- probe translation -------------------------------------------------------


def test_probe_for_key_set_strips_nulls():
    probe = probe_for(KeySet((1, None, 2)), needs_str=False)
    assert probe == EqProbe((1, 2))


def test_probe_for_key_range_copies_bounds():
    probe = probe_for(
        KeyRange(low=3, high=9, low_inclusive=False), needs_str=True
    )
    assert probe == RangeProbe(low=3, high=9, low_inclusive=False,
                               needs_str=True)


# -- the chooser -------------------------------------------------------------


class FakeView:
    """Per-partition candidate counts the chooser prices against."""

    def __init__(self, columns, counts):
        self._columns = columns
        self._counts = counts  # (partition, column) -> (probes, cands)

    def index_columns(self):
        return self._columns

    def index_probe_count(self, partition, column, probe):
        return self._counts.get((partition, column))


COSTS = CostModel()


def fragment_of(sql: str):
    plan = split_select(parse(sql))
    return plan.fragments[parse(sql).table.name]


def test_selective_equality_chooses_index_eq():
    fragment = fragment_of('SELECT * FROM "t" WHERE v = 5')
    view = FakeView({"v": "hash"}, {(0, "v"): (1, 3), (1, "v"): (1, 2)})
    choice = choose_access_path(fragment, view, [0, 1], 1000, COSTS)
    assert choice.kind == "index-eq"
    assert choice.column == "v"
    assert choice.probes == 2
    assert choice.candidates == 5
    assert choice.cost_ms < choice.scan_cost_ms
    assert "index probe on 'v'" in choice.describe()


def test_selective_range_chooses_index_range():
    fragment = fragment_of('SELECT * FROM "t" WHERE v BETWEEN 2 AND 4')
    view = FakeView({"v": "sorted"}, {(0, "v"): (1, 10)})
    choice = choose_access_path(fragment, view, [0], 1000, COSTS)
    assert choice.kind == "index-range"
    assert "index range on 'v'" in choice.describe()


def test_non_selective_predicate_keeps_full_scan():
    fragment = fragment_of('SELECT * FROM "t" WHERE v = 5')
    # The index resolves nearly every row: probing cannot win.
    view = FakeView({"v": "hash"}, {(0, "v"): (1, 1000)})
    choice = choose_access_path(fragment, view, [0], 1000, COSTS)
    assert choice.kind == "scan"
    assert choice.candidates == choice.scan_entries == 1000
    assert "full scan" in choice.describe()


def test_hash_index_rejects_range_probes():
    fragment = fragment_of('SELECT * FROM "t" WHERE v > 5')
    view = FakeView({"v": "hash"}, {(0, "v"): (1, 0)})
    choice = choose_access_path(fragment, view, [0], 1000, COSTS)
    assert choice.kind == "scan"


def test_unprobeable_partition_vetoes_the_index_path():
    fragment = fragment_of('SELECT * FROM "t" WHERE v = 5')
    view = FakeView({"v": "hash"}, {(0, "v"): (1, 1)})  # 1 missing
    choice = choose_access_path(fragment, view, [0, 1], 1000, COSTS)
    assert choice.kind == "scan"


def test_unrestricted_index_column_is_skipped():
    fragment = fragment_of('SELECT * FROM "t" WHERE other = 1')
    view = FakeView({"v": "hash"}, {(0, "v"): (1, 0)})
    choice = choose_access_path(fragment, view, [0], 1000, COSTS)
    assert choice.kind == "scan"


def test_only_a_leading_conjuncts_column_is_indexed():
    # ``w``'s index is the cheaper one, but a row it skips could still
    # raise on ``v = 5`` (a row without ``v``), written first: only the
    # leading conjunct's column may skip rows unread.
    view = FakeView(
        {"v": "hash", "w": "hash"},
        {(0, "v"): (1, 200), (0, "w"): (1, 4)},
    )
    for sql, column in [('SELECT * FROM "t" WHERE v = 5 AND w = 2', "v"),
                        ('SELECT * FROM "t" WHERE w = 2 AND v = 5', "w"),
                        # a key equality raises on no row: it leads no one
                        ('SELECT * FROM "t" WHERE key IN (1, 2) AND w = 2 '
                         "AND v = 5", "w")]:
        choice = choose_access_path(fragment_of(sql), view, [0], 1000, COSTS)
        assert choice.kind == "index-eq"
        assert choice.column == column
        other = "w" if column == "v" else "v"
        assert f"index hash({other!r}): no leading pushed" in \
            " ".join(choice.rejected)


def test_surcharge_prices_both_paths():
    # The fragment's bounded-state stage is a per-entry surcharge on
    # whichever path reads the entries.
    view = FakeView({"v": "hash"}, {(0, "v"): (1, 100)})
    flat = choose_access_path(
        fragment_of('SELECT w FROM "t" WHERE v = 5'),
        view, [0], 1000, COSTS,
    )
    taxed = choose_access_path(
        fragment_of('SELECT COUNT(*) FROM "t" WHERE v = 5'),
        view, [0], 1000, COSTS,
    )
    assert taxed.cost_ms > flat.cost_ms
    assert taxed.scan_cost_ms > flat.scan_cost_ms
    # The surcharge applies per candidate vs per scanned row, so the
    # selective index win only widens.
    assert taxed.scan_cost_ms - taxed.cost_ms > \
        flat.scan_cost_ms - flat.cost_ms
