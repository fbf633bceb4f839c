"""Tests for EXPLAIN plan rendering."""

from repro.sql.explain import explain
from repro.sql.planner import DictCatalog, ListTable


def catalog():
    return DictCatalog({
        "a": ListTable("a", ({"k": 1, "x": 1},)),
        "b": ListTable("b", ({"k": 1, "y": 2},)),
    })


def test_simple_scan_plan():
    text = explain("SELECT x FROM a", catalog())
    assert "select: x" in text
    assert "scan: a" in text


def test_filter_rendered():
    text = explain("SELECT x FROM a WHERE x > 3 AND k = 1", catalog())
    assert "filter:" in text
    assert ">" in text


def test_hash_join_using_identified():
    text = explain("SELECT x, y FROM a JOIN b USING(k)", catalog())
    assert "hash join USING(k)" in text
    assert "with b" in text


def test_hash_join_on_identified():
    text = explain("SELECT x FROM a JOIN b ON a.k = b.k", catalog())
    assert "hash join ON a.k = b.k" in text


def test_nested_loop_identified():
    text = explain("SELECT x FROM a JOIN b ON a.k < b.k", catalog())
    assert "nested-loop join" in text


def test_aggregate_and_group_by():
    text = explain(
        "SELECT k, COUNT(*) FROM a GROUP BY k HAVING COUNT(*) > 1",
        catalog(),
    )
    assert "aggregate: group by k" in text
    assert "having:" in text


def test_order_and_limit():
    text = explain("SELECT x FROM a ORDER BY x DESC LIMIT 5", catalog())
    assert "sort: x DESC" in text
    assert "limit 5" in text


def test_table_alias_shown():
    text = explain("SELECT t.x FROM a t", catalog())
    assert "scan: a AS t" in text


def test_union_plan():
    text = explain(
        "SELECT x FROM a UNION ALL SELECT y FROM b", catalog()
    )
    assert text.startswith("UNION ALL [2 branches]")
    assert "branch 1:" in text and "branch 2:" in text


def test_distinct_shown():
    text = explain("SELECT DISTINCT x FROM a", catalog())
    assert "select distinct" in text


def test_distributed_plan_shows_the_top_k_stage():
    from repro.sql import parse
    from repro.sql.explain import render_distributed
    from repro.sql.fragments import split_select

    def rendered(sql):
        select = parse(sql)
        return render_distributed(select, split_select(select))

    lines = rendered(
        'SELECT key, pad2 FROM "metrics" ORDER BY pad2 DESC LIMIT 20'
    )
    assert "  final: merge top-k (sort shipped rows, cut)" in lines
    assert "    top-k: ORDER BY pad2 DESC LIMIT 20 " \
        "(≤ 20 rows per shard)" in lines
    lines = rendered('SELECT key FROM "metrics" WHERE pad1 > 3 '
                     "ORDER BY pad2, key DESC LIMIT 20 OFFSET 5")
    assert "    top-k: ORDER BY pad2, key DESC LIMIT 20 OFFSET 5 " \
        "(≤ 25 rows per shard)" in lines
    # Without a LIMIT the sort stays where it was.
    lines = rendered('SELECT key FROM "metrics" ORDER BY pad2')
    assert "  final: concatenate shipped rows" in lines
    assert not any("top-k" in line for line in lines)
