"""APPROX SQL surface: parsing, planning, shape analysis, pricing.

Covers the lexer/parser flag, the planner's aggregate-only rule, the
sketch-answerable shape analysis, the cost chooser's sketch candidate,
and the per-candidate rejection reasons threaded into explain output
(the regression surface for access-path debugging).
"""

import pytest

from repro.approx.planning import analyze_approx_select
from repro.config import CostModel
from repro.errors import SqlParseError, SqlPlanError
from repro.sql.access import SketchCandidate, choose_access_path
from repro.sql.ast import Select
from repro.sql.executor import execute_select
from repro.sql.fragments import ScanFragment, split_select
from repro.sql.parser import parse
from repro.sql.planner import DictCatalog, ListTable, plan_select


def parse_select(sql: str) -> Select:
    statement = parse(sql)
    assert isinstance(statement, Select)
    return statement


class TestParsing:
    def test_approx_flag_set(self):
        select = parse_select("SELECT APPROX COUNT(*) FROM t WHERE v = 1")
        assert select.approx

    def test_plain_select_not_approx(self):
        assert not parse_select("SELECT COUNT(*) FROM t").approx

    def test_approx_before_distinct(self):
        select = parse_select("SELECT APPROX COUNT(DISTINCT v) FROM t")
        assert select.approx and not select.distinct

    def test_approx_must_follow_select(self):
        with pytest.raises(SqlParseError):
            parse("SELECT COUNT(*) APPROX FROM t")


class TestPlanning:
    def test_approx_requires_aggregate(self):
        catalog = DictCatalog({"t": ListTable("t", ())})
        with pytest.raises(SqlPlanError):
            plan_select(parse_select("SELECT APPROX v FROM t"), catalog)
        plan = plan_select(
            parse_select("SELECT APPROX COUNT(*) FROM t WHERE v = 1"),
            catalog,
        )
        assert plan.is_aggregate

    def test_approx_survives_fragment_split(self):
        select = parse_select(
            "SELECT APPROX COUNT(*) AS n FROM t WHERE v = 1"
        )
        plan = split_select(select)
        assert plan.final_select.approx


class TestShapeAnalysis:
    def test_count_star_with_equality(self):
        aggregate = analyze_approx_select(parse_select(
            "SELECT APPROX COUNT(*) FROM t WHERE v = 7"
        ))
        assert aggregate.mode == "count_eq"
        assert aggregate.column == "v" and aggregate.value == 7
        assert aggregate.kind == "countmin"

    def test_count_distinct(self):
        aggregate = analyze_approx_select(parse_select(
            "SELECT APPROX COUNT(DISTINCT zone) FROM t"
        ))
        assert aggregate.mode == "distinct" and aggregate.column == "zone"

    def test_sum_and_avg(self):
        assert analyze_approx_select(parse_select(
            "SELECT APPROX SUM(x) FROM t"
        )).mode == "sum"
        assert analyze_approx_select(parse_select(
            "SELECT APPROX AVG(x) FROM t"
        )).mode == "avg"

    def test_ssid_pin_recognised(self):
        aggregate = analyze_approx_select(parse_select(
            "SELECT APPROX COUNT(*) FROM t WHERE v = 7 AND ssid = 3"
        ))
        assert aggregate.ssid_eq == 3 and aggregate.value == 7

    @pytest.mark.parametrize("sql", [
        "SELECT COUNT(*) FROM t WHERE v = 1",            # not APPROX
        "SELECT APPROX COUNT(*) FROM t",                 # no equality
        "SELECT APPROX COUNT(*) FROM t WHERE v > 1",     # range
        "SELECT APPROX COUNT(*) FROM t WHERE v = 1 OR v = 2",
        "SELECT APPROX COUNT(*) FROM t WHERE v = 1 AND g = 2",
        "SELECT APPROX COUNT(*), SUM(x) FROM t WHERE v = 1",
        "SELECT APPROX SUM(x) FROM t WHERE v = 1",       # filtered SUM
        "SELECT APPROX SUM(x + 1) FROM t",               # expression
        "SELECT APPROX COUNT(DISTINCT v) FROM t WHERE v = 1",
        "SELECT APPROX COUNT(*) FROM t WHERE v = NULL",
        "SELECT APPROX SUM(x) FROM t GROUP BY g",
        "SELECT APPROX AVG(x) FROM t ORDER BY 1 LIMIT 1",
        "SELECT APPROX COUNT(*) FROM t JOIN u USING(k) WHERE v = 1",
    ])
    def test_unsupported_shapes_fall_back(self, sql):
        statement = parse(sql)
        if isinstance(statement, Select):
            assert analyze_approx_select(statement) is None


class _SketchlessView:
    """Minimal table view for the chooser: no indexes."""

    def index_columns(self):
        return {}

    def index_probe_count(self, partition, column, probe):
        raise AssertionError("no indexes to probe")


class TestAccessPathPricing:
    COSTS = CostModel()

    def fragment(self):
        select = parse_select(
            "SELECT APPROX COUNT(*) AS n FROM t WHERE v = 1"
        )
        return ScanFragment(table="t", binding="t",
                            pushed=tuple([select.where]))

    def test_sketch_wins_on_large_scans(self):
        choice = choose_access_path(
            self.fragment(), _SketchlessView(), list(range(16)),
            scan_entries=50_000, costs=self.COSTS,
            sketch=SketchCandidate("countmin('v')", probes=16),
        )
        assert choice.kind == "sketch"
        assert choice.probes == 16 and choice.candidates == 0
        assert choice.cost_ms < choice.scan_cost_ms
        assert "sketch countmin('v')" in choice.describe()

    def test_scan_wins_on_tiny_tables(self):
        choice = choose_access_path(
            self.fragment(), _SketchlessView(), list(range(16)),
            scan_entries=10, costs=self.COSTS,
            sketch=SketchCandidate("countmin('v')", probes=16),
        )
        assert choice.kind == "scan"

    def test_rejection_reasons_for_losing_candidates(self):
        # Sketch loses: the reason names it with both estimates.
        choice = choose_access_path(
            self.fragment(), _SketchlessView(), list(range(16)),
            scan_entries=10, costs=self.COSTS,
            sketch=SketchCandidate("countmin('v')", probes=16),
        )
        assert any(
            reason.startswith("sketch countmin('v'): est.")
            for reason in choice.rejected
        )
        # Sketch wins: the full scan's displacement is recorded.
        choice = choose_access_path(
            self.fragment(), _SketchlessView(), list(range(16)),
            scan_entries=50_000, costs=self.COSTS,
            sketch=SketchCandidate("countmin('v')", probes=16),
        )
        assert any(
            reason.startswith("full scan: est.")
            for reason in choice.rejected
        )

    def test_disabled_indexes_are_not_priced(self):
        # With the service-level index ablation off, index candidates
        # must not compete against the sketch (a disabled index is not
        # a legal exact path).
        class _ExplodingView:
            def index_columns(self):
                raise AssertionError("indexes consulted while disabled")

            index_probe_count = index_columns

        choice = choose_access_path(
            self.fragment(), _ExplodingView(), list(range(16)),
            scan_entries=50_000, costs=self.COSTS,
            sketch=SketchCandidate("countmin('v')", probes=16),
            indexes=False,
        )
        assert choice.kind == "sketch"

    def test_no_sketch_candidate_means_no_sketch_path(self):
        choice = choose_access_path(
            self.fragment(), _SketchlessView(), list(range(16)),
            scan_entries=50_000, costs=self.COSTS,
        )
        assert choice.kind == "scan"
        assert choice.rejected == ()


class TestExactFallbackShape:
    def test_exact_approx_appends_zero_bound_columns(self):
        catalog = DictCatalog({"t": ListTable("t", (
            {"v": 1}, {"v": 1}, {"v": 2},
        ))})
        result = execute_select(
            parse_select("SELECT APPROX COUNT(*) AS n FROM t "
                         "WHERE v = 1"),
            catalog,
        )
        assert result.columns == ["n", "error_bound", "confidence"]
        assert result.rows == [
            {"n": 2, "error_bound": 0.0, "confidence": 1.0}
        ]

    def test_exact_approx_group_by_rows_all_tagged(self):
        catalog = DictCatalog({"t": ListTable("t", (
            {"v": 1, "g": "a"}, {"v": 2, "g": "a"}, {"v": 3, "g": "b"},
        ))})
        result = execute_select(
            parse_select("SELECT APPROX g, SUM(v) AS s FROM t "
                         "GROUP BY g ORDER BY g"),
            catalog,
        )
        assert result.columns == ["g", "s", "error_bound", "confidence"]
        assert all(
            row["error_bound"] == 0.0 and row["confidence"] == 1.0
            for row in result.rows
        )
