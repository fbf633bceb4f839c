"""Plan canonicalization: fingerprints and residual extraction.

Acceptance: structurally identical statements (modulo subscriber-
specific equality constants) canonicalize to one fingerprint, with the
constants folded into a per-subscriber residual; extraction never fires
where the residual would not commute with the shared plan.
"""

from repro.continuous.plans import (
    canonicalize,
    fingerprint_statement,
    format_literal,
)
from repro.sql import parse


class FakeStore:
    """Just enough of StateStore for classification."""

    def __init__(self, live=("orders",), snapshot=("snapshot_orders",)):
        self._live = set(live)
        self._snapshot = set(snapshot)

    def has_live_table(self, name):
        return name in self._live

    def has_snapshot_table(self, name):
        return name in self._snapshot


def canon(sql, extract_residual=True):
    return canonicalize(parse(sql), FakeStore(),
                        extract_residual=extract_residual)


# -- fingerprints ------------------------------------------------------------


def test_same_statement_same_fingerprint_regardless_of_spelling():
    a = fingerprint_statement(parse('SELECT * FROM "orders" WHERE amount > 5'))
    b = fingerprint_statement(parse('select *  from "orders"  where amount > 5'))
    assert a == b


def test_different_statements_different_fingerprints():
    a = canon('SELECT * FROM "orders" WHERE amount > 5')
    b = canon('SELECT * FROM "orders" WHERE amount > 6')
    assert a.fingerprint != b.fingerprint


def test_residual_constants_collapse_to_one_fingerprint():
    a = canon('SELECT * FROM "orders" WHERE amount > 5 AND zone = \'n\'')
    b = canon('SELECT * FROM "orders" WHERE amount > 5 AND zone = \'s\'')
    assert a.fingerprint == b.fingerprint
    assert a.has_residual and b.has_residual
    assert a.residual_display == "zone = 'n'"
    assert b.residual_display == "zone = 's'"
    # Both share the statement WHERE amount > 5.
    plain = canon('SELECT * FROM "orders" WHERE amount > 5')
    assert a.fingerprint == plain.fingerprint
    assert not plain.has_residual


def test_only_the_trailing_equalities_leave_the_shared_plan():
    # ``zone = 'n'`` written before ``amount > 5`` decides first (a row
    # it drops never reaches the comparison), so it stays shared.
    first = canon('SELECT * FROM "orders" WHERE zone = \'n\' AND amount > 5')
    assert not first.has_residual
    assert first.statement.where is not None
    mixed = canon('SELECT * FROM "orders" WHERE zone = \'n\' '
                  "AND amount > 5 AND region = 'eu' AND tier = 2")
    assert mixed.residual_columns == ("region", "tier")
    assert mixed.fingerprint == canon(
        'SELECT * FROM "orders" WHERE zone = \'n\' AND amount > 5'
    ).fingerprint


def test_fully_extracted_where_collapses_to_unfiltered_plan():
    a = canon('SELECT * FROM "orders" WHERE zone = \'n\'')
    plain = canon('SELECT * FROM "orders"')
    assert a.fingerprint == plain.fingerprint
    assert a.statement.where is None


# -- extraction rules --------------------------------------------------------


def test_equality_extracts_from_either_side():
    left = canon('SELECT * FROM "orders" WHERE zone = \'n\'')
    right = canon('SELECT * FROM "orders" WHERE \'n\' = zone')
    assert left.fingerprint == right.fingerprint
    assert left.residual_columns == right.residual_columns == ("zone",)
    assert left.residual_values == right.residual_values == ("n",)


def test_multi_column_residual_sorted_by_column_name():
    a = canon('SELECT * FROM "orders" WHERE zone = \'n\' AND amount = 2')
    b = canon('SELECT * FROM "orders" WHERE amount = 2 AND zone = \'n\'')
    assert a.fingerprint == b.fingerprint
    assert a.residual_columns == b.residual_columns == ("amount", "zone")
    assert a.residual_values == b.residual_values == (2, "n")


def test_numeric_equality_coalesces_like_sql_comparison():
    """1, 1.0 and TRUE compare equal under SQL `=`; the hash-routing
    value tuples must coalesce identically so bucket routing agrees
    with predicate evaluation."""
    ints = canon('SELECT * FROM "orders" WHERE amount = 1')
    floats = canon('SELECT * FROM "orders" WHERE amount = 1.0')
    assert ints.residual_values == floats.residual_values


def test_aggregate_where_is_never_split():
    plan = canon('SELECT zone, COUNT(*) AS n FROM "orders" '
                 "WHERE zone = 'n' GROUP BY zone")
    assert not plan.has_residual
    assert plan.statement.where is not None


def test_rescan_path_is_never_split():
    plan = canon('SELECT * FROM "orders" WHERE zone = \'n\' '
                 "ORDER BY amount")
    assert not plan.has_residual


def test_invisible_column_stays_in_shared_plan():
    # `zone` is not in the output row: routing could not evaluate the
    # residual against delta entries, so the conjunct stays shared.
    plan = canon('SELECT amount FROM "orders" WHERE zone = \'n\'')
    assert not plan.has_residual
    assert plan.statement.where is not None


def test_renamed_column_is_not_visible():
    plan = canon('SELECT zone AS z FROM "orders" WHERE zone = \'n\'')
    assert not plan.has_residual


def test_bare_projected_column_is_visible():
    plan = canon('SELECT zone, amount FROM "orders" WHERE zone = \'n\'')
    assert plan.has_residual
    assert plan.residual_columns == ("zone",)


def test_qualified_column_bound_to_from_table_extracts():
    bound = canon('SELECT * FROM "orders" o WHERE o.zone = \'n\'')
    assert bound.has_residual
    foreign = canon('SELECT * FROM "orders" o WHERE x.zone = \'n\'')
    assert not foreign.has_residual


def test_null_equality_is_not_extracted():
    # `col = NULL` never matches; it keeps its degenerate semantics in
    # the shared plan rather than becoming a residual bucket.
    plan = canon('SELECT * FROM "orders" WHERE zone = NULL')
    assert not plan.has_residual


def test_non_equality_conjuncts_stay_shared():
    plan = canon('SELECT * FROM "orders" '
                 "WHERE amount > 5 AND amount < 50 AND zone = 'n'")
    assert plan.has_residual
    assert plan.residual_columns == ("zone",)
    # Both range conjuncts survive in the shared statement.
    shared = canon('SELECT * FROM "orders" '
                   "WHERE amount > 5 AND amount < 50")
    assert plan.fingerprint == shared.fingerprint


def test_extraction_gate_off_keeps_statement_verbatim():
    plan = canon('SELECT * FROM "orders" WHERE zone = \'n\'',
                 extract_residual=False)
    assert not plan.has_residual
    assert plan.statement.where is not None
    shared = canon('SELECT * FROM "orders" WHERE zone = \'n\'')
    assert plan.fingerprint != shared.fingerprint


def test_format_literal_spells_sql():
    assert format_literal(True) == "TRUE"
    assert format_literal(False) == "FALSE"
    assert format_literal(None) == "NULL"
    assert format_literal(7) == "7"
    assert format_literal("o'brien") == "'o''brien'"
