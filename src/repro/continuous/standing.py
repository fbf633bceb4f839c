"""Standing queries: per-delta (incremental) result maintenance.

A :class:`StandingQuery` is the maintained result of one subscription.
At registration it is *classified* into one of three maintenance paths:

* ``incremental-filter-project`` — single live table, no aggregation:
  each changed key maps to at most one result row, maintained in place;
* ``incremental-grouped-aggregate`` — GROUP BY over one live table with
  COUNT/SUM/AVG/MIN/MAX: per-group accumulators support add *and*
  retract, so one state update touches only its group(s);
* ``full-rescan`` — everything else (joins, UNION, DISTINCT, ORDER BY /
  LIMIT, time-dependent predicates, snapshot tables): the result is
  re-evaluated from scratch on each flush, exactly like a polled query.

``explain()`` reports which path was chosen and why, mirroring the SQL
layer's EXPLAIN.  Incremental paths compile their expressions once, at
plan construction, with the SQL layer's one evaluator
(:mod:`repro.sql.compiled`, reading raw stored rows) and reuse the
executor's naming and hashing helpers, so a standing result is always
bit-identical to what a fresh batch execution would return.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..sql.ast import (
    AGGREGATE_FUNCTIONS,
    Column,
    Expr,
    FuncCall,
    Select,
    Star,
    Union,
    children,
)
from ..sql.compiled import EvalContext, compile_expr, compile_predicate
from ..sql.executor import (
    compile_agg_feeds,
    compile_group_key,
    hashable_key,
    output_column_name,
    unique_aggregates,
)
from ..sql.planner import contains_local_timestamp
from ..sql.functions import NUMBERS, MaxAggregate, MinAggregate, addend

PATH_FILTER_PROJECT = "incremental-filter-project"
PATH_GROUPED_AGGREGATE = "incremental-grouped-aggregate"
PATH_RESCAN = "full-rescan"

INCREMENTAL_PATHS = (PATH_FILTER_PROJECT, PATH_GROUPED_AGGREGATE)


# -- expression analysis -----------------------------------------------------


def _bare_columns_outside_aggregates(expr: Expr) -> list[Column]:
    """Columns referenced outside any aggregate call's arguments."""
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        return []
    if isinstance(expr, Column):
        return [expr]
    out: list[Column] = []
    for child in children(expr):
        out.extend(_bare_columns_outside_aggregates(child))
    return out


# -- classification ----------------------------------------------------------


def classify(statement: Select | Union, store) -> tuple[str, str]:
    """Decide the maintenance path for ``statement``.

    Returns ``(path, reason)``; the reason is surfaced verbatim by
    ``explain_subscription()``.
    """
    if isinstance(statement, Union):
        return PATH_RESCAN, "UNION result cannot be maintained per-delta"
    if statement.joins:
        return PATH_RESCAN, "joins require re-evaluating matched pairs"
    table = statement.table.name
    if not store.has_live_table(table):
        return (PATH_RESCAN,
                f"table {table!r} is snapshot state: refreshed per commit")
    if contains_local_timestamp(statement.where):
        return (PATH_RESCAN,
                "WHERE depends on LOCALTIMESTAMP: rows pass/fail over "
                "time without state changes")
    if statement.distinct:
        return PATH_RESCAN, "DISTINCT needs the full result to deduplicate"
    if statement.order_by or statement.limit is not None or statement.offset:
        return (PATH_RESCAN,
                "ORDER BY / LIMIT / OFFSET rank the full result")
    if not statement.aggregates():
        return (PATH_FILTER_PROJECT,
                "single live table, row-local filter and projection")
    # Aggregate path: every aggregate must support retraction and every
    # bare output column must be a grouping key.
    for call in unique_aggregates(statement):
        if call.distinct:
            return (PATH_RESCAN,
                    f"{call.name}(DISTINCT ...) cannot retract removed "
                    "values")
        for arg in call.args:
            if contains_local_timestamp(arg):
                return (PATH_RESCAN,
                        "aggregate argument depends on LOCALTIMESTAMP")
    group_exprs = list(statement.group_by)
    checked: list[Expr] = [item.expr for item in statement.items]
    if statement.having is not None:
        checked.append(statement.having)
    for expr in checked:
        for column in _bare_columns_outside_aggregates(expr):
            if column not in group_exprs:
                return (PATH_RESCAN,
                        f"column {column.display()!r} is not a grouping "
                        "key: its value is ambiguous per group")
    return (PATH_GROUPED_AGGREGATE,
            "GROUP BY over one live table with retractable "
            "COUNT/SUM/AVG/MIN/MAX accumulators")


# -- retractable aggregate accumulators --------------------------------------


class _RetractableAggregate:
    """Add/retract accounting for one aggregate over one group."""

    def add(self, value: object) -> None:
        raise NotImplementedError

    def retract(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError


class _CountAcc(_RetractableAggregate):
    def __init__(self, count_star: bool) -> None:
        self._star = count_star
        self._n = 0

    def add(self, value: object) -> None:
        if self._star or value is not None:
            self._n += 1

    def retract(self, value: object) -> None:
        if self._star or value is not None:
            self._n -= 1

    def result(self) -> object:
        return self._n


class _SumAcc(_RetractableAggregate):
    name = "SUM"

    def __init__(self) -> None:
        self._total: float | int = 0
        self._n = 0

    def add(self, value: object) -> None:
        if value is not None:
            if type(value) not in NUMBERS:
                value = addend(self.name, value)
            self._total += value
            self._n += 1

    def retract(self, value: object) -> None:
        if value is not None:
            self._total -= value
            self._n -= 1

    def result(self) -> object:
        return self._total if self._n else None


class _AvgAcc(_SumAcc):
    name = "AVG"

    def __init__(self) -> None:
        super().__init__()
        self._total = 0.0

    def result(self) -> object:
        return self._total / self._n if self._n else None


class _MinMaxAcc(_RetractableAggregate):
    """MIN/MAX keep a value multiset: retracting the current extreme
    falls back to the next one instead of forcing a rescan."""

    def __init__(self, is_min: bool) -> None:
        self._is_min = is_min
        #: equality key -> [a value of that key, its count]
        self._counts: dict[object, list] = {}

    def add(self, value: object) -> None:
        if value is None:
            return
        key = hashable_key(value)
        self._counts.setdefault(key, [value, 0])[1] += 1

    def retract(self, value: object) -> None:
        if value is None:
            return
        key = hashable_key(value)
        held = self._counts.get(key)
        if held is None:
            return
        held[1] -= 1
        if held[1] <= 0:
            del self._counts[key]

    def result(self) -> object:
        if not self._counts:
            return None
        values = [value for value, _count in self._counts.values()]
        try:
            return min(values) if self._is_min else max(values)
        except TypeError:
            # Values that do not order: the one-shot accumulator makes
            # the same comparisons and raises the typed error.
            best = MinAggregate() if self._is_min else MaxAggregate()
            for value in values:
                best.add(value)
            raise


def _make_retractable(call: FuncCall) -> _RetractableAggregate:
    if call.name == "COUNT":
        star = bool(call.args) and isinstance(call.args[0], Star)
        return _CountAcc(star or not call.args)
    if call.name == "SUM":
        return _SumAcc()
    if call.name == "AVG":
        return _AvgAcc()
    if call.name == "MIN":
        return _MinMaxAcc(is_min=True)
    return _MinMaxAcc(is_min=False)


class _Group:
    """One GROUP BY group: contributions plus running accumulators."""

    __slots__ = ("representative", "accs", "contributions")

    def __init__(self, representative: dict,
                 accs: list[_RetractableAggregate]) -> None:
        #: Any member's row — group-key expressions evaluate to the
        #: same values on every member, so staleness is harmless.
        self.representative = representative
        self.accs = accs
        #: row key -> the aggregate argument values that were added,
        #: kept so retraction removes exactly what addition added.
        self.contributions: dict[Hashable, list[object]] = {}


# -- the standing query ------------------------------------------------------


class StandingQuery:
    """The maintained result of one subscription."""

    def __init__(self, sql: str, statement: Select | Union, store,
                 now: Callable[[], float]) -> None:
        self.sql = sql
        self.statement = statement
        self._now = now
        self.path, self.reason = classify(statement, store)
        self.table_name = statement.table_names()[0]
        #: out_key -> currently published result row.
        self.published: dict[object, dict] = {}
        #: Bumped whenever ``published`` changes, so readers that index
        #: it (the router's residual buckets) know to rebuild.
        self.version = 0
        self.deltas_applied = 0
        self.rescans = 0
        self.rows_emitted = 0
        self.dirty = False          # rescan path: needs re-evaluation
        self.needs_rebuild = False  # set after a rollback event
        if self.path in INCREMENTAL_PATHS:
            select: Select = statement
            binding = select.table.binding
            self._unique_aggs = unique_aggregates(select)
            self._columns = [
                output_column_name(item, position)
                for position, item in enumerate(select.items)
            ]
            self._groups: dict[tuple, _Group] = {}
            # Every expression compiles here, once, against raw rows of
            # the table; deltas only call the closures.
            self._where = (
                compile_predicate(select.where, binding)
                if select.where is not None else None
            )
            self._items = [
                compile_expr(item.expr, binding) for item in select.items
            ]
            self._group_key = compile_group_key(select.group_by, binding)
            self._feeds = compile_agg_feeds(self._unique_aggs, binding)
            self._having = (
                compile_predicate(select.having, binding)
                if select.having is not None else None
            )

    # -- seeding / rebuild -------------------------------------------------

    def seed(self, rows: dict[Hashable, dict]) -> None:
        """Build the initial result from the arrangement's current rows."""
        if self.path not in INCREMENTAL_PATHS:
            self.dirty = True
            return
        self.published.clear()
        self.version += 1
        self._groups.clear()
        for key, row in rows.items():
            self._apply(key, None, row)
        if self.path == PATH_GROUPED_AGGREGATE and \
                not self.statement.group_by:
            # A global aggregate publishes a row even over empty input.
            self._refresh_group((), self._context())
        self.needs_rebuild = False

    def rebuild(self, rows: dict[Hashable, dict]) -> None:
        """Full reset from restored state (rollback recovery)."""
        self.seed(rows)

    # -- delta application -------------------------------------------------

    def on_delta(self, key: Hashable, old_row: dict | None,
                 new_row: dict | None) -> list[dict]:
        """Apply one captured change; returns result-row delta entries
        (``{"action": "upsert"|"delete", "key": ..., "row": ...}``)."""
        self.deltas_applied += 1
        if self.path not in INCREMENTAL_PATHS:
            self.dirty = True
            return []
        return self._apply(key, old_row, new_row)

    def on_rollback(self) -> None:
        """A partition was bulk-replaced: the maintained state is stale."""
        self.needs_rebuild = True
        if self.path not in INCREMENTAL_PATHS:
            self.dirty = True

    def _context(self) -> EvalContext:
        return EvalContext(now_ms=self._now())

    def _passes(self, row: dict, context: EvalContext) -> bool:
        return self._where is None or self._where(row, context)

    def _apply(self, key: Hashable, old_row: dict | None,
               new_row: dict | None) -> list[dict]:
        context = self._context()
        if self.path == PATH_FILTER_PROJECT:
            entries = self._apply_filter_project(key, new_row, context)
        else:
            entries = self._apply_aggregate(key, old_row, new_row, context)
        if entries:
            # Every change to ``published`` emits an entry.
            self.version += 1
        return entries

    # -- filter/project path -----------------------------------------------

    def _apply_filter_project(self, key: Hashable, new_row: dict | None,
                              context: EvalContext) -> list[dict]:
        select: Select = self.statement
        out_key = hashable_key(key)
        if new_row is None or not self._passes(new_row, context):
            if out_key in self.published:
                del self.published[out_key]
                return [{"action": "delete", "key": out_key, "row": None}]
            return []
        if select.select_star:
            projected = dict(new_row)
        else:
            projected = {
                name: item(new_row, context)
                for name, item in zip(self._columns, self._items)
            }
        previous = self.published.get(out_key)
        if previous == projected:
            return []
        self.published[out_key] = projected
        self.rows_emitted += 1
        return [{"action": "upsert", "key": out_key, "row": projected}]

    # -- grouped aggregate path ---------------------------------------------

    def _apply_aggregate(self, key: Hashable, old_row: dict | None,
                         new_row: dict | None,
                         context: EvalContext) -> list[dict]:
        row_key = hashable_key(key)
        affected: list[tuple] = []

        if old_row is not None and self._passes(old_row, context):
            group_key = self._group_key(old_row, context)
            group = self._groups.get(group_key)
            if group is not None and row_key in group.contributions:
                values = group.contributions.pop(row_key)
                for acc, value in zip(group.accs, values):
                    acc.retract(value)
                affected.append(group_key)

        if new_row is not None and self._passes(new_row, context):
            group_key = self._group_key(new_row, context)
            group = self._groups.get(group_key)
            if group is None:
                group = _Group(dict(new_row), [
                    _make_retractable(call)
                    for call in self._unique_aggs
                ])
                self._groups[group_key] = group
            values = [
                1 if feed is None else feed(new_row, context)
                for feed in self._feeds
            ]
            group.contributions[row_key] = values
            for acc, value in zip(group.accs, values):
                acc.add(value)
            if group_key not in affected:
                affected.append(group_key)

        entries: list[dict] = []
        for group_key in affected:
            entries.extend(self._refresh_group(group_key, context))
        return entries

    def _refresh_group(self, group_key: tuple,
                       context: EvalContext) -> list[dict]:
        select: Select = self.statement
        group = self._groups.get(group_key)
        if group is not None and not group.contributions:
            del self._groups[group_key]
            group = None
        if group is None:
            if select.group_by:
                if group_key in self.published:
                    del self.published[group_key]
                    return [{"action": "delete", "key": group_key,
                             "row": None}]
                return []
            # Global aggregate over empty input: one row (COUNT = 0).
            representative: dict = {}
            accs = [_make_retractable(call) for call in self._unique_aggs]
        else:
            representative = group.representative
            accs = group.accs
        # Compiled aggregate calls read their result from the row,
        # under the call node, next to the representative's columns.
        env = dict(representative)
        for call, acc in zip(self._unique_aggs, accs):
            env[call] = acc.result()
        if self._having is not None and not self._having(env, context):
            if group_key in self.published:
                del self.published[group_key]
                return [{"action": "delete", "key": group_key, "row": None}]
            return []
        row = {
            name: item(env, context)
            for name, item in zip(self._columns, self._items)
        }
        if self.published.get(group_key) == row:
            return []
        self.published[group_key] = row
        self.rows_emitted += 1
        return [{"action": "upsert", "key": group_key, "row": row}]

    # -- rescan path support -------------------------------------------------

    def set_published_rows(self, rows: list[dict]) -> None:
        """Replace the published result wholesale (rescan refresh)."""
        self.published = {
            ("row", index): dict(row) for index, row in enumerate(rows)
        }
        self.version += 1
        self.rows_emitted += len(rows)
        self.dirty = False
        self.needs_rebuild = False

    # -- introspection -------------------------------------------------------

    def current_rows(self) -> list[dict]:
        """The maintained result as plain rows."""
        return [dict(row) for row in self.published.values()]

    def explain(self) -> str:
        lines = [
            f"standing query over {self.table_name!r}",
            f"  path: {self.path}",
            f"  reason: {self.reason}",
        ]
        if self.path == PATH_GROUPED_AGGREGATE:
            aggs = ", ".join(call.name for call in self._unique_aggs)
            lines.append(f"  maintained aggregates: {aggs}")
        return "\n".join(lines)
