"""SQL execution: plan a statement, read its rows as columns, and run
the final stage over them.

A plan without joins reads its table's column batches in node order
(:class:`~repro.sql.join.Side`); a plan with joins first sweeps each
table's batches by its own WHERE conjuncts, node by node, as a shard
would (:func:`~repro.sql.batch.sweep_tables`), then joins them by row
position (:mod:`repro.sql.join`, the one join implementation, which the
distributed pipeline runs too).  Either way the rows are never shaped:
:func:`~repro.sql.batch.finish` runs residual WHERE, aggregation,
HAVING, projection, DISTINCT, ORDER BY and OFFSET / LIMIT over their
columns with the kernels a shard sweep runs, and shapes one dict per
output row.  This module holds what every stage shares: group and
order keys, aggregate accumulators and the result type.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from types import NoneType

from ..errors import SqlExecutionError
from .ast import (
    Expr,
    FuncCall,
    OrderItem,
    Select,
    Star,
    Union,
    collect_aggregates,
    output_column_name,  # noqa: F401 — re-exported, as render_expr
    render_expr,  # noqa: F401
)
from .compiled import SCALARS, CompiledExpr, EvalContext, compile_expr
from .functions import hashable_key, make_aggregate
from .join import Side, join_plan
from .planner import Catalog, Plan, plan_select


@dataclass
class QueryResult:
    """Materialised query result."""

    columns: list[str]
    rows: list[dict]
    #: number of raw entries scanned across all inputs (cost accounting).
    scanned: int = 0

    def tuples(self) -> list[tuple]:
        return [tuple(row[col] for col in self.columns) for row in self.rows]

    def column(self, name: str) -> list:
        if name not in self.columns:
            raise SqlExecutionError(f"no result column {name!r}")
        return [row[name] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


def execute_select(select: "Select | Union", catalog: Catalog,
                   context: EvalContext | None = None) -> QueryResult:
    """Plan and execute a statement; returns a :class:`QueryResult`.

    Accepts a single SELECT or a UNION [ALL] chain (branch results are
    concatenated under the first branch's column names; plain UNION
    deduplicates)."""
    context = context or EvalContext()
    if isinstance(select, Union):
        return _execute_union(select, catalog, context)
    plan = plan_select(select, catalog)
    return execute_plan(plan, context)


def _execute_union(union: "Union", catalog: Catalog,
                   context: EvalContext) -> QueryResult:
    results = [
        execute_plan(plan_select(branch, catalog), context)
        for branch in union.branches
    ]
    columns = results[0].columns
    width = len(columns)
    for index, result in enumerate(results[1:], start=2):
        if len(result.columns) != width:
            raise SqlExecutionError(
                f"UNION branch {index} has {len(result.columns)} "
                f"columns, expected {width}"
            )
    rows: list[dict] = []
    scanned = 0
    for result in results:
        scanned += result.scanned
        for row in result.rows:
            values = [row[column] for column in result.columns]
            rows.append(dict(zip(columns, values)))
    if not union.all:
        seen: set[tuple] = set()
        unique = []
        for row in rows:
            key = tuple(hashable_key(row[column]) for column in columns)
            if key in seen:
                continue
            seen.add(key)
            unique.append(row)
        rows = unique
    return QueryResult(columns=columns, rows=rows, scanned=scanned)


def execute_plan(plan: Plan, context: EvalContext) -> QueryResult:
    """Read the base table's batches, or sweep each table by its own
    conjuncts and join the survivors by position
    (:func:`~repro.sql.join.join_plan`), then run the final stage over
    the rows."""
    order_types = None
    if plan.joins:
        plan = sweep_tables(plan, context)
        source, scanned = join_plan(plan, context)
    else:
        source = Side(plan.base_binding, plan.base_source.blocks)
        scanned = source.count
        order_types = source.rows.order_types
    return finish(plan.select, source, plan.is_aggregate, context, scanned,
                  order_types)


def bind_row(raw: dict, binding: str) -> dict:
    """Expose columns both unqualified and as ``binding.column``: the
    bound row a shard's partial group representative, or a standing
    query's input row, is read as."""
    row = dict(raw)
    for key, value in raw.items():
        row[f"{binding}.{key}"] = value
    return row


def unique_aggregates(select: Select) -> list[FuncCall]:
    """The de-duplicated aggregate calls of a SELECT, in the canonical
    items → HAVING → ORDER BY collection order.  Accumulator lists built
    from the same SELECT are positionally aligned with this list, which
    is what lets scan-side partial states merge with central ones."""
    aggregates: list[FuncCall] = []
    for item in select.items:
        collect_aggregates(item.expr, aggregates)
    if select.having is not None:
        collect_aggregates(select.having, aggregates)
    for order in select.order_by:
        collect_aggregates(order.expr, aggregates)
    # De-duplicate structurally identical calls (frozen dataclasses hash).
    return list(dict.fromkeys(aggregates))


def new_group_accs(unique: list[FuncCall]) -> list:
    """Fresh accumulators positionally aligned with ``unique``."""
    return [
        make_aggregate(
            call.name,
            bool(call.args) and isinstance(call.args[0], Star),
            call.distinct,
        )
        for call in unique
    ]


def agg_feed_exprs(
    unique: "list[FuncCall] | tuple[FuncCall, ...]",
) -> "tuple[Expr | None, ...]":
    """One feed per aggregate call, aligned with ``unique``: the call's
    argument, or ``None`` for COUNT(*)-style calls, which accumulate 1
    per row."""
    return tuple(
        call.args[0]
        if call.args and not isinstance(call.args[0], Star) else None
        for call in unique
    )


def compile_agg_feeds(
    unique: "list[FuncCall] | tuple[FuncCall, ...]",
    binding: str | None = None,
) -> "tuple[CompiledExpr | None, ...]":
    """:func:`agg_feed_exprs`, each argument compiled."""
    return tuple(
        None if feed is None else compile_expr(feed, binding)
        for feed in agg_feed_exprs(unique)
    )


def compile_group_key(group_by: "tuple[Expr, ...]",
                      binding: str | None = None) -> CompiledExpr:
    """A closure yielding the GROUP BY key of one row: each part's
    :func:`~repro.sql.functions.hashable_key`."""
    parts = tuple(compile_expr(expr, binding) for expr in group_by)

    def group_key(row: dict, context: EvalContext) -> tuple:
        return tuple(hashable_key(part(row, context)) for part in parts)

    return group_key


def group_keys(columns: "list[list]", count: int) -> "list[tuple]":
    """Column-wise :func:`compile_group_key`: the GROUP BY keys of
    ``count`` rows from one value list per GROUP BY expression.  A value
    no key can be made of raises as a row-by-row pass would: the first
    row's, the first part's within it."""
    keys, failed = keys_until_error(columns, count)
    if failed is not None:
        raise failed[1]
    return keys


def keys_until_error(
    columns: "list[list]", count: int,
) -> "tuple[list[tuple], tuple[int, Exception] | None]":
    """:func:`group_keys` up to the first row whose key cannot be made,
    and that row's position and error (``None``: every row's key)."""
    if not columns:
        return [()] * count, None
    parts = []
    for values in columns:
        if not set(map(type, values)) <= SCALARS:
            try:
                values = list(map(hashable_key, values))
            except Exception:  # noqa: BLE001 — found row by row below
                break
        parts.append(values)
    else:
        return list(zip(*parts)), None
    keys = []
    for position, row in enumerate(zip(*columns)):
        try:
            keys.append(tuple(map(hashable_key, row)))
        except Exception as exc:  # noqa: BLE001 — the caller raises it
            return keys, (position, exc)
    return keys, None


#: ``(NULL flag, NaN flag)`` of an ascending and of a descending ORDER
#: BY term; every other value's flag is ``descending`` (0 / 1).  An
#: ascending term sorts forward: values, NaN, NULL; a descending one
#: sorts reversed: NaN, values, NULL.  So NaN ranks above every number
#: (PostgreSQL's rule) and NULLs sort last both ways.  A NULL or NaN
#: key carries ``None`` as its value: neither is ever compared with a
#: value, and two NaNs tie.
_SPECIAL_FLAGS = ((2, 1), (0, 2))


def order_keys(order_by: "tuple[OrderItem, ...]",
               columns: "list[list]") -> "list[tuple]":
    """The rows' ORDER BY keys from one value list per term: per row a
    flat native tuple ``(flag, value, flag, value, ...)``, one pair per
    term, which :func:`order_keyed` sorts with C comparisons (flags as
    in :data:`_SPECIAL_FLAGS`)."""
    flat = []
    for order, values in zip(order_by, columns):
        descending = order.descending
        null_flag, nan_flag = _SPECIAL_FLAGS[descending]
        flags = [
            null_flag if value is None
            else descending if value == value
            else nan_flag
            for value in values
        ]
        if nan_flag in flags:
            values = [None if flag == nan_flag else value
                      for flag, value in zip(flags, values)]
        flat.append(flags)
        flat.append(values)
    return list(zip(*flat))


_KEY = itemgetter(0)


def order_keyed(order_by: "tuple[OrderItem, ...]",
                keyed: "list[tuple[tuple, object]]",
                limit: int | None = None, checked: bool = False,
                samples: "list[dict] | None" = None,
                ) -> "list[tuple[tuple, object]]":
    """``(order key, row)`` pairs in ORDER BY order — only the first
    ``limit`` of them when given — keys from :func:`order_keys`.

    The order is the stable one: rows whose keys tie keep their input
    order.  Terms of one direction compare as one flat key, and a
    limit below the input size makes it a bounded selection
    (``heapq.nsmallest`` / ``nlargest`` are documented as equivalent to
    ``sorted(...)[:n]``, stability included, and fall back to exactly
    that otherwise).  Mixed directions take one stable pass per term,
    last term first.  Values that do not compare raise
    :class:`SqlExecutionError` — a term holding two types that do not
    order always, before any comparison (unless ``checked`` already), so
    neither the limit, the direction nor the chunking decides it;
    ``samples`` adds per term a value of each type rows not given held.
    """
    if limit == 0:
        return []  # nothing is ranked, so nothing is compared
    error = None if checked else incomparable(
        _term_values(order_by, keyed),
        None if samples is None else list(map(dict, samples)))
    if error is not None:
        raise error
    if limit is None:
        limit = len(keyed)
    descending = order_by[0].descending
    try:
        if all(order.descending == descending for order in order_by):
            first = heapq.nlargest if descending else heapq.nsmallest
            return first(limit, keyed, key=_KEY)
        keyed = list(keyed)
        for position in reversed(range(len(order_by))):
            term = itemgetter(2 * position, 2 * position + 1)
            keyed.sort(
                key=lambda pair: term(pair[0]),
                reverse=order_by[position].descending,
            )
    except TypeError:
        raise (incomparable(_term_values(order_by, keyed), mixed=False)
               or SqlExecutionError("cannot compare ORDER BY values")
               ) from None
    return keyed[:limit]


def _term_values(order_by: "tuple[OrderItem, ...]",
                 keyed: "list[tuple[tuple, object]]") -> "list[list]":
    """Each ORDER BY term's values (``None`` for NULL and NaN)."""
    keys = list(map(_KEY, keyed))
    return [list(map(itemgetter(2 * position + 1), keys))
            for position in range(len(order_by))]


_NULL = {NoneType}


def incomparable(columns: "list[list]", samples: "list[dict] | None" = None,
                 mixed: bool = True) -> SqlExecutionError | None:
    """The typed error of the first ORDER BY term whose values —
    ``columns[term]``, plus one per type it held before in ``samples``
    (updated) — hold two types that do not order (with ``mixed=False``
    also one that does not order with itself), naming them sorted so the
    text is the same whichever comparison tripped; else ``None``.  A
    MIN / MAX state is checked with it too."""
    for position, values in enumerate(columns):
        found = {} if samples is None else samples[position]
        if not set(map(type, values)) - _NULL <= found.keys():
            found.update(zip(map(type, values), values))
            found.pop(NoneType, None)  # NULL and NaN are never compared
        if mixed and len(found) < 2:
            continue
        named = sorted(((kind.__name__, value)
                        for kind, value in found.items()), key=_KEY)
        for index, (first, value) in enumerate(named):
            for second, other in named[index + mixed:]:
                try:
                    value < other
                except TypeError:
                    return SqlExecutionError(
                        f"cannot compare {first} with {second}"
                    )
    return None


# The final stage builds on the kernels above, so it is imported after
# them (nothing imports repro.sql.batch before this module).
from .batch import finish, sweep_tables  # noqa: E402
