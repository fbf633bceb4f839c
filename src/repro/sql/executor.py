"""SQL execution: a plan's rows, then WHERE, aggregation or projection,
and output shaping over bound dict rows.

A plan without joins binds its table's rows (:func:`bind_row`); a plan
with joins runs them by row position over column batches
(:mod:`repro.sql.join`, the one join implementation, which the
distributed pipeline runs too) and shapes one merged bound row per
joined row."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from types import NoneType

from ..errors import SqlExecutionError
from .ast import (
    Between,
    Binary,
    Column,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    LocalTimestamp,
    OrderItem,
    Select,
    SelectItem,
    Star,
    Unary,
    Union,
    collect_aggregates,
)
from .compiled import (
    CompiledExpr,
    EvalContext,
    compile_expr,
    compile_predicate,
)
from .functions import hashable_key, make_aggregate
from .join import join_plan
from .planner import Catalog, Plan, plan_select, validate_select


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
    """Bind the base table's rows, or join the plan's tables by position
    (:func:`~repro.sql.join.join_plan`), then run the post-join stages."""
    if plan.joins:
        rows, scanned = join_plan(plan, context)
    else:
        rows = []
        blocks = plan.base_source.blocks
        for node_id in sorted(blocks):
            for raw in blocks[node_id].rows():
                rows.append(bind_row(raw, plan.base_binding))
        scanned = len(rows)
    return _execute_post_join(plan.select, rows, plan.is_aggregate, context,
                              scanned)


def _execute_post_join(select: Select, rows: list[dict], is_aggregate: bool,
                       context: EvalContext, scanned: int) -> QueryResult:
    """Everything after the joins, over merged bound rows: residual
    WHERE, aggregation or projection, and output shaping."""
    if select.where is not None:
        where = compile_predicate(select.where)
        rows = [row for row in rows if where(row, context)]

    if is_aggregate:
        out_rows, columns = _execute_aggregate(select, rows, context)
    else:
        out_rows, columns = _execute_projection(select, rows, context)

    return _shape_output(select, out_rows, columns, context, scanned)


def _shape_output(select: Select, out_rows: list[dict], columns: list[str],
                  context: EvalContext, scanned: int) -> QueryResult:
    """The post-projection stages shared by every execution path:
    DISTINCT, ORDER BY, OFFSET/LIMIT, and the final column strip.  The
    exact answer of an ``APPROX`` statement reports a zero error bound
    at full confidence, the sketch fast path's result shape."""
    if select.distinct:
        out_rows = _distinct(out_rows, columns)

    if select.order_by:
        out_rows = _execute_order(select, out_rows, context)

    if select.offset:
        out_rows = out_rows[select.offset:]
    if select.limit is not None:
        out_rows = out_rows[: select.limit]

    rows = [{col: row[col] for col in columns} for row in out_rows]
    if select.approx:
        columns = columns + ["error_bound", "confidence"]
        rows = [{**row, "error_bound": 0.0, "confidence": 1.0}
                for row in rows]
    return QueryResult(columns=columns, rows=rows, scanned=scanned)


def execute_grouped_select(select: Select, groups: dict,
                           context: EvalContext,
                           scanned: int = 0) -> QueryResult:
    """Finalize a pre-aggregated SELECT from merged partial groups.

    ``groups`` maps group-key tuples to ``{"row": representative bound
    row, "accs": [Aggregate, ...]}`` with accumulators in
    :func:`unique_aggregates` order — exactly the structure the central
    aggregation builds, so HAVING/projection/ORDER/LIMIT semantics are
    shared with :func:`execute_plan`.  Used by the distributed query
    path after merging scan-side partial aggregates.
    """
    unique = unique_aggregates(select)
    out_rows, columns = _finalize_groups(select, unique, groups, context)
    return _shape_output(select, out_rows, columns, context, scanned)


# -- scanning ---------------------------------------------------------------


def bind_row(raw: dict, binding: str) -> dict:
    """Expose columns both unqualified and as ``binding.column``."""
    row = dict(raw)
    for key, value in raw.items():
        row[f"{binding}.{key}"] = value
    return row


# -- distributed join support ------------------------------------------------


def execute_joined_select(select: Select, rows: list[dict],
                          context: EvalContext,
                          scanned: int = 0) -> QueryResult:
    """Finalize a SELECT whose joins ran distributed: ``execute_plan``'s
    post-join stages over the merged bound rows the pipeline gathered."""
    return _execute_post_join(select, rows, validate_select(select), context,
                              scanned)


# -- projection and aggregation ---------------------------------------------


def output_column_name(item: SelectItem, position: int) -> str:
    """The output column name the executor derives for an item."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, Column):
        return item.expr.name
    if isinstance(item.expr, FuncCall):
        return render_expr(item.expr)
    if isinstance(item.expr, LocalTimestamp):
        return "LOCALTIMESTAMP"
    return f"expr{position}"


def _execute_projection(select: Select, rows: list[dict],
                        context: EvalContext) -> tuple[list[dict], list[str]]:
    if select.select_star:
        columns = _star_columns(rows)
        out = []
        for row in rows:
            projected = {col: row.get(col) for col in columns}
            projected["__env__"] = row
            out.append(projected)
        return out, columns
    columns = [
        output_column_name(item, position)
        for position, item in enumerate(select.items)
    ]
    items = [compile_expr(item.expr) for item in select.items]
    out = []
    for row in rows:
        projected = {}
        for name, item in zip(columns, items):
            projected[name] = item(row, context)
        projected["__env__"] = row
        out.append(projected)
    return out, columns


def _star_columns(rows: list[dict]) -> list[str]:
    """Unqualified column names for ``SELECT *``, in first-seen order."""
    columns: list[str] = []
    seen: set[str] = set()
    for row in rows:
        for key in row:
            if "." in key or key in seen:
                continue
            seen.add(key)
            columns.append(key)
    return columns


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


#: Value types that are their own :func:`hashable_key`.
_SCALARS = frozenset({int, float, str, bool, NoneType})


def group_keys(columns: "list[list]", count: int) -> "list[tuple]":
    """Column-wise :func:`compile_group_key`: the GROUP BY keys of
    ``count`` rows from one value list per GROUP BY expression."""
    if not columns:
        return [()] * count
    parts = []
    for values in columns:
        if not set(map(type, values)) <= _SCALARS:
            values = list(map(hashable_key, values))
        parts.append(values)
    return list(zip(*parts))


def _execute_aggregate(select: Select, rows: list[dict],
                       context: EvalContext) -> tuple[list[dict], list[str]]:
    unique = unique_aggregates(select)
    group_key = compile_group_key(select.group_by)
    feeds = compile_agg_feeds(unique)

    groups: dict[tuple, dict] = {}
    for row in rows:
        key = group_key(row, context)
        group = groups.get(key)
        if group is None:
            group = {"row": row, "accs": new_group_accs(unique)}
            groups[key] = group
        for feed, acc in zip(feeds, group["accs"]):
            acc.add(1 if feed is None else feed(row, context))

    return _finalize_groups(select, unique, groups, context)


def _finalize_groups(select: Select, unique: list[FuncCall],
                     groups: dict,
                     context: EvalContext) -> tuple[list[dict], list[str]]:
    """HAVING filter + projection over accumulated groups."""
    if not select.group_by and not groups:
        # Aggregates over an empty input produce one row (COUNT = 0).
        groups[()] = {"row": {}, "accs": new_group_accs(unique)}

    columns = [
        output_column_name(item, position)
        for position, item in enumerate(select.items)
    ]
    having = (
        compile_predicate(select.having)
        if select.having is not None else None
    )
    items = [compile_expr(item.expr) for item in select.items]
    out = []
    for group in groups.values():
        # Compiled aggregate calls read their result from the row,
        # under the call node, next to the representative's columns.
        env = dict(group["row"])
        for call, acc in zip(unique, group["accs"]):
            env[call] = acc.result()
        if having is not None and not having(env, context):
            continue
        projected = {}
        for name, item in zip(columns, items):
            projected[name] = item(env, context)
        projected["__env__"] = env
        out.append(projected)
    return out, columns


def _distinct(rows: list[dict], columns: list[str]) -> list[dict]:
    seen: set[tuple] = set()
    out = []
    for row in rows:
        key = tuple(hashable_key(row[col]) for col in columns)
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


#: ``(NULL flag, NaN flag)`` of an ascending and of a descending ORDER
#: BY term; every other value's flag is ``descending`` (0 / 1).  An
#: ascending term sorts forward: values, NaN, NULL; a descending one
#: sorts reversed: NaN, values, NULL.  So NaN ranks above every number
#: (PostgreSQL's rule) and NULLs sort last both ways.  A NULL or NaN
#: key carries ``None`` as its value: neither is ever compared with a
#: value, and two NaNs tie.
_SPECIAL_FLAGS = ((2, 1), (0, 2))


def compile_order_key(order_by: "tuple[OrderItem, ...]") -> CompiledExpr:
    """A closure yielding one bound row's ORDER BY key: a flat native
    tuple ``(flag, value, flag, value, ...)``, one pair per term, which
    :func:`order_keyed` sorts with C comparisons (flags as in
    :data:`_SPECIAL_FLAGS`)."""
    terms = tuple(
        (compile_expr(order.expr), order.descending,
         *_SPECIAL_FLAGS[order.descending])
        for order in order_by
    )

    def order_key(row: dict, context: EvalContext) -> tuple:
        key: tuple = ()
        for term, descending, null_flag, nan_flag in terms:
            value = term(row, context)
            if value is None:
                key += (null_flag, None)
            elif value == value:
                key += (descending, value)
            else:
                key += (nan_flag, None)
        return key

    return order_key


def order_keys(order_by: "tuple[OrderItem, ...]",
               columns: "list[list]") -> "list[tuple]":
    """Column-wise :func:`compile_order_key`: the rows' ORDER BY keys
    from one value list per term."""
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
                limit: int | None = None,
                checked: bool = False) -> "list[tuple[tuple, object]]":
    """``(order key, row)`` pairs in ORDER BY order — only the first
    ``limit`` of them when given — keys from :func:`compile_order_key`.

    The order is the stable one: rows whose keys tie keep their input
    order.  Terms of one direction compare as one flat key, and a
    limit below the input size makes it a bounded selection
    (``heapq.nsmallest`` / ``nlargest`` are documented as equivalent to
    ``sorted(...)[:n]``, stability included, and fall back to exactly
    that otherwise).  Mixed directions take one stable pass per term,
    last term first.  Values that do not compare raise
    :class:`SqlExecutionError` — a term holding two types that do not
    order always, before any comparison (unless ``checked`` already), so
    neither the limit, the direction nor the chunking decides it.
    """
    if limit == 0:
        return []  # nothing is ranked, so nothing is compared
    error = None if checked else incomparable(_term_values(order_by, keyed))
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
    text is the same whichever comparison tripped; else ``None``."""
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


def _execute_order(select: Select, rows: list[dict],
                   context: EvalContext) -> list[dict]:
    """ORDER BY over projected rows, cut to the rows OFFSET / LIMIT can
    still reach.  A term sees the output columns over the row the item
    expressions saw."""
    order_key = compile_order_key(select.order_by)
    keyed = []
    for row in rows:
        env = dict(row["__env__"])
        for name, value in row.items():
            if not name.startswith("__"):
                env[name] = value
        keyed.append((order_key(env, context), row))
    limit = None
    if select.limit is not None:
        limit = select.limit + (select.offset or 0)
    return [row for _key, row in order_keyed(select.order_by, keyed, limit)]


# -- stable entry points for incremental consumers ---------------------------
#
# The continuous-query subsystem maintains results per-delta and needs
# the exact row-binding, naming and keying semantics of this executor
# (``bind_row``, ``output_column_name`` and ``hashable_key`` are public
# for it) so it never re-implements (and drifts from) batch execution.
# (Expression evaluation is :mod:`repro.sql.compiled`.)


def render_expr(expr: Expr) -> str:
    """Readable rendering used for derived output column names."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return f"'{expr.value}'"
        return str(expr.value)
    if isinstance(expr, Column):
        return expr.display()
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, LocalTimestamp):
        return "LOCALTIMESTAMP"
    if isinstance(expr, FuncCall):
        inner = ", ".join(render_expr(arg) for arg in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, Unary):
        return f"{expr.op} {render_expr(expr.operand)}"
    if isinstance(expr, Binary):
        return (
            f"({render_expr(expr.left)} {expr.op} "
            f"{render_expr(expr.right)})"
        )
    if isinstance(expr, InList):
        items = ", ".join(render_expr(item) for item in expr.items)
        negated = "NOT " if expr.negated else ""
        return f"{render_expr(expr.operand)} {negated}IN ({items})"
    if isinstance(expr, Between):
        negated = "NOT " if expr.negated else ""
        return (f"{render_expr(expr.operand)} {negated}BETWEEN "
                f"{render_expr(expr.low)} AND {render_expr(expr.high)}")
    if isinstance(expr, Like):
        negated = "NOT " if expr.negated else ""
        return (f"{render_expr(expr.operand)} {negated}LIKE "
                f"{render_expr(expr.pattern)}")
    if isinstance(expr, IsNull):
        negated = "NOT " if expr.negated else ""
        return f"{render_expr(expr.operand)} IS {negated}NULL"
    return type(expr).__name__
