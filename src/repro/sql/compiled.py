"""The SQL expression evaluator: compile once, call per row.

What a SQL expression evaluates to — three-valued logic, short-circuit
order, column resolution, error text — is decided here and nowhere
else.  :func:`compile_expr` turns one AST expression into a specialized
Python closure ``fn(row, context) -> value``; every consumer (scan
fragments in :mod:`repro.sql.batch`, the central executor's WHERE /
projection / GROUP BY / HAVING / ORDER BY / join loops, the distributed
join coordinator, standing queries) compiles once per operator and then
calls the closure per row, so nothing re-walks the AST.  A scan's
``column <op> literal`` conjunct may instead run as
:func:`compile_column_test`, one comprehension over the column's list
that steps aside (to the closure) wherever it could differ from it.

Columns resolve in one of two modes, chosen by ``binding``:

* **bound rows** (``binding=None``): the row already went through
  ``bind_row`` (and possibly a join merge), so a reference is looked up
  as is — ``table.column`` when qualified, ``column`` otherwise.
* **raw rows** (``binding="t"``): the row is a stored row of the table
  bound as ``t`` and the closure yields exactly what bound-row
  resolution yields on ``bind_row(raw, "t")`` without building that
  copy.  The bound row is ``dict(raw)`` overlaid with
  ``{binding}.{column}`` aliases, so a ``binding``-qualified reference
  prefers the unqualified raw value (the overlay overwrites any literal
  ``"binding.column"`` raw key), and a reference qualified with any
  other table only ever sees literal dotted raw keys.

A raw row may carry :data:`~repro.kvstore.indexes.MISSING` under a
name: that reads as the key being absent (``unknown column``), which
lets a scan hand closures rows zipped straight from column lists.

Aggregate calls read their finished result from the row under the call
node itself (the executor merges ``{call: result}`` into a group's
representative row before evaluating HAVING / select items / ORDER BY);
on any other row they fail as "used outside aggregation".
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import repeat
from types import NoneType
from typing import Callable

from ..errors import SqlExecutionError
from ..kvstore.indexes import MISSING as _MISSING
from .ast import (
    AGGREGATE_FUNCTIONS,
    Between,
    Binary,
    CaseWhen,
    Column,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    LocalTimestamp,
    Star,
    Unary,
)
from .functions import SCALAR_FUNCTIONS
from .lru import LruCache


@dataclass
class EvalContext:
    """Runtime context for expression evaluation.

    ``now_ms`` backs ``LOCALTIMESTAMP``; timestamps in this reproduction
    are virtual milliseconds.
    """

    now_ms: float = 0.0


#: A compiled expression: evaluate against one row.
CompiledExpr = Callable[[dict, EvalContext], object]
#: A compiled conjunct over one column's value list: whether each value
#: passes, or ``None`` when the rows are for the per-row closure.
ColumnTest = Callable[[list], "list[bool] | None"]

#: Value types that are their own ``hashable_key`` and compare with a
#: scalar literal in C: ``True``, ``False`` or a ``TypeError``.
SCALARS = frozenset({int, float, str, bool, NoneType})

_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}
_ZERO_DIVISOR = {"/": "division by zero", "%": "modulo by zero"}


def truthy(value: object) -> bool:
    """SQL WHERE semantics: only TRUE passes (NULL does not)."""
    return value is True or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value != 0
    )


def compare(op: str, left: object, right: object) -> bool:
    """SQL comparison of two non-NULL values; incomparable types are a
    typed :class:`SqlExecutionError`, never a raw ``TypeError``."""
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    except TypeError:
        raise SqlExecutionError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}"
        ) from None


def compile_column_test(
    expr: Expr, binding: str | None = None,
) -> "tuple[str, ColumnTest] | None":
    """A conjunct ``column <op> literal`` (either side, a comparison, a
    non-NULL scalar literal) as one comprehension over the column's
    value list: ``(the name the column is read under, test)``, else
    ``None``.

    ``test(values)`` is what :func:`compile_predicate`'s closure returns
    on rows holding those values — NULL compares to nothing — as long as
    every value is one of :data:`SCALARS` (so none is ``MISSING``) and
    no comparison raises ``TypeError``.  Otherwise it returns ``None``:
    those rows are for the closure, whose error text and first erroring
    row decide."""
    if not isinstance(expr, Binary) or expr.op not in _COMPARISONS:
        return None
    column, literal = expr.left, expr.right
    flipped = isinstance(column, Literal)
    if flipped:
        column, literal = literal, column
    if not (isinstance(column, Column) and isinstance(literal, Literal)
            and type(literal.value) in SCALARS - {NoneType}):
        return None
    op = _COMPARISONS[expr.op]
    value = literal.value

    def test(values: list) -> "list[bool] | None":
        kinds = set(map(type, values))
        if not kinds <= SCALARS:
            return None
        try:
            if NoneType in kinds:
                if flipped:
                    return [cell is not None and op(value, cell)
                            for cell in values]
                return [cell is not None and op(cell, value)
                        for cell in values]
            if flipped:
                return list(map(op, repeat(value), values))
            return list(map(op, values, repeat(value)))
        except TypeError:
            return None

    return column_reads(column, binding)[0], test


def compile_predicate(expr: Expr, binding: str | None = None) -> CompiledExpr:
    """Compile a WHERE / ON / HAVING condition; the closure returns its
    truth value (only TRUE passes, NULL does not)."""
    fn = compile_expr(expr, binding)

    def predicate(raw: dict, context: EvalContext) -> bool:
        return truthy(fn(raw, context))

    return predicate


def compile_expr(expr: Expr, binding: str | None = None) -> CompiledExpr:
    """Compile one expression into a closure over ``(row, context)``.

    ``binding=None`` reads bound rows; a binding name reads raw stored
    rows of the table bound under it (see the module docstring)."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda raw, context: value
    if isinstance(expr, LocalTimestamp):
        return lambda raw, context: context.now_ms
    if isinstance(expr, Column):
        return _compile_column(expr, binding)
    if isinstance(expr, FuncCall):
        return _compile_call(expr, binding)
    if isinstance(expr, Unary):
        return _compile_unary(expr, binding)
    if isinstance(expr, Binary):
        return _compile_binary(expr, binding)
    if isinstance(expr, InList):
        return _compile_in(expr, binding)
    if isinstance(expr, Between):
        return _compile_between(expr, binding)
    if isinstance(expr, Like):
        return _compile_like(expr, binding)
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, binding)
        if expr.negated:
            return lambda raw, context: operand(raw, context) is not None
        return lambda raw, context: operand(raw, context) is None
    if isinstance(expr, CaseWhen):
        return _compile_case(expr, binding)
    if isinstance(expr, Star):
        return _raiser("* is only valid in COUNT(*) or SELECT *")
    return _raiser(f"cannot evaluate {type(expr).__name__}")


def _raiser(message: str) -> CompiledExpr:
    def fail(raw: dict, context: EvalContext) -> object:
        raise SqlExecutionError(message)

    return fail


def column_reads(column: Column, binding: str | None) -> tuple[str, ...]:
    """The row keys a compiled reference to ``column`` looks up, in
    order; the first one present is its value."""
    if column.table is None:
        return (column.name,)
    dotted = f"{column.table}.{column.name}"
    if column.table == binding:
        # The bind_row overlay writes binding-qualified aliases after
        # dict(raw), so the unqualified raw value shadows any literal
        # dotted raw key of the same name.
        return (column.name, dotted)
    # A qualified name on a bound row, or (on a raw row) another
    # table's qualifier, which only a literal dotted raw key satisfies.
    return (dotted,)


def _compile_column(column: Column, binding: str | None) -> CompiledExpr:
    message = f"unknown column {column.display()!r}"
    key, *fallback = column_reads(column, binding)

    def read(raw: dict, context: EvalContext) -> object:
        value = raw.get(key, _MISSING)
        if value is _MISSING:
            for other in fallback:
                value = raw.get(other, _MISSING)
            if value is _MISSING:
                raise SqlExecutionError(message)
        return value

    return read


def _compile_call(call: FuncCall, binding: str | None) -> CompiledExpr:
    if call.name in AGGREGATE_FUNCTIONS:
        # A finished aggregate is looked up like a column, under the
        # call node: only a group's representative row carries it.
        message = f"aggregate {call.name} used outside aggregation"

        def aggregate(raw: dict, context: EvalContext) -> object:
            value = raw.get(call, _MISSING)
            if value is _MISSING:
                raise SqlExecutionError(message)
            return value

        return aggregate
    func = SCALAR_FUNCTIONS.get(call.name)
    if func is None:
        return _raiser(f"unknown function {call.name}")
    args = tuple(compile_expr(arg, binding) for arg in call.args)

    def scalar(raw: dict, context: EvalContext) -> object:
        return func([fn(raw, context) for fn in args])

    return scalar


def _compile_unary(expr: Unary, binding: str | None) -> CompiledExpr:
    operand = compile_expr(expr.operand, binding)
    if expr.op == "NOT":
        def negate(raw: dict, context: EvalContext) -> object:
            value = operand(raw, context)
            if value is None:
                return None
            return not truthy(value)

        return negate
    op = expr.op
    apply = operator.neg if op == "-" else operator.pos

    def sign(raw: dict, context: EvalContext) -> object:
        value = operand(raw, context)
        if value is None:
            return None
        try:
            return apply(value)
        except TypeError:
            raise SqlExecutionError(
                f"cannot apply {op} to {type(value).__name__}"
            ) from None

    return sign


def _compile_binary(expr: Binary, binding: str | None) -> CompiledExpr:
    op = expr.op
    left = compile_expr(expr.left, binding)
    right = compile_expr(expr.right, binding)
    if op == "AND":
        def logical_and(raw: dict, context: EvalContext) -> object:
            lhs = left(raw, context)
            if lhs is False or (lhs is not None and not truthy(lhs)):
                return False
            rhs = right(raw, context)
            if rhs is False or (rhs is not None and not truthy(rhs)):
                return False
            if lhs is None or rhs is None:
                return None
            return True

        return logical_and
    if op == "OR":
        def logical_or(raw: dict, context: EvalContext) -> object:
            lhs = left(raw, context)
            if lhs is not None and truthy(lhs):
                return True
            rhs = right(raw, context)
            if rhs is not None and truthy(rhs):
                return True
            if lhs is None or rhs is None:
                return None
            return False

        return logical_or
    if op in _COMPARISONS:
        def comparison(raw: dict, context: EvalContext) -> object:
            lhs = left(raw, context)
            rhs = right(raw, context)
            if lhs is None or rhs is None:
                return None
            return compare(op, lhs, rhs)

        return comparison
    apply = _ARITHMETIC.get(op)
    if apply is not None:
        zero_message = _ZERO_DIVISOR.get(op)

        def arithmetic(raw: dict, context: EvalContext) -> object:
            lhs = left(raw, context)
            rhs = right(raw, context)
            if lhs is None or rhs is None:
                return None
            if zero_message is not None and rhs == 0:
                raise SqlExecutionError(zero_message)
            try:
                return apply(lhs, rhs)
            except TypeError:
                raise SqlExecutionError(
                    f"cannot apply {op} to {type(lhs).__name__} and "
                    f"{type(rhs).__name__}"
                ) from None

        return arithmetic

    # Both operands evaluate (surfacing their errors first) and
    # NULL-propagate before the operator is rejected.
    def unknown_operator(raw: dict, context: EvalContext) -> object:
        lhs = left(raw, context)
        rhs = right(raw, context)
        if lhs is None or rhs is None:
            return None
        raise SqlExecutionError(f"unknown operator {op}")

    return unknown_operator


def _compile_in(expr: InList, binding: str | None) -> CompiledExpr:
    operand = compile_expr(expr.operand, binding)
    items = tuple(compile_expr(item, binding) for item in expr.items)
    negated = expr.negated

    def in_list(raw: dict, context: EvalContext) -> object:
        value = operand(raw, context)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(raw, context)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not negated
        if saw_null:
            return None
        return negated

    return in_list


def _compile_between(expr: Between, binding: str | None) -> CompiledExpr:
    operand = compile_expr(expr.operand, binding)
    low = compile_expr(expr.low, binding)
    high = compile_expr(expr.high, binding)
    negated = expr.negated

    def between(raw: dict, context: EvalContext) -> object:
        value = operand(raw, context)
        low_value = low(raw, context)
        high_value = high(raw, context)
        # ``low <= value AND value <= high`` in three-valued logic, with
        # AND's short circuit: a FALSE half decides, whatever is NULL
        # (or incomparable, after a FALSE first half) in the other.
        if value is None:
            return None
        unknown = low_value is None
        if not unknown and not compare("<=", low_value, value):
            return negated
        if high_value is None:
            return None
        if not compare("<=", value, high_value):
            return negated
        return None if unknown else not negated

    return between


def _compile_like(expr: Like, binding: str | None) -> CompiledExpr:
    operand = compile_expr(expr.operand, binding)
    negated = expr.negated
    if isinstance(expr.pattern, Literal) and isinstance(expr.pattern.value, str):
        # The common case: a literal pattern compiles to a regex once,
        # here, instead of a cache lookup per row.
        regex = _like_regex(expr.pattern.value)

        def like_literal(raw: dict, context: EvalContext) -> object:
            value = operand(raw, context)
            if value is None:
                return None
            result = regex.fullmatch(str(value)) is not None
            return (not result) if negated else result

        return like_literal
    pattern = compile_expr(expr.pattern, binding)

    def like_dynamic(raw: dict, context: EvalContext) -> object:
        value = operand(raw, context)
        pattern_value = pattern(raw, context)
        if value is None or pattern_value is None:
            return None
        result = _like_match(str(value), str(pattern_value))
        return (not result) if negated else result

    return like_dynamic


def _compile_case(expr: CaseWhen, binding: str | None) -> CompiledExpr:
    branches = tuple(
        (compile_expr(condition, binding), compile_expr(result, binding))
        for condition, result in expr.branches
    )
    default = (
        compile_expr(expr.default, binding)
        if expr.default is not None else None
    )

    def case_when(raw: dict, context: EvalContext) -> object:
        for condition, result in branches:
            if truthy(condition(raw, context)):
                return result(raw, context)
        if default is not None:
            return default(raw, context)
        return None

    return case_when


# -- LIKE patterns -----------------------------------------------------------


#: Compiled LIKE patterns keyed by the raw pattern string, each with its
#: literal prefix (the characters before the first wildcard — what the
#: planner turns into a sorted-index range probe).  Patterns are almost
#: always literals, so the same handful recurs for every row of a scan;
#: the LRU bound guards against unbounded growth from data-derived
#: patterns (``x LIKE y``) while keeping the hot patterns resident —
#: the capacity follows ``CostModel.like_cache_max_patterns`` (applied
#: by :class:`~repro.env.Environment`), and hit/miss counts roll into
#: :class:`~repro.observability.ClusterReport`.
# lint: allow(shared-state) bounded LRU of idempotent compiled LIKE
# patterns; order-independent and single event-loop thread, no lock
# needed (hit/miss counters are cumulative by design, see above).
_LIKE_CACHE: LruCache[str, tuple["re.Pattern[str]", str]] = LruCache(1024)


def set_like_cache_capacity(capacity: int) -> None:
    """Apply the configured LIKE-cache bound (process-wide)."""
    _LIKE_CACHE.set_capacity(capacity)


def like_cache_stats() -> tuple[int, int]:
    """Process-wide ``(hits, misses)`` of the compiled-LIKE cache."""
    return _LIKE_CACHE.hits, _LIKE_CACHE.misses


def _compiled_like(pattern: str) -> tuple["re.Pattern[str]", str]:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex_parts = []
        prefix_len = len(pattern)
        for position, ch in enumerate(pattern):
            if ch == "%":
                regex_parts.append(".*")
                prefix_len = min(prefix_len, position)
            elif ch == "_":
                regex_parts.append(".")
                prefix_len = min(prefix_len, position)
            else:
                regex_parts.append(re.escape(ch))
        compiled = (
            re.compile("".join(regex_parts)), pattern[:prefix_len]
        )
        _LIKE_CACHE.put(pattern, compiled)
    return compiled


def _like_regex(pattern: str) -> "re.Pattern[str]":
    return _compiled_like(pattern)[0]


def like_literal_prefix(pattern: str) -> str | None:
    """The literal prefix every LIKE match must start with, or ``None``
    when the pattern starts with a wildcard (no usable prefix).  A
    prefix equal to the whole pattern means wildcard-free: the pattern
    is an exact string match."""
    prefix = _compiled_like(pattern)[1]
    return prefix if prefix else None


def _like_match(text: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards (no escapes)."""
    return _like_regex(pattern).fullmatch(text) is not None
