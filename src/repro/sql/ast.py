"""SQL abstract syntax tree nodes (dataclasses)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter


class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant.  Literals are equal when their values are of one type
    and equal, so ``1``, ``1.0`` and ``TRUE`` are three literals, and an
    expression holding one never stands for one holding another (the
    aggregate calls a statement de-duplicates, the fragments a service
    compiles once)."""

    value: object  # int | float | str | bool | None

    def __eq__(self, other: object) -> bool:
        return (type(other) is Literal
                and type(other.value) is type(self.value)
                and other.value == self.value)

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))


@dataclass(frozen=True)
class Column(Expr):
    """A column reference, optionally qualified with a table alias."""

    name: str
    table: str | None = None

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` — only valid inside ``COUNT(*)`` or the select list."""


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'NOT' | '-' | '+'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # comparison, arithmetic, AND, OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar or aggregate function call.

    Aggregates are ``COUNT``/``SUM``/``AVG``/``MIN``/``MAX``; ``COUNT``
    may take :class:`Star`.  ``distinct`` applies to aggregates.
    """

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class CaseWhen(Expr):
    branches: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None


@dataclass(frozen=True)
class LocalTimestamp(Expr):
    """``LOCALTIMESTAMP`` — evaluation-time clock (virtual ms)."""


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A base table reference with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """One JOIN clause linking ``table`` to everything parsed before it."""

    table: TableRef
    kind: str = "INNER"  # 'INNER' | 'LEFT'
    using: tuple[str, ...] = ()
    on: Expr | None = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A parsed SELECT statement."""

    items: tuple[SelectItem, ...]
    table: TableRef
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    select_star: bool = False
    #: ``SELECT APPROX ...``: aggregate results may be answered from
    #: sketches; the result always carries ``error_bound`` and
    #: ``confidence`` columns (0.0 / 1.0 on the exact fallback).
    approx: bool = False

    def table_names(self) -> list[str]:
        """All base table names referenced, in FROM order."""
        names = [self.table.name]
        if self.joins:
            names.extend(join.table.name for join in self.joins)
        return names

    def aggregates(self) -> bool:
        """Whether the statement aggregates: a GROUP BY, or an aggregate
        call in the select list."""
        return bool(self.group_by) or any(
            map(contains_aggregate, map(_EXPR, self.items))
        )


@dataclass(frozen=True)
class Union:
    """``SELECT ... UNION [ALL] SELECT ...`` — branch results are
    concatenated (``ALL``) or deduplicated, using the first branch's
    column names.  Useful for combining live and snapshot views."""

    branches: tuple[Select, ...]
    all: bool = True

    def table_names(self) -> list[str]:
        names: list[str] = []
        for branch in self.branches:
            names.extend(branch.table_names())
        return names


#: Any executable SQL statement.
Statement = Select | Union

AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})
_EXPR = attrgetter("expr")


def children(expr: Expr | None) -> tuple[Expr, ...]:
    """The direct subexpressions of ``expr``, in evaluation order."""
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, (Unary, IsNull)):
        return (expr.operand,)
    if isinstance(expr, Like):
        return expr.operand, expr.pattern
    if isinstance(expr, Binary):
        return expr.left, expr.right
    if isinstance(expr, InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, Between):
        return expr.operand, expr.low, expr.high
    if isinstance(expr, CaseWhen):
        parts = [part for branch in expr.branches for part in branch]
        if expr.default is not None:
            parts.append(expr.default)
        return tuple(parts)
    return ()


def contains_aggregate(expr: Expr | None) -> bool:
    """True if the expression tree contains an aggregate call."""
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        return True
    return any(map(contains_aggregate, children(expr)))


def collect_aggregates(expr: Expr | None, out: list[FuncCall]) -> None:
    """Append every aggregate call in ``expr`` to ``out`` (pre-order)."""
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        out.append(expr)
        return
    for child in children(expr):
        collect_aggregates(child, out)


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
