"""Catalog abstraction and the logical planner.

The planner resolves table names against a :class:`Catalog`, decides the
join strategy for each JOIN clause (hash join for ``USING`` and simple
equality ``ON``; nested loop otherwise), and validates aggregate usage.
The result is a :class:`Plan` the executor walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from ..errors import SqlPlanError
from ..state.rows import ColumnBatch, ColumnReader
from .ast import (
    Binary,
    Column,
    Expr,
    FuncCall,
    Join,
    Literal,
    LocalTimestamp,
    Select,
    children,
    contains_aggregate,
    output_column_name,
)


class TableSource(Protocol):
    """Anything the SQL engine can scan."""

    @property
    def name(self) -> str: ...

    @property
    def blocks(self) -> dict[int, ColumnBatch]:
        """The table's rows as column batches by node id, in node order."""
        ...


class Catalog(Protocol):
    """Resolves table names to sources."""

    def table(self, name: str) -> TableSource: ...


@dataclass(frozen=True)
class ListTable:
    """In-memory table source (used by tests and the query service)."""

    name: str
    data: tuple[dict, ...]

    def rows(self) -> Iterable[dict]:
        return self.data

    @property
    def blocks(self) -> dict[int, ColumnBatch]:
        return {0: ColumnBatch(ColumnReader(), list(self.data))}


class DictCatalog:
    """A trivial catalog over a dict of table sources."""

    def __init__(self, tables: dict[str, TableSource] | None = None) -> None:
        self._tables: dict[str, TableSource] = dict(tables or {})

    def add(self, table: TableSource) -> None:
        self._tables[table.name] = table

    def table(self, name: str) -> TableSource:
        try:
            return self._tables[name]
        except KeyError:
            raise SqlPlanError(f"unknown table {name!r}") from None


@dataclass(frozen=True)
class BatchTable:
    """A table as the column batches its shards shipped, by node id."""

    name: str
    blocks: dict[int, ColumnBatch]


class BatchCatalog:
    """Shipped tables: table name -> node id -> column batch."""

    def __init__(self, tables: dict[str, dict[int, ColumnBatch]]) -> None:
        self._tables = tables

    def table(self, name: str) -> BatchTable:
        if name not in self._tables:
            raise SqlPlanError(f"unknown table {name!r}")
        return BatchTable(name, self._tables[name])


@dataclass(frozen=True)
class JoinStep:
    """One join in the left-deep plan."""

    source: TableSource
    binding: str
    kind: str  # 'INNER' | 'LEFT'
    #: columns for a hash join via USING (empty if ON is used).
    using: tuple[str, ...]
    #: for equality ON joins: (left expr, right expr) hash keys.
    hash_on: tuple[Expr, Expr] | None
    #: the ON predicate; without ``hash_on``, a nested loop evaluates
    #: it on each merged row.
    on: Expr | None


@dataclass(frozen=True)
class Plan:
    """A resolved, executable SELECT."""

    select: Select
    base_source: TableSource
    base_binding: str
    joins: tuple[JoinStep, ...]
    is_aggregate: bool


def plan_select(select: Select, catalog: Catalog) -> Plan:
    """Validate ``select`` and resolve it against ``catalog``."""
    is_aggregate = validate_select(select)
    base_source = catalog.table(select.table.name)
    steps: list[JoinStep] = []
    for join in select.joins:
        steps.append(_plan_join(join, catalog))
    return Plan(
        select=select,
        base_source=base_source,
        base_binding=select.table.binding,
        joins=tuple(steps),
        is_aggregate=is_aggregate,
    )


def validate_select(select: Select) -> bool:
    """The statement-shape checks of every SELECT, which raise before
    any row is read — central planning runs them first, the query
    service before it ranks what its shards shipped.  Returns whether it
    aggregates."""
    bindings = {select.table.binding}
    for join in select.joins:
        binding = join.table.binding
        if binding in bindings:
            raise SqlPlanError(f"duplicate table binding {binding!r}")
        bindings.add(binding)
    is_aggregate = select.aggregates()
    if select.having is not None and not is_aggregate:
        raise SqlPlanError("HAVING requires GROUP BY or aggregates")
    if is_aggregate and select.select_star:
        raise SqlPlanError("SELECT * cannot be combined with aggregation")
    if select.approx and not is_aggregate:
        raise SqlPlanError(
            "APPROX requires an aggregate query (COUNT/SUM/AVG/...)"
        )
    if len(select.items) > 1:
        check_output_names(select)
    return is_aggregate


def check_output_names(select: Select) -> None:
    """A result row holds one value per output name, so two select items
    of one name must be the same expression (``SELECT a, a``)."""
    named: dict[str, Expr] = {}
    for position, item in enumerate(select.items):
        name = output_column_name(item, position)
        first = named.setdefault(name, item.expr)
        if first is not item.expr and first != item.expr:
            raise SqlPlanError(
                f"two different select items are named {name!r}; "
                "alias one of them"
            )


def _plan_join(join: Join, catalog: Catalog) -> JoinStep:
    return JoinStep(
        source=catalog.table(join.table.name),
        binding=join.table.binding,
        kind=join.kind,
        using=join.using,
        hash_on=None if join.using
        else extract_hash_keys(join.on, join.table.binding),
        on=join.on,
    )


# -- AST analysis helpers ----------------------------------------------------
#
# Used by the distributed fragment splitter (sql.fragments) and the
# query service to reason about WHERE clauses without evaluating them.


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a WHERE tree into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[Expr]) -> Expr | None:
    """Rebuild a left-deep AND tree from conjuncts (None if empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for part in conjuncts[1:]:
        combined = Binary("AND", combined, part)
    return combined


def column_equality(expr: Expr | None) -> tuple[Column, Literal] | None:
    """``column = literal``, either way round, as ``(column, literal)``;
    ``None`` for any other expression."""
    if not isinstance(expr, Binary) or expr.op != "=":
        return None
    left, right = expr.left, expr.right
    if isinstance(left, Literal):
        left, right = right, left
    if isinstance(left, Column) and isinstance(right, Literal):
        return left, right
    return None


def collect_columns(expr: Expr | None, out: list[Column],
                    aggregated: bool = False) -> None:
    """Append every column reference in ``expr`` to ``out`` (pre-order);
    with ``aggregated``, not the ones only aggregate arguments read."""
    if isinstance(expr, Column):
        out.append(expr)
        return
    skip = (aggregated and isinstance(expr, FuncCall)
            and contains_aggregate(expr))
    for child in children(expr):
        if skip and not contains_aggregate(child):
            continue
        if isinstance(child, Column):  # the leaves, without a call each
            out.append(child)
        elif not isinstance(child, Literal):
            collect_columns(child, out, aggregated)


def contains_local_timestamp(expr: Expr | None) -> bool:
    """True if the tree references ``LOCALTIMESTAMP``.

    Such expressions are pinned to the entry node: evaluating them
    scan-side would read the virtual clock at a different instant."""
    return isinstance(expr, LocalTimestamp) or any(
        map(contains_local_timestamp, children(expr))
    )


def extract_hash_keys(
    on: Expr | None, right_binding: str
) -> tuple[Expr, Expr] | None:
    """Detect ``left.col = right.col`` equality for a hash join.

    Returns ``(probe_expr, build_expr)`` where the build expression
    references only the newly joined (right) table.  Anything more
    complex falls back to a nested loop.  The distributed join planner
    uses the same detection to classify steps as equi-joins, so the
    two layers can never disagree on which joins hash.
    """
    if not isinstance(on, Binary) or on.op != "=":
        return None
    left, right = on.left, on.right
    if not isinstance(left, Column) or not isinstance(right, Column):
        return None
    if left.table is None or right.table is None:
        return None
    if right.table == right_binding and left.table != right_binding:
        return left, right
    if left.table == right_binding and right.table != right_binding:
        return right, left
    return None
