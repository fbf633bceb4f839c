"""Deciding whether an ``APPROX`` statement is sketch-answerable.

The sketch fast path only fires for aggregate shapes whose exact
semantics a sketch can bound:

* ``COUNT(*) WHERE col = literal``  -> count-min frequency estimate;
* ``COUNT(DISTINCT col)``           -> HyperLogLog cardinality;
* ``SUM(col)`` / ``AVG(col)``       -> stratified reservoir estimate.

Snapshot statements may additionally carry ``ssid = <n>`` equality
conjuncts (the idiomatic way to pin a version); they are recognised
here and validated against the resolved snapshot id by the query
service.  Any other shape — joins, GROUP BY, extra predicates,
expressions inside the aggregate — makes :func:`analyze_approx_select`
return ``None`` and the statement runs on the exact path, which then
reports ``error_bound = 0.0`` at ``confidence = 1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sql.ast import Column, FuncCall, Select, Star
from ..sql.planner import column_equality, split_conjuncts
from .registry import MODE_KIND


@dataclass(frozen=True)
class ApproxAggregate:
    """One sketch-answerable aggregate extracted from a SELECT."""

    mode: str            # count_eq | distinct | sum | avg
    column: str          # the sketched column
    value: object = None # equality literal (count_eq only)
    ssid_eq: int | None = None  # ssid pin from the WHERE clause

    @property
    def kind(self) -> str:
        return MODE_KIND[self.mode]

    def describe(self) -> str:
        if self.mode == "count_eq":
            return f"countmin({self.column!r} = {self.value!r})"
        return f"{self.kind}({self.column!r})"


class _Unsupported(Exception):
    """WHERE clause shape the sketches cannot answer."""


def analyze_approx_select(select: Select) -> ApproxAggregate | None:
    if not isinstance(select, Select) or not select.approx:
        return None
    if select.joins or select.select_star or select.distinct:
        return None
    if select.group_by or select.having is not None or select.order_by:
        return None
    if select.limit is not None or select.offset is not None:
        return None
    if len(select.items) != 1:
        return None
    call = select.items[0].expr
    if not isinstance(call, FuncCall):
        return None
    binding = select.table.binding
    try:
        eq, ssid_eq = _classify_where(select.where, binding)
    except _Unsupported:
        return None
    if call.name == "COUNT" and call.distinct:
        column = _plain_column(call, binding)
        if column is None or eq is not None:
            return None
        return ApproxAggregate("distinct", column, ssid_eq=ssid_eq)
    if call.name == "COUNT":
        if len(call.args) != 1 or not isinstance(call.args[0], Star):
            return None
        if eq is None:
            return None
        column, value = eq
        return ApproxAggregate("count_eq", column, value=value,
                               ssid_eq=ssid_eq)
    if call.name in ("SUM", "AVG") and not call.distinct:
        column = _plain_column(call, binding)
        if column is None or eq is not None:
            return None
        mode = "sum" if call.name == "SUM" else "avg"
        return ApproxAggregate(mode, column, ssid_eq=ssid_eq)
    return None


def _plain_column(call: FuncCall, binding: str) -> str | None:
    """The aggregate's argument, iff it is one unqualified (or
    correctly qualified) column reference."""
    if len(call.args) != 1:
        return None
    arg = call.args[0]
    if not isinstance(arg, Column):
        return None
    if arg.table is not None and arg.table != binding:
        return None
    return arg.name


def _classify_where(where, binding):
    """Split WHERE into at most one value-equality plus ssid pins."""
    if where is None:
        return None, None
    eq: tuple[str, object] | None = None
    ssid_eq: int | None = None
    for conjunct in split_conjuncts(where):
        matched = column_equality(conjunct)
        if matched is None or matched[0].table not in (None, binding):
            raise _Unsupported
        column, value = matched[0].name, matched[1].value
        if column == "ssid":
            if not isinstance(value, int) or isinstance(value, bool):
                raise _Unsupported
            if ssid_eq is not None and ssid_eq != value:
                raise _Unsupported
            ssid_eq = value
        else:
            if eq is not None or value is None:
                # Two value predicates, or ``col = NULL`` (never
                # true): leave both to the exact path.
                raise _Unsupported
            eq = (column, value)
    return eq, ssid_eq
