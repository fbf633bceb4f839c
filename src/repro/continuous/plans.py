"""Plan canonicalization: collapse structurally identical subscriptions.

Following *Shared Arrangements* (McSherry et al., PAPERS.md), N standing
queries that differ only in subscriber-specific constants should share
ONE maintained plan instance.  :func:`canonicalize` normalizes a parsed
statement into a :class:`CanonicalPlan`:

* subscriber-specific **equality predicates** (``col = literal`` WHERE
  conjuncts on the filter/project path, when ``col`` is visible in the
  output row) are constant-folded out of the shared statement into a
  per-subscriber *residual filter*;
* the remaining statement is fingerprinted from its normalized AST, so
  ``WHERE user_id = 1 AND amount > 5`` and ``WHERE amount > 5 AND
  user_id = 2`` both map to the shared plan ``WHERE amount > 5`` with
  residuals ``user_id = 1`` / ``user_id = 2``.

The maintenance cost of a shared plan is charged **once per state
update per plan**, however many subscribers attached; the residual is
applied by the subscription router as a hash key: a delta's column
values index straight into the subscriber table, and a snapshot reads
the subscriber's bucket of the plan's published rows indexed by the
same value tuple.  The residual expression itself is never evaluated.

Extraction is deliberately conservative — it only fires when the
residual provably commutes with the shared plan:

* the statement is a single-table filter/project over a live table
  (aggregation changes group contents, so its WHERE is never split);
* the conjunct is ``Column = Literal`` (either side) with a scalar
  literal, the column unqualified or bound to the FROM table;
* the column's value is visible verbatim in the emitted result row
  (``SELECT *``, or a bare un-renamed select item), so the residual can
  be evaluated against delta entries and any residual-relevant change
  is guaranteed to surface as a delta.

The documented differences vs. evaluating the original WHERE are in
*errors* only:

* AND conjuncts are re-ordered (residual last).  Three-valued AND is
  commutative over values, so results are identical; only the error
  behaviour of pathological predicates (e.g. an unknown column that the
  original short-circuited past) can differ.
* A published row without a residual column reads it as NULL and
  matches no residual, where the original WHERE raises ``unknown
  column``; deltas and snapshots agree, and nothing raises from a
  scheduled flush.  (A list, dict or set value matches no residual,
  exactly as SQL ``=`` against a scalar literal is false for it.)
"""

from __future__ import annotations

import dataclasses
import hashlib

from ..sql.ast import Column, Expr, Literal, Select, Statement
from ..sql.executor import hashable_key, output_column_name
from ..sql.planner import column_equality, conjoin, split_conjuncts
from .standing import PATH_FILTER_PROJECT, classify

#: Literal types eligible for residual extraction.  ``None`` (SQL NULL)
#: is excluded: ``col = NULL`` never matches and is left in the shared
#: plan so the fingerprint keeps its (degenerate) semantics.
_RESIDUAL_LITERALS = (bool, int, float, str)


@dataclasses.dataclass(frozen=True)
class CanonicalPlan:
    """The shared-plan decision for one subscription's statement."""

    #: Stable fingerprint of the normalized shared statement.  Equal
    #: fingerprints share one maintained plan instance.
    fingerprint: str
    #: The statement the shared plan maintains (residual removed).
    statement: Statement
    #: Residual predicate (AND of the extracted conjuncts, original
    #: order) to apply per subscriber, or ``None``.
    residual: Expr | None
    #: Residual equality columns, sorted by name (the router's hash
    #: index key).  Empty when ``residual`` is None.
    residual_columns: tuple[str, ...]
    #: The subscriber's values for ``residual_columns`` (same order,
    #: passed through :func:`hashable_key`).
    residual_values: tuple[object, ...]
    #: Human-readable residual, e.g. ``user_id = 42``.
    residual_display: str

    @property
    def has_residual(self) -> bool:
        return self.residual is not None


def _output_columns(select: Select) -> set[str]:
    """Column names emitted verbatim (un-renamed bare references)."""
    names: set[str] = set()
    for position, item in enumerate(select.items):
        expr = item.expr
        if isinstance(expr, Column) and \
                output_column_name(item, position) == expr.name:
            names.add(expr.name)
    return names


def format_literal(value: object) -> str:
    """Render a literal the way the SQL surface would spell it."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if value is None:
        return "NULL"
    return repr(value)


def render_residual(pairs: list[tuple[str, object]]) -> str:
    return " AND ".join(
        f"{column} = {format_literal(value)}" for column, value in pairs
    )


def fingerprint_statement(statement: Statement) -> str:
    """Stable fingerprint of a normalized statement AST.

    The AST nodes are frozen dataclasses, so ``repr`` is a canonical
    serialization: two statements that parse to the same tree (however
    they were spelled) fingerprint identically.
    """
    digest = hashlib.sha1(repr(statement).encode("utf-8")).hexdigest()
    return digest[:12]


def canonicalize(statement: Statement, store,
                 extract_residual: bool = True) -> CanonicalPlan:
    """Normalize ``statement`` into its shared plan + residual filter."""
    extracted: list[tuple[Expr, Column, Literal]] = []
    shared: Statement = statement
    if (
        extract_residual
        and isinstance(statement, Select)
        and statement.where is not None
        and classify(statement, store)[0] == PATH_FILTER_PROJECT
    ):
        binding = statement.table.binding
        visible = _output_columns(statement)
        star = statement.select_star
        # Only the trailing run of equalities leaves the shared plan: a
        # row meets them after every kept conjunct, as it does in the
        # statement, so no row the residual drops could have raised.
        kept = split_conjuncts(statement.where)
        while kept and (parts := column_equality(kept[-1])) is not None:
            column, literal = parts
            if not (
                (column.table is None or column.table == binding)
                and type(literal.value) in _RESIDUAL_LITERALS
                and (star or column.name in visible)
            ):
                break
            extracted.insert(0, (kept.pop(), column, literal))
        if extracted:
            shared = dataclasses.replace(
                statement, where=conjoin(kept)
            )
    if not extracted:
        return CanonicalPlan(
            fingerprint=fingerprint_statement(shared),
            statement=shared,
            residual=None,
            residual_columns=(),
            residual_values=(),
            residual_display="",
        )
    # The router's hash index groups subscribers by residual column
    # set; sort so `a=1 AND b=2` and `b=2 AND a=1` land in one group.
    pairs = sorted(
        ((column.name, literal.value)
         for _conjunct, column, literal in extracted),
        key=lambda pair: pair[0],
    )
    return CanonicalPlan(
        fingerprint=fingerprint_statement(shared),
        statement=shared,
        residual=conjoin([c for c, _col, _lit in extracted]),
        residual_columns=tuple(column for column, _value in pairs),
        residual_values=tuple(
            hashable_key(value) for _column, value in pairs
        ),
        residual_display=render_residual(
            [(column.display(), literal.value)
             for _conjunct, column, literal in extracted]
        ),
    )
