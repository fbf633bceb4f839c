"""A small SQL engine for querying live and snapshot state.

Supports the dialect needed by the paper's workload (and a bit more):
``SELECT`` with expressions and aliases, ``FROM`` with multiple
``JOIN ... USING(col)`` / ``JOIN ... ON expr``, ``WHERE``, ``GROUP BY``
with ``COUNT/SUM/AVG/MIN/MAX``, ``HAVING``, ``ORDER BY``, ``LIMIT``,
``LOCALTIMESTAMP``, quoted identifiers, and ``IN``/``BETWEEN``/``LIKE``.

The engine is pure: it parses SQL into an AST, plans it against a
:class:`~repro.sql.planner.Catalog`, and executes over the column
batches of its tables' rows.  Timing/cost accounting happens in
:mod:`repro.query.service`, not here.
"""

from .ast import Select, Union
from .compiled import EvalContext
from .executor import QueryResult, execute_select
from .explain import explain
from .parser import parse
from .planner import Catalog, TableSource

__all__ = [
    "Catalog",
    "EvalContext",
    "QueryResult",
    "Select",
    "TableSource",
    "Union",
    "execute_select",
    "explain",
    "parse",
]
