"""TSpoon baseline for the direct-object comparison (§IX-D, Fig. 14).

TSpoon (Margara, Affetti, Cugola — JPDC 2020) extends a stream processor
with *transactional* dataflow regions; external state queries are
read-only transactions that flow through the transactional part of the
graph and are serialised with respect to update transactions.  The
consequences for query performance, which Fig. 14 measures, are:

* a **fixed transactional overhead** per query (transaction admission,
  in-band routing through the operator chain, commit bookkeeping) that
  dominates at low selectivity — this is why S-QUERY is ~2x faster for
  single-key queries;
* a per-key read cost comparable to S-QUERY's, with similar batching
  economies — which is why the two systems converge for 10+ keys.

We reproduce exactly that cost structure
(``CostModel.tspoon_txn_overhead_ms`` / ``tspoon_key_ms`` /
``tspoon_batch_exponent``) on the same simulated cluster.  Queries read
the operator's state transactionally — after the running update commits
— which we realise by reading the live table under the key-level lock
discipline (reads are serialised with updates, read-committed results).
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..errors import QueryError


class TSpoonQuery:
    """Handle for one TSpoon read-only transaction."""

    def __init__(self, table: str, keys: list[Hashable],
                 submitted_ms: float) -> None:
        self.table = table
        self.keys = keys
        self.submitted_ms = submitted_ms
        self.completed_ms: float | None = None
        self.values: dict[Hashable, object] | None = None
        self.on_done: Callable[["TSpoonQuery"], None] | None = None

    @property
    def done(self) -> bool:
        return self.completed_ms is not None

    @property
    def latency_ms(self) -> float:
        if self.completed_ms is None:
            raise QueryError("query still running")
        return self.completed_ms - self.submitted_ms


class TSpoonSystem:
    """A TSpoon-like queryable-state system on the shared cluster.

    Uses the same query worker pools as S-QUERY's interfaces so the two
    systems compete for identical resources; only the per-query cost
    model differs (see module docstring).
    """

    def __init__(self, env) -> None:
        self.env = env
        self.sim = env.sim
        self.cluster = env.cluster
        self.store = env.store
        self.costs = env.costs
        self._entry_rotation = 0
        self.queries_executed = 0

    def submit_get(self, table: str, keys: list[Hashable],
                   on_done: Callable[[TSpoonQuery], None] | None = None,
                   ) -> TSpoonQuery:
        """Run a read-only transaction fetching ``keys`` from the live
        state of ``table``."""
        query = TSpoonQuery(table, list(keys), self.sim.now)
        query.on_done = on_done
        costs = self.costs
        k = max(1, len(keys))
        duration = (
            costs.tspoon_txn_overhead_ms
            + costs.tspoon_key_ms * (k ** costs.tspoon_batch_exponent)
        )
        node = self._next_entry_node()
        pool = self.cluster.node(node).query_pool
        pool.submit(None, duration, self._complete, query)
        return query

    def _next_entry_node(self) -> int:
        alive = self.cluster.surviving_node_ids()
        node = alive[self._entry_rotation % len(alive)]
        self._entry_rotation += 1
        return node

    def _complete(self, query: TSpoonQuery) -> None:
        table = self.store.get_live_table(query.table)
        query.values = {
            key: table.get(key)
            for key in query.keys
            if table.get(key) is not None
        }
        query.completed_ms = self.sim.now
        self.queries_executed += 1
        if query.on_done is not None:
            query.on_done(query)
