"""The direct object interface (§IX-D, Fig. 14).

Instead of going through SQL, applications can fetch state objects for a
set of keys directly — the equivalent of IMDG's ``getAll``.  Per-query
cost is a fixed overhead plus a batched per-key cost with economies of
scale (``direct_key_ms * k ** direct_batch_exponent``), which produces
the power-law throughput/selectivity curve the paper measures.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..errors import QueryError, SnapshotNotFoundError


class DirectQuery:
    """Handle for one direct-object query."""

    def __init__(self, table: str, keys: list[Hashable],
                 submitted_ms: float) -> None:
        self.table = table
        self.keys = keys
        self.submitted_ms = submitted_ms
        self.completed_ms: float | None = None
        self.values: dict[Hashable, object] | None = None
        self.error: Exception | None = None
        self.on_done: Callable[["DirectQuery"], None] | None = None

    @property
    def done(self) -> bool:
        return self.completed_ms is not None

    @property
    def latency_ms(self) -> float:
        if self.completed_ms is None:
            raise QueryError("query still running")
        return self.completed_ms - self.submitted_ms


class DirectObjectInterface:
    """Key-lookup queries against live or snapshot state."""

    def __init__(self, env) -> None:
        self.env = env
        self.sim = env.sim
        self.cluster = env.cluster
        self.store = env.store
        self.costs = env.costs
        self._entry_rotation = 0
        self.queries_executed = 0

    def submit_get(self, table: str, keys: list[Hashable],
                   snapshot_id: int | None = None,
                   on_done: Callable[[DirectQuery], None] | None = None,
                   ) -> DirectQuery:
        """Fetch the state objects for ``keys`` from a live table, or
        from a snapshot table when ``snapshot_id`` is given (or the
        latest committed one if ``snapshot_id`` is ``-1``)."""
        query = DirectQuery(table, list(keys), self.sim.now)
        query.on_done = on_done
        costs = self.costs
        k = max(1, len(keys))
        duration = (
            costs.direct_fixed_ms
            + costs.direct_key_ms * (k ** costs.direct_batch_exponent)
        )
        node = self._next_entry_node()
        pool = self.cluster.node(node).query_pool
        pool.submit(None, duration, self._complete, query, snapshot_id)
        return query

    def _next_entry_node(self) -> int:
        alive = self.cluster.surviving_node_ids()
        if not alive:
            raise QueryError("no surviving nodes")
        node = alive[self._entry_rotation % len(alive)]
        self._entry_rotation += 1
        return node

    def _complete(self, query: DirectQuery,
                  snapshot_id: int | None) -> None:
        try:
            query.values = self._fetch(query, snapshot_id)
        except Exception as exc:
            query.error = exc
        else:
            self.queries_executed += 1
        query.completed_ms = self.sim.now
        if query.on_done is not None:
            query.on_done(query)

    def _fetch(self, query: DirectQuery,
               snapshot_id: int | None) -> dict[Hashable, object]:
        out: dict[Hashable, object] = {}
        if snapshot_id is None:
            table = self.store.get_live_table(query.table)
            for key in query.keys:
                value = table.get(key)
                if value is not None:
                    out[key] = value
            return out
        if snapshot_id == -1:
            committed = self.store.committed_ssid
            if committed is None:
                raise SnapshotNotFoundError(-1)
            snapshot_id = committed
        table = self.store.get_snapshot_table(query.table)
        for instance in range(table.parallelism):
            state = table.instance_state(snapshot_id, instance)
            for key in query.keys:
                if key in state:
                    out[key] = state[key]
        return out
