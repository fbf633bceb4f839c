"""``subscribe_fanout``: thousands of standing queries over one table
while updates arrive as a seeded Poisson process at a fixed virtual
rate (open loop)."""

from __future__ import annotations

import random

from repro import ClusterConfig, Environment, QueryService

from .. import reference
from ..harness import Round, Workload
from ..trace import NO_TRACE
from .refresh import load_live_table

TABLE = "metrics"
AGGREGATE_SQL = (f'SELECT user_id, SUM(value) AS s, COUNT(*) AS c '
                 f'FROM "{TABLE}" GROUP BY user_id')


def filter_sql(group: int) -> str:
    return f'SELECT * FROM "{TABLE}" WHERE user_id = {group}'


class SubscribeFanout(Workload):
    name = "subscribe_fanout"
    why = ("continuous apply, route and deliver plus state.live change "
           "capture; the sql scan path and dataflow stay idle; same "
           "state.live write path as stream_q6 but with readers attached")
    loop = "open, Poisson arrivals at a fixed virtual rate"
    tail_pct = 99.0
    probe_table = TABLE
    statements = {"filter_sub": filter_sql(7), "aggregate_sub": AGGREGATE_SQL}
    probe_central = AGGREGATE_SQL

    def __init__(self, seed: int, rows: int = 2000, subscribers: int = 2000,
                 groups: int = 200, nodes: int = 5,
                 updates_per_s: float = 2000.0,
                 round_ms: float = 100.0) -> None:
        super().__init__(seed)
        self.rows = rows
        self.groups = groups
        self.nodes = nodes
        self.filter_subscribers = subscribers * 9 // 10
        self.aggregate_subscribers = subscribers - self.filter_subscribers
        self.interval_ms = 1000.0 / updates_per_s
        self.round_ms = round_ms
        self.rng = random.Random(seed)
        self.data = {
            key: {"value": -1 - self.rng.randrange(1000),
                  "user_id": key % groups}
            for key in range(rows)
        }
        self._tracer = NO_TRACE
        self._round = 0
        self._stopped = False
        #: update seq -> (virtual apply time, key)
        self._applied: dict = {}
        #: update seq -> ids of filter subscribers yet to receive it
        self._waiting: dict = {}
        self._latest: dict = {}
        self._group_subs: dict = {}
        self._latencies: list = []

    def setup(self) -> None:
        self.env = Environment(
            ClusterConfig(nodes=self.nodes, processing_workers_per_node=1),
            seed=self.seed,
        )
        self.table = load_live_table(self.env, TABLE, self.data)
        self.service = QueryService(self.env)
        self.subscriptions = []
        for index in range(self.filter_subscribers):
            group = index % self.groups
            # Clients sit on any node: most deliveries cross the
            # (jittered) network instead of staying on the entry node.
            sub = self.service.subscribe(
                filter_sql(group), on_batch=self._on_batch,
                subscriber_node=self.rng.randrange(self.nodes))
            self._group_subs.setdefault(group, set()).add(sub.id)
            self.subscriptions.append(sub)
        for _ in range(self.aggregate_subscribers):
            self.subscriptions.append(self.service.subscribe(
                AGGREGATE_SQL,
                subscriber_node=self.rng.randrange(self.nodes)))
        self.env.run_for(50.0)  # deliver the seeding snapshots
        self._schedule_update()
        for _ in range(2):
            self.round(-1, NO_TRACE)

    def _schedule_update(self) -> None:
        # Exponential gaps: arrivals do not lock step with the 5 ms
        # delivery ticks, so latencies depend on the seed.
        self.env.sim.schedule(
            self.rng.expovariate(1.0 / self.interval_ms), self._update)

    def _update(self) -> None:
        if self._stopped:
            return
        key = self.rng.randrange(self.rows)
        self.updates += 1
        seq = self.updates
        group = key % self.groups
        self._latest[key] = seq
        readers = self._group_subs.get(group)
        if readers:
            self._applied[seq] = (self.env.sim.now, key)
            self._waiting[seq] = set(readers)
        with self._tracer.span("apply_update",
                               op=f"{self._round}:{seq}"):
            self.table.apply_update(key, {"value": seq, "user_id": group})
        self._schedule_update()

    def _on_batch(self, subscription, batch) -> None:
        waiting = self._waiting
        for entry in batch.entries:
            row = entry.get("row")
            if row is None:
                continue
            seq = row["value"]
            readers = waiting.get(seq)
            if readers is None:
                continue
            readers.discard(subscription.id)
            if not readers:
                del waiting[seq]
                self._latencies.append(
                    self.env.sim.now - self._applied.pop(seq)[0])

    def round(self, index: int, tracer) -> Round:
        self._tracer, self._round = tracer, index
        before = self.updates
        with tracer.span("run_for", op=f"{index}:0"):
            self.env.run_for(self.round_ms)
        # Later deliveries (next round, final drain) start a new list.
        latencies, self._latencies = self._latencies, []
        return Round(ops=self.updates - before, virt_ms=latencies)

    def finish(self) -> tuple[int, int]:
        """Drain, then: no newest value undelivered, and every
        subscriber's view equals a fresh ``execute`` of its SQL."""
        self._stopped = True
        self.env.run_for(200.0)
        # An update overwritten before its delta went out may be
        # coalesced away; the newest value of a key may not.
        undelivered = sum(
            1 for seq in self._waiting
            if self._latest[self._applied[seq][1]] == seq
        )
        fresh: dict = {}
        stale = 0
        for sub in self.subscriptions:
            if sub.sql not in fresh:
                fresh[sub.sql] = self.service.execute(sub.sql).result.rows
            stale += not reference.rows_match(
                sub.rows(), fresh[sub.sql], ordered=False)
        return (len(self._waiting) + len(self.subscriptions),
                undelivered + stale)
