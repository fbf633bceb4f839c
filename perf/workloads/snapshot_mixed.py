"""``snapshot_mixed``: the q-commerce job checkpointing while two
closed-loop clients rotate the paper's four snapshot queries."""

from __future__ import annotations

from repro import QueryService
from repro.workloads.qcommerce import (ALL_QUERIES, QUERY_3,
                                       build_qcommerce_job, order_info_for,
                                       order_status_for, rider_location_for)

from .. import reference
from ..harness import Round, Workload
from ..trace import NO_TRACE
from .jobs import checkpoint_invariants, job_environment, preload


class SnapshotMixed(Workload):
    name = "snapshot_mixed"
    why = ("checkpoints beside queries: snapshot writes and scan chunks "
           "queue on the same store partition servers (virtual clock); "
           "host time is the simtime event queue (~900 events per query)")
    loop = "job open at a fixed virtual rate + 2 closed clients"
    tail_pct = 99.0
    probe_table = "orderstate"
    statements = dict(zip(("q1", "q2", "q3", "q4"), ALL_QUERIES))
    probe_central = QUERY_3

    def __init__(self, seed: int, orders: int = 40_000, nodes: int = 7,
                 clients: int = 2, events_per_s: float = 2000.0,
                 checkpoint_ms: float = 1000.0) -> None:
        super().__init__(seed)
        self.orders = orders
        self.riders = max(10, orders // 10)
        self.nodes = nodes
        self.clients = clients
        self.events_per_s = events_per_s
        self.checkpoint_ms = checkpoint_ms
        self._stopped = False
        self._tracer = NO_TRACE
        self._round = 0
        self._next = 0
        self._done: list = []

    def setup(self) -> None:
        self.env, backend = job_environment(self.nodes, self.seed)
        self.job = build_qcommerce_job(
            self.env, backend, orders=self.orders, riders=self.riders,
            events_per_s=self.events_per_s,
            checkpoint_interval_ms=self.checkpoint_ms,
            parallelism=self.nodes, seed=self.seed,
        )
        preload(self.job, "orderinfo", {
            key: order_info_for(key) for key in range(self.orders)})
        preload(self.job, "orderstate", {
            key: order_status_for(key, key % 8, late=(key % 4 == 0))
            for key in range(self.orders)})
        preload(self.job, "riderlocation", {
            key: rider_location_for(key, 0) for key in range(self.riders)})
        self.job.start()
        # The first checkpoint must commit before snapshots are queried.
        self.env.run_for(self.checkpoint_ms * 1.5)
        self.service = QueryService(self.env)
        for _ in range(self.clients):
            self._issue()
        self.env.run_for(self.checkpoint_ms)

    def _issue(self) -> None:
        if self._stopped:
            return
        shape = ("q1", "q2", "q3", "q4")[self._next % 4]
        self._next += 1

        def on_done(execution) -> None:
            self._done.append((shape, execution))
            self._issue()

        with self._tracer.span(f"submit:{shape}",
                               op=f"{self._round}:{self._next}"):
            self.service.submit(self.statements[shape], on_done=on_done,
                                materialize=False)

    def round(self, index: int, tracer) -> Round:
        self._tracer, self._round = tracer, index
        self._done = []
        with tracer.span("run_for", op=f"{index}:0"):
            self.env.run_for(self.checkpoint_ms)
        rnd = Round(ops=len(self._done))
        for shape, execution in self._done:
            if execution.error is not None:
                rnd.failed += 1
                continue
            self.note(shape, execution)
            rnd.virt_ms.append(execution.latency_ms)
        return rnd

    def finish(self) -> tuple[int, int]:
        """Checkpoint invariants, then one materialised QUERY_3 against
        a recount over the raw rows of the snapshot it read."""
        self._stopped = True
        checks, failed = checkpoint_invariants(self.job)
        execution = self.service.execute(QUERY_3)
        store = self.env.store
        ssid = execution.snapshot_id
        expected = reference.q3_expected(
            store.get_snapshot_table("snapshot_orderinfo")
            .rows_for_snapshot(ssid),
            store.get_snapshot_table("snapshot_orderstate")
            .rows_for_snapshot(ssid),
        )
        ok = reference.rows_match(execution.result.rows, expected,
                                  ordered=False)
        return checks + 1, failed + (not ok)
