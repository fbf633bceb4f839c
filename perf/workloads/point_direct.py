"""``point_direct``: SQL point gets and direct-object gets from 16
closed-loop clients while a rider-location job keeps writing."""

from __future__ import annotations

import random

from repro import (DirectObjectInterface, Job, JobConfig,
                   KeyedAggregateOperator, Pipeline, QueryService)
from repro.workloads.qcommerce import RiderLocationSource, \
    rider_location_for

from .. import reference
from ..harness import Round, Workload
from ..trace import NO_TRACE
from .jobs import checkpoint_invariants, job_environment, preload

TABLE = "riderlocation"
#: (shape, share of requests, keys per request)
MIX = (("sql_point", 0.40, 1), ("sql_in", 0.10, 10),
       ("direct_1", 0.25, 1), ("direct_10", 0.20, 10),
       ("direct_100", 0.05, 100))


def _latest(_state, value):
    return value


def _no_output(_key, _state):
    return None


def _valid_location(key, value) -> bool:
    """``value`` (a row or a state object) is what the source writes
    for ``key`` at the sequence number it carries."""
    get = value.get if isinstance(value, dict) else \
        lambda name: getattr(value, name)
    want = rider_location_for(key, int(get("updatedTimestamp")))
    return (get("latitude") == want.latitude
            and get("longitude") == want.longitude)


class PointDirect(Workload):
    name = "point_direct"
    why = ("fixed per-request cost: sql lexer/parser, submit "
           "bookkeeping, cluster.network and kvstore locks; scan and "
           "merge layers stay idle, so a scan optimisation must not "
           "move it and a statement cache must")
    loop = "closed, 16 clients"
    tail_pct = 99.0
    probe_table = TABLE
    statements = {
        "sql_point": f'SELECT * FROM "{TABLE}" WHERE key = 4711',
        "sql_in": (f'SELECT * FROM "{TABLE}" WHERE key IN '
                   "(3, 1415, 92, 6535, 8979, 323, 8462, 6433, 83, 2795)"),
    }
    probe_central = f'SELECT COUNT(*) FROM "{TABLE}"'

    def __init__(self, seed: int, keys: int = 100_000, nodes: int = 3,
                 clients: int = 16, events_per_s: float = 2000.0,
                 checkpoint_ms: float = 1000.0,
                 round_ms: float = 50.0) -> None:
        super().__init__(seed)
        self.keys = keys
        self.nodes = nodes
        self.clients = clients
        self.events_per_s = events_per_s
        self.checkpoint_ms = checkpoint_ms
        self.round_ms = round_ms
        self.rng = random.Random(seed)
        self._tracer = NO_TRACE
        self._round = 0
        self._issued = 0
        #: (shape, keys, handle) of requests finished this round.
        self._done: list = []

    def setup(self) -> None:
        self.env, backend = job_environment(self.nodes, self.seed)
        pipeline = Pipeline()
        pipeline.add_source("rider-events", RiderLocationSource(
            self.events_per_s, self.keys, self.nodes))
        pipeline.add_operator(
            TABLE, lambda: KeyedAggregateOperator(_latest, _no_output))
        pipeline.connect("rider-events", TABLE)
        self.job = Job(
            self.env, pipeline,
            JobConfig(checkpoint_interval_ms=self.checkpoint_ms,
                      parallelism=self.nodes, seed=self.seed),
            backend)
        preload(self.job, TABLE, {
            key: rider_location_for(key, 0) for key in range(self.keys)
        })
        self.job.start()
        self.service = QueryService(self.env)
        self.direct = DirectObjectInterface(self.env)
        for _ in range(self.clients):
            self._issue()
        for _ in range(2):
            self.round(-1, NO_TRACE)

    def _issue(self) -> None:
        """One client draws and submits its next request."""
        draw = self.rng.random()
        for shape, share, count in MIX:
            if draw < share:
                break
            draw -= share
        keys = [self.rng.randrange(self.keys) for _ in range(count)]
        self._issued += 1

        def on_done(handle) -> None:
            self._done.append((shape, keys, handle))
            self._issue()

        with self._tracer.span(f"submit:{shape}",
                               op=f"{self._round}:{self._issued}"):
            if shape.startswith("direct"):
                self.direct.submit_get(TABLE, keys, on_done=on_done)
            elif count == 1:
                self.service.submit(
                    f'SELECT * FROM "{TABLE}" WHERE key = {keys[0]}',
                    on_done=on_done)
            else:
                self.service.submit(
                    f'SELECT * FROM "{TABLE}" WHERE key IN '
                    f"({', '.join(map(str, keys))})", on_done=on_done)

    def round(self, index: int, tracer) -> Round:
        self._tracer, self._round = tracer, index
        self._done = []
        with tracer.span("run_for", op=f"{index}:0"):
            self.env.run_for(self.round_ms)
        return Round(ops=len(self._done), pending=self._done)

    def verify(self, rnd: Round) -> None:
        for shape, keys, handle in rnd.pending:
            if handle.error is not None:
                rnd.failed += 1
                continue
            if shape.startswith("direct"):
                found = handle.values
            else:
                self.note(shape, handle)
                found = {row["key"]: row for row in handle.result.rows}
            if reference.point_matches(found, keys, _valid_location):
                rnd.virt_ms.append(handle.latency_ms)
                if shape.startswith("direct"):
                    self.stmt_virt.setdefault(shape, []).append(
                        handle.latency_ms)
            else:
                rnd.failed += 1

    def finish(self) -> tuple[int, int]:
        return checkpoint_invariants(self.job)
