"""``stream_q6``: NEXMark query 6 at a fixed virtual rate, no queries
(open loop)."""

from __future__ import annotations

import math

from repro.workloads.nexmark import build_query6_job

from ..harness import Round, Workload
from .jobs import PAPER_WORKERS_PER_NODE, checkpoint_invariants, \
    job_environment


class StreamQ6(Workload):
    name = "stream_q6"
    why = ("record path: simtime event queue, dataflow worker and state "
           "live mirroring (~5 events per record); sql, query and "
           "continuous stay idle")
    loop = "open, virtual fixed rate"
    tail_pct = 99.9
    probe_table = "q6"
    statements = {
        "q6_avg": 'SELECT COUNT(*), AVG(average) FROM "q6"',
    }
    probe_central = statements["q6_avg"]

    def __init__(self, seed: int, paper_rate_per_s: float = 1_000_000,
                 sellers: int = 10_000, nodes: int = 3,
                 checkpoint_ms: float = 250.0, warmup_ms: float = 250.0,
                 round_ms: float = 25.0) -> None:
        super().__init__(seed)
        self.nodes = nodes
        self.sellers = sellers
        # One simulated worker per node stands for the paper's twelve.
        self.rate_per_s = paper_rate_per_s / PAPER_WORKERS_PER_NODE
        self.checkpoint_ms = checkpoint_ms
        self.warmup_ms = warmup_ms
        self.round_ms = round_ms

    def setup(self) -> None:
        self.env, backend = job_environment(self.nodes, self.seed)
        self.job = build_query6_job(
            self.env, backend, rate_per_s=self.rate_per_s,
            sellers=self.sellers,
            checkpoint_interval_ms=self.checkpoint_ms,
            parallelism=self.nodes, seed=self.seed,
        )
        self.job.start()
        self.env.run_for(self.warmup_ms)

    def round(self, index: int, tracer) -> Round:
        latencies = self.job.metrics.sink_latencies
        start = len(latencies)
        with tracer.span("run_for", op=f"{index}:0"):
            self.env.run_for(self.round_ms)
        fresh = latencies[start:]
        good = [ms for ms in fresh if ms >= 0.0 and math.isfinite(ms)]
        return Round(ops=len(fresh), failed=len(fresh) - len(good),
                     virt_ms=good)

    def finish(self) -> tuple[int, int]:
        checks, failed = checkpoint_invariants(self.job)
        # Query 6 emits one result per input, so whatever was emitted
        # and has not reached the sink is in flight; that can be no
        # more than the source produces within the slowest latency.
        emitted = sum(s.records_emitted for s in self.job.source_instances())
        in_flight = emitted - self.job.sink_received("out")
        slowest_ms = max(self.job.metrics.sink_latencies)
        bound = 2 * self.rate_per_s / 1000.0 * slowest_ms + self.nodes
        return checks + 1, failed + (not 0 <= in_flight <= bound)
