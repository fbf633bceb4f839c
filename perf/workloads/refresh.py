"""Shared shape of the two closed-loop refresh workloads: a static set
of live tables and one client that runs every statement in turn."""

from __future__ import annotations

from repro import ClusterConfig, Environment, QueryService
from repro.state.live import LiveStateTable

from ..harness import Round, Workload


def load_live_table(env, name: str, data: dict):
    """Create ``name`` as a live table holding ``data`` (key -> value)."""
    imap = env.store.create_map(name)
    table = LiveStateTable(imap)
    env.store.register_live_table(name, table)
    for key, value in data.items():
        imap.put(key, value)
    return table


class RefreshWorkload(Workload):
    """One op = one refresh = every statement executed once; its
    virtual latency is the sum of the statements' ``latency_ms``."""

    loop = "closed, 1 client"
    nodes = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.expected = None

    # -- to implement -----------------------------------------------------

    def tables(self) -> dict:
        """name -> data of every table to load."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Indexes and sketches, built after the load."""

    def reference(self) -> dict:
        """shape -> expected answer, recomputed in plain Python."""
        raise NotImplementedError

    def matches(self, shape: str, execution, expected) -> bool:
        raise NotImplementedError

    # -- the run ----------------------------------------------------------

    def setup(self) -> None:
        self.env = Environment(
            ClusterConfig(nodes=self.nodes, processing_workers_per_node=1),
            seed=self.seed,
        )
        for name, data in self.tables().items():
            load_live_table(self.env, name, data)
        self.prepare()
        self.service = QueryService(self.env)
        for _ in range(2):
            for sql in self.statements.values():
                self.service.execute(sql)

    def round(self, index: int, tracer) -> Round:
        rnd = Round(ops=1, pending={})
        total_ms = 0.0
        with tracer.span("refresh", op=f"{index}:0"):
            for shape, sql in self.statements.items():
                with tracer.span(f"execute:{shape}"):
                    execution = self.service.execute(sql)
                self.note(shape, execution)
                total_ms += execution.latency_ms
                rnd.pending[shape] = execution
        rnd.virt_ms.append(total_ms)
        return rnd

    def verify(self, rnd: Round) -> None:
        if self.expected is None:
            self.expected = self.reference()
        ok = all(
            self.matches(shape, execution, self.expected[shape])
            for shape, execution in rnd.pending.items()
        )
        if not ok:
            rnd.failed = rnd.ops
            rnd.virt_ms.clear()
