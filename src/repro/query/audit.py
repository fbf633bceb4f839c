"""Auditing and compliance queries (§III).

GDPR Article 15 gives individuals the right to access their personal
data — *including* data held inside a stream processor's internal state.
:class:`StateAuditor` answers such subject-access requests in one shot:
for a given key it collects the live value and every retained snapshot
version from **every** stateful operator in the job, producing a
complete picture of what the system currently knows and recently knew
about that subject.

The same machinery serves the paper's debugging story:
:meth:`StateAuditor.submit_history` shows how one key's state mutated
across snapshot versions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable

from ..errors import QueryError

#: Process-wide monotonic audit ids.  Never key scheduled work on
#: ``id(report)``: CPython recycles object addresses, so two audits
#: alive at different times could collide on the pool's per-key FIFO
#: and serialize (or reorder) work that should be independent.
_audit_ids = itertools.count(1)


@dataclass
class TableAudit:
    """What one operator's state holds about a subject."""

    table: str
    live_value: object | None = None
    #: snapshot id -> state object (only ids where the key was present).
    versions: dict[int, object] = field(default_factory=dict)

    @property
    def present(self) -> bool:
        return self.live_value is not None or bool(self.versions)


@dataclass
class AuditReport:
    """Result of a subject-access request across all operators."""

    key: Hashable
    submitted_ms: float
    completed_ms: float | None = None
    tables: dict[str, TableAudit] = field(default_factory=dict)
    on_done: Callable[["AuditReport"], None] | None = None
    aid: int = field(default_factory=_audit_ids.__next__)

    @property
    def done(self) -> bool:
        return self.completed_ms is not None

    @property
    def latency_ms(self) -> float:
        if self.completed_ms is None:
            raise QueryError("audit still running")
        return self.completed_ms - self.submitted_ms

    def tables_holding_data(self) -> list[str]:
        return sorted(
            name for name, audit in self.tables.items() if audit.present
        )


class StateAuditor:
    """Subject-access and state-history queries over all operators."""

    def __init__(self, env) -> None:
        self.env = env
        self.sim = env.sim
        self.cluster = env.cluster
        self.store = env.store
        self.costs = env.costs
        self._entry_rotation = 0
        self.audits_executed = 0

    # -- subject access -----------------------------------------------------

    def submit_subject_access(
        self, key: Hashable,
        on_done: Callable[[AuditReport], None] | None = None,
    ) -> AuditReport:
        """Collect everything the system stores about ``key``.

        Performs one keyed lookup per live table plus one per retained
        snapshot version of each snapshot table, all charged to the
        entry node's query workers.
        """
        versions = self.store.available_ssids()
        lookups = (len(self.store.live_table_names())
                   + len(self.store.snapshot_table_names()) * len(versions))
        return self._submit(key, on_done, lookups, versions, None)

    # -- state history ------------------------------------------------------

    def submit_history(
        self, table: str, key: Hashable,
        on_done: Callable[[AuditReport], None] | None = None,
    ) -> AuditReport:
        """How ``key``'s state in one operator evolved across the
        retained snapshot versions (the §III debugging capability)."""
        base = table.removeprefix("snapshot_")
        if not self.store.has_snapshot_table(f"snapshot_{base}"):
            raise QueryError(f"no snapshot table for {table!r}")
        versions = self.store.available_ssids()
        return self._submit(key, on_done, len(versions), versions, base)

    def _submit(self, key: Hashable, on_done, lookups: int,
                versions: list[int], base: str | None) -> AuditReport:
        """Charge ``lookups`` keyed reads to an entry node's query
        workers, then collect ``key`` (:meth:`_complete`)."""
        report = AuditReport(key=key, submitted_ms=self.sim.now)
        report.on_done = on_done
        duration = (
            self.costs.direct_fixed_ms
            + max(1, lookups) * self.costs.direct_key_ms
        )
        pool = self.cluster.node(self._next_entry_node()).query_pool
        pool.submit(("audit", report.aid), duration, self._complete,
                    report, versions, base)
        return report

    def _complete(self, report: AuditReport, versions: list[int],
                  base: str | None) -> None:
        """Collect the report's key at ``versions`` from every table, or
        from one operator's (``base``) snapshot table and live table."""
        store = self.store
        key = report.key
        if base is None:
            live = store.live_table_names()
            snapshots = store.snapshot_table_names()
        else:
            live = [base] if store.has_live_table(base) else []
            snapshots = [f"snapshot_{base}"]
        for name in live:
            audit = report.tables.setdefault(name, TableAudit(name))
            audit.live_value = store.get_live_table(name).get(key)
        for name in snapshots:
            table_name = name.removeprefix("snapshot_")
            audit = report.tables.setdefault(table_name,
                                             TableAudit(table_name))
            table = store.get_snapshot_table(name)
            for ssid in versions:
                if not table.has_snapshot(ssid):
                    continue
                for instance in range(table.parallelism):
                    state = table.instance_state(ssid, instance)
                    if key in state:
                        audit.versions[ssid] = state[key]
                        break
        report.completed_ms = self.sim.now
        self.audits_executed += 1
        if report.on_done is not None:
            report.on_done(report)

    def _next_entry_node(self) -> int:
        alive = self.cluster.surviving_node_ids()
        node = alive[self._entry_rotation % len(alive)]
        self._entry_rotation += 1
        return node
