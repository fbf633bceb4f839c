"""Push delivery: batches, tiers, subscriptions, and the client view.

Result deltas flow to simulated subscriber clients as
:class:`DeltaBatch` messages over the cluster network model.  Each
:class:`Subscription` picks a **delivery tier**:

* ``realtime`` — deltas ship on the ordinary batch interval;
* ``coalesced`` — pending deltas are merged per result key at flush
  time (last write wins) on a longer interval, so a hot key costs one
  entry per flush however often it changed;
* ``digest`` — the subscriber never receives deltas at all: it gets a
  residual-filtered snapshot at most once per digest interval while the
  result is dirty.

Flow control is layered (the slow-consumer ladder): the in-flight
window (``outstanding`` vs ``max_outstanding``) coalesces pending
deltas into one snapshot when full; the pending queue itself is bounded
(``CostModel.push_max_pending_deltas``), degrading to a snapshot before
memory grows; and a subscriber whose window stays full past
``CostModel.push_evict_stalled_after_ms`` is **evicted** with a
terminal :data:`BATCH_EVICTED` batch so it can't pin the router's
state.  Batches bound for the same ``(entry node, subscriber node)``
pair ship in one network message (see the service's outbox), keeping
channel count O(nodes²) rather than O(subscriptions); the flushes, and
the consumes one message delivers, run as one simulator event per time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: Batch kinds.
BATCH_DELTA = "delta"        # incremental entries (upsert/delete)
BATCH_SNAPSHOT = "snapshot"  # full current result (coalesced / rescan)
BATCH_ROLLBACK = "rollback"  # full post-recovery result (Fig. 5c replay)
BATCH_EVICTED = "evicted"    # terminal: slow consumer dropped by service
BATCH_FAILED = "failed"      # terminal: the standing query raised (error)
TERMINAL_BATCHES = (BATCH_EVICTED, BATCH_FAILED)

#: Delivery tiers.
TIER_REALTIME = "realtime"
TIER_COALESCED = "coalesced"
TIER_DIGEST = "digest"
TIERS = (TIER_REALTIME, TIER_COALESCED, TIER_DIGEST)


@dataclass
class DeltaBatch:
    """One push message from the service to a subscriber."""

    subscription_id: int
    seq: int
    kind: str                      # one of the BATCH_* kinds
    entries: list[dict]            # delta: {action,key,row}; else {key,row}
    sent_ms: float
    ssid: int | None = None        # rollback: the restored snapshot id
    error: Exception | None = None  # failed: what the statement raised
    delivered_ms: float | None = None
    consumed_ms: float | None = None


@dataclass
class Subscription:
    """Handle for one standing subscription, including the simulated
    subscriber client's state (``view``) and flow-control window."""

    id: int
    sql: str
    standing: object               # StandingQuery (shared across the plan)
    entry_node: int                # node that batches and ships deltas
    subscriber_node: int           # node the client is attached to
    max_outstanding: int = 4
    batch_interval_ms: float = 5.0
    consume_ms: float | None = None  # override: slow/fast subscriber
    on_batch: Callable[["Subscription", DeltaBatch], None] | None = None
    tier: str = TIER_REALTIME

    #: The shared plan this subscription reads
    #: (:class:`~repro.continuous.router.SharedPlan`).
    plan: object | None = None
    #: The canonicalization decision
    #: (:class:`~repro.continuous.plans.CanonicalPlan`).
    canonical: object | None = None

    active: bool = True
    #: True once the service dropped this subscriber as a slow consumer.
    evicted: bool = False
    #: Deltas accumulated since the last flush (server side).
    pending: list[dict] = field(default_factory=list)
    #: Batches shipped but not yet acknowledged.
    outstanding: int = 0
    #: Set when coalescing dropped deltas: next send is a snapshot.
    needs_snapshot: bool = False
    #: Set by rollback recovery: next send is a rollback replay (bypasses
    #: the flow-control window so every live subscriber hears about it).
    needs_rollback_ssid: int | None = None
    flush_scheduled: bool = False
    #: Digest tier: result changed since the last digest snapshot.
    digest_dirty: bool = False
    digest_scheduled: bool = False
    #: Sim time the flow-control window filled (cleared on every ack);
    #: staying stalled past the eviction deadline drops the subscriber.
    stalled_since: float | None = None
    #: Re-evaluate on checkpoint commit (snapshot tables referenced).
    refresh_on_commit: bool = False

    #: The client's materialised result, maintained from batches.
    view: dict = field(default_factory=dict)

    # counters
    seq: int = 0
    batches_received: int = 0
    deltas_received: int = 0
    snapshots_received: int = 0
    rollbacks_received: int = 0
    batches_coalesced: int = 0
    deltas_dropped: int = 0
    #: Coalesced tier: pending entries merged away at flush time.
    entries_merged: int = 0
    last_batch_ms: float | None = None
    last_rollback_ssid: int | None = None

    @property
    def path(self) -> str:
        return self.standing.path

    @property
    def rescan_in_flight(self) -> bool:
        return self.plan is not None and self.plan.rescan_in_flight

    def explain(self) -> str:
        lines = [self.standing.explain()]
        if self.plan is not None:
            lines.append(
                f"  shared plan: {self.plan.fingerprint} "
                f"({self.plan.subscriber_count} subscriber"
                f"{'s' if self.plan.subscriber_count != 1 else ''})"
            )
        if self.canonical is not None:
            residual = (self.canonical.residual_display
                        if self.canonical.has_residual else "none")
            lines.append(f"  residual filter: {residual}")
        lines.append(f"  delivery tier: {self.tier}")
        return "\n".join(lines)

    def rows(self) -> list[dict]:
        """The client-side view as plain rows."""
        return [dict(row) for row in self.view.values()]

    # -- client-side batch application (called at consume time) ----------

    def apply_batch(self, batch: DeltaBatch) -> None:
        self.batches_received += 1
        self.last_batch_ms = batch.consumed_ms
        if batch.kind == BATCH_DELTA:
            self.deltas_received += len(batch.entries)
            for entry in batch.entries:
                if entry["action"] == "delete":
                    self.view.pop(entry["key"], None)
                else:
                    self.view[entry["key"]] = entry["row"]
        elif batch.kind in TERMINAL_BATCHES:
            # Terminal: the view keeps its last consistent contents; the
            # client knows it is no longer being maintained.
            pass
        else:
            # Snapshot and rollback batches replace the view wholesale.
            self.view = {
                entry["key"]: entry["row"] for entry in batch.entries
            }
            if batch.kind == BATCH_SNAPSHOT:
                self.snapshots_received += 1
            else:
                self.rollbacks_received += 1
                self.last_rollback_ssid = batch.ssid
        if self.on_batch is not None:
            self.on_batch(self, batch)
