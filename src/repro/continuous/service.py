"""The continuous-query service: subscriptions end to end.

Glues the subsystem together:

* owns the :class:`~repro.continuous.changelog.ChangeRecorder` and
  attaches it to every live table a subscription touches;
* owns one shared :class:`~repro.continuous.arrangements.Arrangement`
  per table *with at least one reader* — the arrangement (and its
  change-capture hookup) is torn down when the last subscription
  leaves, so cancelled dashboards don't leak maintained indexes;
* **deduplicates plans**: each subscription's statement is
  canonicalized (:mod:`~repro.continuous.plans`) and structurally
  identical plans collapse into one shared
  :class:`~repro.continuous.router.SharedPlan` whose maintenance is
  charged once per state update however many subscribers attached —
  the :class:`~repro.continuous.router.SubscriptionRouter` fans the
  plan's delta stream out through per-subscriber residual filters;
* batches result deltas and pushes them to simulated subscribers over
  the network model with tiered delivery (realtime / coalesced /
  digest), destination-coalesced messages (one network send per
  ``(entry, subscriber)`` node pair per tick), and the slow-consumer
  ladder: bounded pending queue → coalesce-to-snapshot → eviction with
  a terminal batch.  Host work is per bucket: the router's sink takes
  a whole bucket, and the flushes (or consumes) due at one virtual time
  run as one simulator event;
* replays a consistent rollback notification to every live subscriber
  after node-failure recovery (the push analogue of Fig. 5c).

A query service built with ``shared_plans=False`` gives the ablation
baseline: every subscription gets a private plan with no residual
extraction — exactly the pre-dedup per-subscriber maintenance, with
bit-identical delivered results.

Usage goes through :meth:`repro.query.service.QueryService.subscribe`,
which lazily creates one ``ContinuousQueryService`` per environment at
``env.continuous``, bound to that query service: its rescans run there,
and its ``shared_plans_enabled`` is the plan-dedup gate.
"""

from __future__ import annotations

from typing import Callable

from ..errors import QueryError, SqlError
from ..sql.statements import parse_cached
from ..sql.executor import hashable_key
from ..sql.planner import check_output_names
from .arrangements import Arrangement
from .changelog import ChangeRecorder
from .delivery import (
    BATCH_DELTA,
    BATCH_EVICTED,
    BATCH_FAILED,
    BATCH_ROLLBACK,
    BATCH_SNAPSHOT,
    DeltaBatch,
    Subscription,
    TERMINAL_BATCHES,
    TIER_COALESCED,
    TIER_DIGEST,
    TIER_REALTIME,
    TIERS,
)
from .plans import CanonicalPlan, canonicalize
from .router import SharedPlan, SubscriptionRouter
from .standing import (
    INCREMENTAL_PATHS,
    PATH_FILTER_PROJECT,
    PATH_RESCAN,
    StandingQuery,
    classify,
)


class ContinuousQueryService:
    """Standing SQL subscriptions over one environment's state store."""

    def __init__(self, env, query_service) -> None:
        self.env = env
        self.sim = env.sim
        self.cluster = env.cluster
        self.store = env.store
        self.costs = env.costs
        #: Runs the rescans; its ``shared_plans_enabled`` is the
        #: plan-dedup gate (off: the per-subscription ablation baseline).
        self.query_service = query_service
        self.recorder = ChangeRecorder(
            clock=lambda: env.sim.now,
            node_count=len(env.cluster.nodes),
        )
        self.store.add_commit_listener(self._on_commit)
        env.cluster.on_node_failure(self._on_node_failure)
        #: table name -> shared arrangement (live while it has readers).
        self.arrangements: dict[str, Arrangement] = {}
        #: plan key -> shared plan.  With sharing on the key is the
        #: canonical fingerprint; the ablation suffixes the subscription
        #: id so every subscription gets a private plan.
        self.plans: dict[str, SharedPlan] = {}
        self.subscriptions: dict[int, Subscription] = {}
        self.router = SubscriptionRouter(self._route_deliver)
        self._next_id = 1
        self._entry_rotation = 0
        #: Batches awaiting the destination-coalescing drain: every
        #: batch sent in one sim tick to the same (entry, subscriber)
        #: node pair ships as ONE network message.
        self._outbox: list[tuple[Subscription, DeltaBatch]] = []
        self._outbox_scheduled = False
        self._ship_seq = 0
        # service-level counters (surfaced by observability)
        self.deltas_pushed = 0
        self.batches_sent = 0
        self.batches_coalesced = 0
        self.rescans_run = 0
        #: Batches merged into a shared network message by the outbox.
        self.coalesced_batches = 0
        self.slow_consumers_evicted = 0
        #: Standing-plan maintenance billed to store servers (charged
        #: once per update per plan — the quantity bench_fanout sweeps).
        self.plan_maintenance_ms = 0.0
        self.plan_maintenance_ops = 0

    # -- public API --------------------------------------------------------

    @property
    def active_subscriptions(self) -> int:
        return len(self.subscriptions)

    @property
    def shared_plan_count(self) -> int:
        return len(self.plans)

    def explain_subscription(self, sql: str) -> str:
        """Which maintenance path ``subscribe(sql)`` would choose, and
        the shared-plan decision it would make."""
        statement = self._parse(sql)
        self._validate_tables(statement)
        shared = self.query_service.shared_plans_enabled
        path, reason = classify(statement, self.store)
        canonical = canonicalize(statement, self.store,
                                 extract_residual=shared)
        residual = (canonical.residual_display
                    if canonical.has_residual else "none")
        lines = [
            f"path: {path}",
            f"reason: {reason}",
            f"shared plans: {'on' if shared else 'off'}",
            f"plan fingerprint: {canonical.fingerprint}",
            f"residual filter: {residual}",
        ]
        if shared:
            existing = self.plans.get(canonical.fingerprint)
            if existing is not None:
                lines.append(
                    f"plan: joins shared plan {canonical.fingerprint} "
                    f"({existing.subscriber_count} subscriber"
                    f"{'s' if existing.subscriber_count != 1 else ''})"
                )
            else:
                lines.append("plan: creates a new shared plan")
        else:
            lines.append("plan: private (ablation: dedup disabled)")
        return "\n".join(lines)

    def subscribe(self, sql: str,
                  on_batch: Callable[[Subscription, DeltaBatch], None] | None = None,
                  subscriber_node: int | None = None,
                  max_outstanding: int = 4,
                  batch_interval_ms: float | None = None,
                  consume_ms: float | None = None,
                  tier: str = TIER_REALTIME) -> Subscription:
        """Register a standing query; returns its subscription handle.

        The subscriber immediately receives one snapshot batch seeding
        its view, then deltas (or coalesced snapshots under
        backpressure) as state changes.  ``tier`` picks the delivery
        tier; ``batch_interval_ms=None`` uses the tier default (5 ms
        realtime, ``CostModel.push_coalesce_interval_ms`` coalesced).
        """
        if tier not in TIERS:
            raise QueryError(
                f"unknown delivery tier {tier!r} (expected one of {TIERS})"
            )
        statement = self._parse(sql)
        self._validate_tables(statement)
        for select in getattr(statement, "branches", (statement,)):
            check_output_names(select)
        shared = self.query_service.shared_plans_enabled
        canonical = canonicalize(statement, self.store,
                                 extract_residual=shared)
        entry_node = self._next_entry_node()
        if subscriber_node is None:
            subscriber_node = entry_node
        if batch_interval_ms is None:
            batch_interval_ms = (self.costs.push_coalesce_interval_ms
                                 if tier == TIER_COALESCED else 5.0)
        plan = self._plan_for(canonical, sql)
        subscription = Subscription(
            id=self._next_id, sql=sql, standing=plan.standing,
            entry_node=entry_node, subscriber_node=subscriber_node,
            max_outstanding=max_outstanding,
            batch_interval_ms=batch_interval_ms,
            consume_ms=consume_ms, on_batch=on_batch, tier=tier,
            plan=plan, canonical=canonical,
        )
        self._next_id += 1
        self.subscriptions[subscription.id] = subscription
        subscription.refresh_on_commit = plan.refresh_on_commit
        self.router.attach(plan, subscription, canonical)
        if plan.standing.path in INCREMENTAL_PATHS \
                or not (plan.standing.dirty or plan.rescan_in_flight):
            # Incremental plans are seeded; clean rescan plans already
            # hold a published result — snapshot the newcomer directly.
            subscription.needs_snapshot = True
        self._schedule_flushes((subscription,), delay=0.0)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Cancel: detach from the plan, stop all deliveries; the last
        subscriber of a table tears its arrangement down."""
        subscription.active = False
        self._detach_subscription(subscription)

    def on_rollback_recovery(self, committed_ssid: int | None) -> None:
        """Called by recovery after every instance's state is restored:
        replay one consistent rollback notification per live subscriber.

        Pending (pre-failure, now rolled-back) deltas are discarded; each
        subscriber gets a single ``rollback`` batch carrying the full
        post-recovery result, bypassing the flow-control window so no
        live subscriber misses it (Fig. 5c for push clients).
        """
        for plan in list(self.plans.values()):
            standing = plan.standing
            if standing.path in INCREMENTAL_PATHS:
                arrangement = self.arrangements[standing.table_name]
                standing.rebuild(arrangement.rows)
            else:
                standing.dirty = True
            for subscription in plan.subscribers.values():
                subscription.pending.clear()
                subscription.needs_snapshot = False
                subscription.digest_dirty = False
                subscription.needs_rollback_ssid = (
                    committed_ssid if committed_ssid is not None else -1
                )
            self._schedule_flushes(plan.subscribers.values(), delay=0.0)

    # -- wiring ------------------------------------------------------------

    def _parse(self, sql: str):
        return parse_cached(sql, self.query_service.statement_cache)

    def _validate_tables(self, statement) -> None:
        for name in statement.table_names():
            if not (self.store.has_live_table(name)
                    or self.store.has_snapshot_table(name)):
                raise QueryError(f"unknown state table {name!r}")

    def _next_entry_node(self) -> int:
        alive = self.cluster.surviving_node_ids()
        node = alive[self._entry_rotation % len(alive)]
        self._entry_rotation += 1
        return node

    def _plan_for(self, canonical: CanonicalPlan, sql: str) -> SharedPlan:
        key = (canonical.fingerprint
               if self.query_service.shared_plans_enabled
               else f"{canonical.fingerprint}/{self._next_id}")
        plan = self.plans.get(key)
        if plan is not None:
            return plan
        standing = StandingQuery(sql, canonical.statement, self.store,
                                 now=lambda: self.sim.now)
        plan = SharedPlan(key, canonical, sql, standing)
        plan.refresh_on_commit = any(
            self.store.has_snapshot_table(name)
            for name in canonical.statement.table_names()
        )
        self.plans[key] = plan
        for name in canonical.statement.table_names():
            if self.store.has_live_table(name):
                self._attach_plan(plan, name)
        if standing.path in INCREMENTAL_PATHS:
            arrangement = self.arrangements[standing.table_name]
            standing.seed(arrangement.rows)
        else:
            standing.dirty = True
        return plan

    def _arrangement_for(self, table_name: str) -> Arrangement:
        arrangement = self.arrangements.get(table_name)
        if arrangement is None:
            table = self.store.get_live_table(table_name)
            table.attach_change_capture(self.recorder)
            arrangement = Arrangement(self.env, table)
            self.recorder.add_listener(table_name, arrangement.on_event)
            self.arrangements[table_name] = arrangement
        return arrangement

    def _attach_plan(self, plan: SharedPlan, table_name: str) -> None:
        arrangement = self._arrangement_for(table_name)
        standing = plan.standing
        if standing.path in INCREMENTAL_PATHS and \
                table_name == standing.table_name:
            filter_project = standing.path == PATH_FILTER_PROJECT

            def reader(key, old_row, new_row, plan=plan,
                       arrangement=arrangement) -> None:
                standing = plan.standing
                prev = None
                if filter_project and plan.groups:
                    # The row this plan published under the delta's out
                    # key, captured before the delta lands: residual
                    # routing retracts it from subscribers the update
                    # moved the row away from.
                    prev = standing.published.get(hashable_key(key))
                try:
                    entries = standing.on_delta(key, old_row, new_row)
                except SqlError as error:
                    for subscription in list(plan.subscribers.values()):
                        self._terminate(subscription, BATCH_FAILED, error)
                    return
                routed = 0
                if entries:
                    before = self.router.deltas_routed
                    if filter_project:
                        self.router.route(plan, entries, prev)
                    else:
                        self.router.route_all(plan, entries)
                    routed = self.router.deltas_routed - before
                self._charge_plan_maintenance(arrangement, routed)
        else:
            # Rescan-path reader: any change just marks the plan stale.
            def reader(key, old_row, new_row, plan=plan,
                       arrangement=arrangement) -> None:
                plan.standing.dirty = True
                plan.standing.deltas_applied += 1
                self._charge_plan_maintenance(arrangement, 0)
                self._schedule_flushes(plan.subscribers.values())

        def on_rollback(event, plan=plan) -> None:
            # Partition bulk-replaced mid-recovery: suppress ordinary
            # delivery until on_rollback_recovery() replays consistently.
            plan.standing.on_rollback()
            for subscription in plan.subscribers.values():
                subscription.pending.clear()

        arrangement.add_reader(reader, on_rollback)
        plan.readers.append((table_name, reader, on_rollback))

    def _charge_plan_maintenance(self, arrangement: Arrangement,
                                 routed: int) -> None:
        """Bill applying one update to one plan — once per *plan*, plus
        a per-routed-delta term (the work that stays per-subscriber)."""
        cost = (self.costs.standing_apply_ms
                + routed * self.costs.router_entry_ms)
        event = arrangement.current_event
        node = self.cluster.node(event.node_id)
        node.store_server(max(event.partition, 0)).submit(cost)
        self.plan_maintenance_ms += cost
        self.plan_maintenance_ops += 1

    def _detach_subscription(self, subscription: Subscription) -> None:
        self.subscriptions.pop(subscription.id, None)
        plan = subscription.plan
        if plan is None:
            return
        self.router.detach(plan, subscription, subscription.canonical)
        if not plan.subscribers:
            self._release_plan(plan)

    def _release_plan(self, plan: SharedPlan) -> None:
        """Last subscriber left: drop the plan; a table whose last
        reader detached also loses its arrangement and change capture
        (the mutation fast path is restored)."""
        self.plans.pop(plan.key, None)
        for table, reader, rollback_cb in plan.readers:
            arrangement = self.arrangements.get(table)
            if arrangement is None:
                continue
            if arrangement.remove_reader(reader, rollback_cb):
                self.recorder.remove_listener(table, arrangement.on_event)
                arrangement.table.attach_change_capture(None)
                del self.arrangements[table]
        plan.readers.clear()

    def _on_node_failure(self, node_id: int) -> None:
        """Migrate push endpoints off the dead node.

        A subscription whose entry (batching) node died is re-homed to a
        survivor; a subscriber *client* attached to the dead node is
        assumed to reconnect through a survivor too.
        """
        survivors = self.cluster.surviving_node_ids()
        if not survivors:
            return
        for subscription in self.subscriptions.values():
            if subscription.entry_node == node_id:
                subscription.entry_node = self._next_entry_node()
            if subscription.subscriber_node == node_id:
                subscription.subscriber_node = subscription.entry_node

    def _on_commit(self, ssid: int) -> None:
        self.recorder.record_commit(ssid)
        for plan in self.plans.values():
            if plan.refresh_on_commit:
                plan.standing.dirty = True
                self._schedule_flushes(plan.subscribers.values())

    # -- routing / tiers ---------------------------------------------------

    def _route_deliver(self, subscriptions, entry: dict) -> None:
        """Router sink: queue one result entry for every subscriber of
        one bucket, honouring each one's tier and the pending-queue
        bound, then schedule the flushes this makes due in one call."""
        max_pending = self.costs.push_max_pending_deltas
        due = []
        for subscription in subscriptions:
            if not subscription.active:
                continue
            if subscription.tier == TIER_DIGEST:
                subscription.digest_dirty = True
                if not subscription.digest_scheduled:
                    # A digest timer cuts the run: the flushes due so
                    # far are scheduled before it, as they were asked.
                    self._schedule_flushes(due)
                    due = []
                    self._schedule_digest(subscription)
                continue
            if subscription.needs_snapshot:
                # Already coalesced: the snapshot will carry this.
                subscription.deltas_dropped += 1
                continue
            pending = subscription.pending
            if len(pending) >= max_pending:
                # Slow-consumer ladder step 1: the pending queue is full
                # — degrade to one snapshot instead of growing it.
                subscription.deltas_dropped += len(pending) + 1
                pending.clear()
                subscription.needs_snapshot = True
                subscription.batches_coalesced += 1
                self.batches_coalesced += 1
            else:
                pending.append(entry)
            due.append(subscription)
        self._schedule_flushes(due)

    def _schedule_digest(self, subscription: Subscription) -> None:
        if subscription.digest_scheduled or not subscription.active:
            return
        subscription.digest_scheduled = True
        self.sim.schedule(self.costs.push_digest_interval_ms,
                          self._digest_flush, subscription)

    def _digest_flush(self, subscription: Subscription) -> None:
        subscription.digest_scheduled = False
        if not subscription.active or not subscription.digest_dirty:
            return
        if subscription.needs_rollback_ssid is not None:
            return  # the recovery flush owns delivery now
        if subscription.outstanding >= subscription.max_outstanding:
            self._note_stalled(subscription)
            self._schedule_digest(subscription)
            return
        subscription.digest_dirty = False
        self._send(subscription, BATCH_SNAPSHOT,
                   self._snapshot_entries(subscription))

    # -- flush / delivery --------------------------------------------------

    def _schedule_flushes(self, subscriptions,
                          delay: float | None = None) -> None:
        """Schedule a flush for each active subscription not already
        waiting on one, after ``delay`` (default: its batch interval);
        the queue runs the flushes due at one time as one event."""
        now = self.sim.now
        call_at = self.sim.call_at
        for subscription in subscriptions:
            if not subscription.flush_scheduled and subscription.active:
                subscription.flush_scheduled = True
                call_at(now + (subscription.batch_interval_ms
                               if delay is None else delay),
                        self._flush, subscription)

    def _flush(self, subscription: Subscription) -> None:
        subscription.flush_scheduled = False
        if not subscription.active:
            return
        plan = subscription.plan
        standing = plan.standing

        if standing.needs_rebuild:
            self._rebuild_plan(plan)

        if subscription.needs_rollback_ssid is not None:
            if standing.path == PATH_RESCAN:
                self._start_rescan(plan)
            else:
                ssid = subscription.needs_rollback_ssid
                subscription.needs_rollback_ssid = None
                self._send(subscription, BATCH_ROLLBACK,
                           self._snapshot_entries(subscription), ssid=ssid)
            return

        if standing.path == PATH_RESCAN:
            if standing.dirty:
                if not plan.rescan_in_flight:
                    self._start_rescan(plan)
                return
            if subscription.needs_snapshot:
                if subscription.outstanding >= subscription.max_outstanding:
                    self._note_stalled(subscription)
                    return  # still backpressured; retried on ack
                subscription.needs_snapshot = False
                self._send(subscription, BATCH_SNAPSHOT,
                           self._snapshot_entries(subscription))
            return

        if subscription.needs_snapshot:
            if subscription.outstanding >= subscription.max_outstanding:
                self._note_stalled(subscription)
                return  # still backpressured; retried on ack
            subscription.needs_snapshot = False
            subscription.pending.clear()
            self._send(subscription, BATCH_SNAPSHOT,
                       self._snapshot_entries(subscription))
            return

        if not subscription.pending:
            return
        if subscription.outstanding >= subscription.max_outstanding:
            # Backpressure: drop the deltas, promise a snapshot instead.
            subscription.deltas_dropped += len(subscription.pending)
            subscription.pending.clear()
            subscription.needs_snapshot = True
            subscription.batches_coalesced += 1
            self.batches_coalesced += 1
            self._note_stalled(subscription)
            return
        entries = subscription.pending
        subscription.pending = []
        if subscription.tier == TIER_COALESCED and len(entries) > 1:
            # Merge per result key, last write wins (first-seen order).
            merged: dict = {}
            for entry in entries:
                merged[entry["key"]] = entry
            subscription.entries_merged += len(entries) - len(merged)
            entries = list(merged.values())
        self._send(subscription, BATCH_DELTA, entries)

    def _rebuild_plan(self, plan: SharedPlan) -> None:
        """Rebuild after a rollback event — once per plan; every
        subscriber resyncs from a fresh snapshot."""
        arrangement = self.arrangements[plan.standing.table_name]
        plan.standing.rebuild(arrangement.rows)
        for subscription in plan.subscribers.values():
            subscription.pending.clear()
            subscription.needs_snapshot = True
        self._schedule_flushes(plan.subscribers.values())

    def _snapshot_entries(self, subscription: Subscription) -> list[dict]:
        """The subscriber's full current result: its residual bucket of
        the plan's published rows (every row when unfiltered)."""
        rows = subscription.plan.published_rows(subscription.canonical)
        return [{"key": key, "row": dict(row)} for key, row in rows]

    # -- slow-consumer eviction --------------------------------------------

    def _note_stalled(self, subscription: Subscription) -> None:
        """The flow-control window is full; start (or keep) the
        eviction countdown.  Any ack clears it."""
        if subscription.stalled_since is not None:
            return
        subscription.stalled_since = self.sim.now
        self.sim.schedule(self.costs.push_evict_stalled_after_ms,
                          self._maybe_evict, subscription,
                          subscription.stalled_since)

    def _maybe_evict(self, subscription: Subscription,
                     since: float) -> None:
        if not subscription.active or subscription.stalled_since != since:
            return
        # Slow-consumer ladder step 2: the subscriber never drained its
        # window for the whole countdown — drop it with a terminal
        # batch so it can't pin plan/router state forever.
        self.slow_consumers_evicted += 1
        subscription.evicted = True
        self._terminate(subscription, BATCH_EVICTED)

    def _terminate(self, subscription: Subscription, kind: str,
                   error: SqlError | None = None) -> None:
        """Send ``subscription`` its terminal batch and detach it."""
        subscription.pending.clear()
        subscription.needs_snapshot = False
        subscription.digest_dirty = False
        self._send(subscription, kind, [], error=error)
        subscription.active = False
        self._detach_subscription(subscription)

    def _send(self, subscription: Subscription, kind: str,
              entries: list[dict], ssid: int | None = None,
              error: SqlError | None = None) -> None:
        subscription.seq += 1
        batch = DeltaBatch(
            subscription_id=subscription.id, seq=subscription.seq,
            kind=kind, entries=entries, sent_ms=self.sim.now, ssid=ssid,
            error=error,
        )
        subscription.outstanding += 1
        self.batches_sent += 1
        if kind == BATCH_DELTA:
            self.deltas_pushed += len(entries)
        self._outbox.append((subscription, batch))
        if not self._outbox_scheduled:
            self._outbox_scheduled = True
            # Delay 0 runs after every already-queued same-time flush,
            # so one tick's batches to one destination merge here.
            self.sim.schedule(0.0, self._drain_outbox)

    def _drain_outbox(self) -> None:
        self._outbox_scheduled = False
        pending, self._outbox = self._outbox, []
        alive = set(self.cluster.surviving_node_ids())
        if not alive:
            return
        groups: dict[tuple[int, int], list] = {}
        for subscription, batch in pending:
            # Nodes can die between enqueue and drain: re-home first.
            if subscription.entry_node not in alive:
                subscription.entry_node = self._next_entry_node()
            if subscription.subscriber_node not in alive:
                subscription.subscriber_node = subscription.entry_node
            key = (subscription.entry_node, subscription.subscriber_node)
            groups.setdefault(key, []).append((subscription, batch))
        for (entry_node, dest_node), batches in groups.items():
            if len(batches) > 1:
                self.coalesced_batches += len(batches) - 1
            cost = (self.costs.push_batch_fixed_ms
                    + sum(len(batch.entries) for _sub, batch in batches)
                    * self.costs.push_delta_row_ms)
            self._ship_seq += 1
            pool = self.cluster.node(entry_node).query_pool
            pool.submit(("push", entry_node, dest_node, self._ship_seq),
                        cost, self._ship, entry_node, dest_node, batches)

    def _ship(self, entry_node: int, dest_node: int,
              batches: list[tuple[Subscription, DeltaBatch]]) -> None:
        nbytes = sum(
            max(1, len(batch.entries)) for _sub, batch in batches
        ) * self.costs.row_bytes
        self.cluster.network.send(
            entry_node, dest_node, self._deliver, batches,
            nbytes=nbytes, channel=("push", entry_node, dest_node),
        )

    def _deliver(self,
                 batches: list[tuple[Subscription, DeltaBatch]]) -> None:
        """One message arrives; the queue runs the batches it carries
        that are consumed at one time as one event."""
        now = self.sim.now
        default_ms = self.costs.subscriber_consume_ms
        call_at = self.sim.call_at
        for subscription, batch in batches:
            batch.delivered_ms = now
            call_at(now + (subscription.consume_ms
                           if subscription.consume_ms is not None
                           else default_ms),
                    self._consumed, subscription, batch)

    def _consumed(self, subscription: Subscription,
                  batch: DeltaBatch) -> None:
        batch.consumed_ms = self.sim.now
        subscription.outstanding -= 1
        subscription.stalled_since = None
        if batch.kind in TERMINAL_BATCHES:
            # Terminal notification: delivered even though the service
            # already dropped the subscription.
            subscription.apply_batch(batch)
            return
        if not subscription.active:
            return
        subscription.apply_batch(batch)
        if (subscription.pending or subscription.needs_snapshot
                or subscription.needs_rollback_ssid is not None
                or subscription.standing.dirty):
            self._schedule_flushes((subscription,))
        if subscription.digest_dirty:
            self._schedule_digest(subscription)

    # -- rescan path ---------------------------------------------------------

    def _start_rescan(self, plan: SharedPlan) -> None:
        if plan.rescan_in_flight:
            return
        plan.rescan_in_flight = True
        plan.standing.dirty = False
        plan.standing.rescans += 1
        self.rescans_run += 1
        self.query_service.submit(
            plan.sql,
            on_done=lambda execution: self._rescan_done(plan, execution),
        )

    def _rescan_done(self, plan: SharedPlan, execution) -> None:
        plan.rescan_in_flight = False
        if not plan.subscribers:
            return
        standing = plan.standing
        if execution.error is not None:
            # e.g. no committed snapshot yet — retry on the next change
            # or commit rather than failing the plan.
            standing.dirty = True
            return
        standing.set_published_rows(execution.result.rows)
        for subscription in list(plan.subscribers.values()):
            if not subscription.active:
                continue
            if subscription.needs_rollback_ssid is not None:
                ssid = subscription.needs_rollback_ssid
                subscription.needs_rollback_ssid = None
                self._send(subscription, BATCH_ROLLBACK,
                           self._snapshot_entries(subscription), ssid=ssid)
            elif subscription.tier == TIER_DIGEST \
                    and not subscription.needs_snapshot:
                subscription.digest_dirty = True
                self._schedule_digest(subscription)
            elif subscription.outstanding >= subscription.max_outstanding:
                subscription.needs_snapshot = True
                self._note_stalled(subscription)
            else:
                subscription.needs_snapshot = False
                self._send(subscription, BATCH_SNAPSHOT,
                           self._snapshot_entries(subscription))
        if standing.dirty:
            self._schedule_flushes(plan.subscribers.values())
