"""The subscription router: one shared plan's delta stream, N readers.

A :class:`SharedPlan` is one maintained :class:`~repro.continuous.standing.StandingQuery`
serving every subscription whose canonicalized statement fingerprints
the same (see :mod:`~repro.continuous.plans`).  The
:class:`SubscriptionRouter` fans the plan's result deltas out to its
subscribers, handing the service's sink one *bucket* per call:

* **unfiltered** subscribers (no residual) receive every entry
  verbatim;
* subscribers with a residual equality filter are held in a **hash
  index** keyed by their residual column set and value tuple, so
  routing one delta is a dict lookup on the row's column values —
  O(matching subscribers), not O(subscribers).  Dict lookup uses the
  same ``==`` the SQL executor's ``=`` comparison uses, so hash routing
  and predicate evaluation agree (``1``/``1.0``/``True`` coalesce into
  one bucket exactly as ``compare`` treats them as equal).

Residual routing handles *moves*: when an update changes a row's
residual column value, the subscribers who previously published it
receive a synthesized delete while the new bucket receives the upsert —
per subscriber the routed stream is exactly what its own private
:class:`StandingQuery` over the original statement would have emitted.
Snapshot-shaped payloads (seed/coalesce/rollback/digest) read the same
key from the other side: each residual group also indexes the plan's
*published rows* by value tuple (one arrangement per plan and column
set, shared by every subscriber in the group, rebuilt on the first read
after ``published`` changed), so a snapshot costs one dict lookup plus
one row copy per row in the subscriber's bucket.  The value tuple is
the one membership rule for deltas and snapshots alike.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .plans import CanonicalPlan

#: Container values: residual literals are scalars, which no container
#: equals, so a row holding one matches no residual (and its value,
#: which may not hash, is never looked up).
_UNMATCHABLE = (list, dict, set)


class _ResidualGroup:
    """Subscribers sharing one residual column set, indexed by value,
    and the plan's published rows indexed by the same value tuple."""

    __slots__ = ("columns", "by_value", "total", "rows_by_value",
                 "rows_version")

    def __init__(self, columns: tuple[str, ...]) -> None:
        self.columns = columns
        #: residual value tuple -> subscriptions registered for it.
        self.by_value: dict[tuple, list] = {}
        self.total = 0
        #: residual value tuple -> ``(out_key, row)`` of the plan's
        #: published rows, in published order.
        self.rows_by_value: dict[tuple | None, list] = {}
        #: ``StandingQuery.version`` the row index was built at.
        self.rows_version = -1

    def bucket(self, values: tuple) -> list:
        return self.by_value.get(values, ())

    def add(self, values: tuple, subscription) -> None:
        self.by_value.setdefault(values, []).append(subscription)
        self.total += 1

    def remove(self, values: tuple, subscription) -> None:
        bucket = self.by_value.get(values)
        if bucket is None or subscription not in bucket:
            return
        bucket.remove(subscription)
        self.total -= 1
        if not bucket:
            del self.by_value[values]

    def row_values(self, row: dict) -> tuple | None:
        """The row's residual-column value tuple (the hash-route key);
        ``None``, matching no subscriber, when a value is unmatchable.
        A missing column reads as NULL and so matches nothing either."""
        values = tuple(map(row.get, self.columns))
        for value in values:
            if isinstance(value, _UNMATCHABLE):
                return None
        return values

    def published_bucket(self, standing, values: tuple) -> list:
        """``(out_key, row)`` of every row ``standing`` publishes under
        residual ``values``, in published order."""
        if self.rows_version != standing.version:
            index: dict[tuple | None, list] = {}
            for out_key, row in standing.published.items():
                index.setdefault(self.row_values(row), []).append(
                    (out_key, row))
            self.rows_by_value = index
            self.rows_version = standing.version
        return self.rows_by_value.get(values, ())


class SharedPlan:
    """One maintained standing query and its subscriber registry."""

    def __init__(self, key: str, canonical: CanonicalPlan, sql: str,
                 standing) -> None:
        #: Registry key in ``ContinuousQueryService.plans`` (the bare
        #: fingerprint when sharing is on; suffixed per subscription in
        #: the ablation so every subscription gets a private plan).
        self.key = key
        self.fingerprint = canonical.fingerprint
        self.statement = canonical.statement
        #: SQL text evaluated for full rescans.  Residual extraction
        #: never fires on the rescan path, so the first subscriber's
        #: original SQL is exactly the shared statement.
        self.sql = sql
        self.standing = standing
        self.subscribers: dict[int, object] = {}
        #: ``(table, reader, rollback_cb)`` hooks into arrangements,
        #: detached when the last subscriber leaves.
        self.readers: list[tuple[str, Callable, Callable | None]] = []
        self.refresh_on_commit = False
        self.rescan_in_flight = False
        #: Subscribers with no residual: receive every entry verbatim.
        self.unfiltered: list = []
        #: residual column set -> hash-routing group.
        self.groups: dict[tuple[str, ...], _ResidualGroup] = {}

    @property
    def subscriber_count(self) -> int:
        return len(self.subscribers)

    def published_rows(self, canonical: CanonicalPlan) -> Iterable:
        """``(out_key, row)`` of the published rows a subscriber with
        ``canonical`` sees: its residual bucket, else every row."""
        if not canonical.has_residual:
            return self.standing.published.items()
        group = self.groups[canonical.residual_columns]
        return group.published_bucket(self.standing,
                                      canonical.residual_values)


class SubscriptionRouter:
    """Fans shared-plan delta streams out to their subscribers."""

    def __init__(self, deliver: Callable) -> None:
        #: ``deliver(subscriptions, entry)`` — appends the entry to the
        #: pending stream of every subscription in one bucket (tier- and
        #: flow-control-aware; provided by the continuous-query service).
        self._deliver = deliver
        #: Entries handed to subscribers (one per matching subscriber
        #: per delta — the residual work that remains per-subscriber).
        self.deltas_routed = 0
        #: Group subscribers a delta was *not* routed to because their
        #: residual value didn't match — each one a delta the ablation
        #: would have evaluated (and discarded) a full predicate for.
        self.residual_filter_drops = 0

    # -- registry ----------------------------------------------------------

    def attach(self, plan: SharedPlan, subscription,
               canonical: CanonicalPlan) -> None:
        plan.subscribers[subscription.id] = subscription
        if not canonical.has_residual:
            plan.unfiltered.append(subscription)
            return
        group = plan.groups.get(canonical.residual_columns)
        if group is None:
            group = _ResidualGroup(canonical.residual_columns)
            plan.groups[canonical.residual_columns] = group
        group.add(canonical.residual_values, subscription)

    def detach(self, plan: SharedPlan, subscription,
               canonical: CanonicalPlan) -> None:
        plan.subscribers.pop(subscription.id, None)
        if not canonical.has_residual:
            if subscription in plan.unfiltered:
                plan.unfiltered.remove(subscription)
            return
        group = plan.groups.get(canonical.residual_columns)
        if group is None:
            return
        group.remove(canonical.residual_values, subscription)
        if not group.total:
            del plan.groups[canonical.residual_columns]

    # -- delta routing -----------------------------------------------------

    def route(self, plan: SharedPlan, entries: list[dict],
              prev_row: dict | None) -> None:
        """Fan one delta's result entries out to the plan's subscribers,
        one sink call per bucket: the unfiltered list, then per residual
        group the row's bucket and, on a move, its retraction bucket.

        ``prev_row`` is the row the plan published under the delta's out
        key *before* the delta was applied (``None`` if absent) — it is
        what residual-group subscribers may need to retract when the
        update moved the row out of their bucket.
        """
        deliver = self._deliver
        for entry in entries:
            if plan.unfiltered:
                deliver(plan.unfiltered, entry)
                self.deltas_routed += len(plan.unfiltered)
            if not plan.groups:
                continue
            row = entry["row"]
            for group in plan.groups.values():
                old_bucket: list = ()
                if prev_row is not None:
                    old_bucket = group.bucket(group.row_values(prev_row))
                matched = 0
                if entry["action"] == "upsert":
                    new_bucket = group.bucket(group.row_values(row))
                    if new_bucket:
                        deliver(new_bucket, entry)
                        matched += len(new_bucket)
                    if old_bucket and old_bucket is not new_bucket:
                        # The update moved the row out of these
                        # subscribers' residual value: retract it.
                        deliver(old_bucket, {
                            "action": "delete",
                            "key": entry["key"], "row": None,
                        })
                        matched += len(old_bucket)
                elif old_bucket:
                    deliver(old_bucket, entry)
                    matched += len(old_bucket)
                self.deltas_routed += matched
                self.residual_filter_drops += group.total - matched

    def route_all(self, plan: SharedPlan, entries: list[dict]) -> None:
        """Route entries verbatim to every subscriber, one sink call per
        entry (aggregate and rescan plans never carry residuals)."""
        subscribers = plan.subscribers.values()
        for entry in entries:
            self._deliver(subscribers, entry)
            self.deltas_routed += len(subscribers)
