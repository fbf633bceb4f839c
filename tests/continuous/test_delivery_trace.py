"""Delivery-trace golden test: push delivery is pinned to the last bit.

Runs the view oracle's scenarios (every tier, the slow
``max_outstanding=1`` subscriber, digest, shared plans on and off; the
streaming job with one kill and rollback recovery) and records every
consumed batch as ``(subscription id, seq, kind, sent_ms, delivered_ms,
consumed_ms, entries)``, followed by the service's delivery counters.
The sha256 of that record must equal a constant recorded before push
fan-out was batched per plan bucket: routing a bucket in one call and
running same-time flushes or consumes as one simulator event may change
the host's work, never what a subscriber receives or when.
"""

import hashlib

import pytest

from repro.continuous.delivery import Subscription

from .test_view_oracle import (
    TABLE_SUBSCRIPTIONS,
    assert_views_fresh,
    run_kill_scenario,
    run_table_scenario,
)

#: The table scenario's subscribers plus a twin of ``g1`` that lands on
#: the same entry and subscriber node: the two share one residual
#: bucket, flush interval, message and consume time, so the order a
#: flush run serves them in shows in the trace.
TWINNED = {**TABLE_SUBSCRIPTIONS, "g1_twin": TABLE_SUBSCRIPTIONS["g1"]}

EXPECTED = {
    "table-3-shared":
        "18955dc5e2aee49056e66baa778fbe3a097c917177a96c4fe6188524bdf7cd44",
    "table-3-private":
        "b2ce0080d1b37bfc85df10e2086c6114a179ee10af00b7261f9491f956b1cdad",
    "kill-shared":
        "9e3a0435da4bd8ac46eb5c9636519083209c843a2a4655b61443341083298d34",
    "kill-private":
        "286bfa70ddc941e2952ba447405c7ac7c8fc20984004e3567755998d0d12a698",
}


@pytest.fixture
def consumed(monkeypatch):
    """Every batch a subscriber consumes, in consume order."""
    trace: list = []
    apply_batch = Subscription.apply_batch

    def recording(subscription, batch):
        trace.append(repr((subscription.id, batch.seq, batch.kind,
                           batch.sent_ms, batch.delivered_ms,
                           batch.consumed_ms, batch.entries)))
        apply_batch(subscription, batch)

    monkeypatch.setattr(Subscription, "apply_batch", recording)
    return trace


def digest(env, trace: list) -> str:
    continuous = env.continuous
    counters = (
        continuous.router.deltas_routed,
        continuous.router.residual_filter_drops,
        continuous.deltas_pushed, continuous.batches_sent,
        continuous.batches_coalesced, continuous.coalesced_batches,
        continuous.plan_maintenance_ms,
        [(sub_id, sub.deltas_dropped)
         for sub_id, sub in sorted(continuous.subscriptions.items())],
    )
    return hashlib.sha256(repr((trace, counters)).encode()).hexdigest()


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])
def test_table_scenario_delivery_trace(consumed, shared):
    env, subs = run_table_scenario(3, shared, check=assert_views_fresh,
                                   population=TWINNED)
    twins = subs["g1"], subs["g1_twin"]
    assert len({(sub.entry_node, sub.subscriber_node) for sub in twins}) == 1
    label = f"table-3-{'shared' if shared else 'private'}"
    assert digest(env, consumed) == EXPECTED[label]


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])
def test_kill_scenario_delivery_trace(consumed, shared):
    env, job, _subs, _checked = run_kill_scenario(shared)
    assert job.metrics.recoveries == 1
    label = f"kill-{'shared' if shared else 'private'}"
    assert digest(env, consumed) == EXPECTED[label]
