"""Count-based guard on the event loop's fixed cost per event.

PR 20 measured that two extra Python frames per chunk event cost
``snapshot_mixed`` 3 % of its host throughput, so the budget is held by
counting frames, which repeats exactly, and not by timing.
"""

import sys
from collections import Counter

import pytest

from repro.simtime import Simulator

EVENTS = 10_000


def noop():
    pass


def python_calls(function):
    """Names of the Python frames entered while ``function()`` runs."""
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("drive", [
    lambda sim: sim.run(),
    lambda sim: sim.run_until(1e9),
], ids=["run", "run_until"])
def test_at_most_one_frame_per_event_beside_the_callback(drive):
    sim = Simulator()

    def load():
        for index in range(EVENTS):
            sim.schedule(index % 97 * 0.5, noop)

    loading = python_calls(load)
    draining = python_calls(lambda: drive(sim))
    assert sim.processed_events == EVENTS
    assert draining["noop"] == EVENTS
    assert sum(draining.values()) - EVENTS <= EVENTS
    # Ordering is decided by C comparisons on (time, seq).
    assert loading["__lt__"] == draining["__lt__"] == 0


def test_call_at_joins_same_time_calls_into_one_entry():
    """Calls due at one time share one queue entry: 97 entries for
    10,000 calls, one frame per call to make it and none to fire a
    run's member beside the member's own."""
    sim = Simulator()

    def load():
        for index in range(EVENTS):
            sim.call_at(index % 97 * 0.5, noop)

    loading = python_calls(load)
    assert sim.pending_events == 97
    draining = python_calls(sim.run)
    assert sim.processed_events == 97
    # Hypothesis, when loaded, times garbage collection from a callback.
    for calls in (loading, draining):
        del calls["gc_callback"]
    assert loading["call_at"] == EVENTS
    assert sum(loading.values()) - loading["load"] == EVENTS
    assert draining["noop"] == EVENTS
    assert sum(draining.values()) - EVENTS == 2  # ``run`` and ``_drain``
