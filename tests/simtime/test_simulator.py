"""Tests for the discrete-event simulator core."""

import pytest

from repro.errors import SimulationError
from repro.simtime import Simulator


def test_starts_at_time_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_schedule_and_run_until_executes_in_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run_until(10.0)
    assert order == ["a", "b", "c"]
    assert sim.now == 10.0


def test_run_until_respects_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, 1)
    sim.schedule(15.0, fired.append, 2)
    sim.run_until(10.0)
    assert fired == [1]
    assert sim.now == 10.0
    sim.run_until(20.0)
    assert fired == [1, 2]


def test_equal_timestamps_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(3.0, order.append, tag)
    sim.run_until(3.0)
    assert order == [0, 1, 2, 3, 4]


def test_events_scheduled_during_execution_run_within_horizon():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(1.0, chain, 0)
    sim.run_until(10.0)
    assert seen == [0, 1, 2, 3]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


def test_run_until_past_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(4.0)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(2.0, fired.append, "x")
    assert handle.active
    handle.cancel()
    assert not handle.active
    sim.run_until(5.0)
    assert fired == []


def test_cancellation_reflected_in_pending_count():
    sim = Simulator()
    handle = sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    assert sim.pending_events == 2
    handle.cancel()
    assert sim.pending_events == 1


def test_run_drains_queue_and_counts():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    executed = sim.run()
    assert executed == 3
    assert sim.processed_events == 3
    assert sim.pending_events == 0


def test_run_with_max_events():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    assert sim.run(max_events=2) == 2
    assert sim.pending_events == 1


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_time_never_goes_backwards():
    sim = Simulator()
    times = []
    for delay in (3.0, 1.0, 2.0, 1.0):
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)


def test_handle_inactive_after_firing_and_late_cancel_is_a_noop():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, lambda: seen.append(handle.active))
    sim.schedule(2.0, lambda: None)
    sim.run_until(1.0)
    assert seen == [False]  # fired counts from the callback on
    assert not handle.active
    handle.cancel()
    handle.cancel()
    assert sim.pending_events == 1
    assert sim.run() == 1


def test_run_with_zero_max_events_runs_nothing():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    assert sim.run(max_events=0) == 0
    assert fired == [] and sim.now == 0.0 and sim.pending_events == 1


@pytest.mark.parametrize("reenter", [
    lambda sim: sim.run(),
    lambda sim: sim.run(max_events=1),
    lambda sim: sim.run_until(sim.now + 1.0),
], ids=["run", "run_one", "run_until"])
@pytest.mark.parametrize("drive", [
    lambda sim: sim.run(),
    lambda sim: sim.run_until(5.0),
], ids=["run", "run_until"])
def test_reentry_from_a_callback_is_rejected(drive, reenter):
    sim = Simulator()
    sim.schedule(1.0, reenter, sim)
    sim.schedule(2.0, lambda: None)
    with pytest.raises(SimulationError, match="re-entered"):
        drive(sim)
    # The guard is released on the way out: the simulator is usable.
    assert sim.run() == 1


def test_step_from_a_callback_runs_the_next_event():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: (order.append("outer"), sim.step()))
    sim.schedule(2.0, order.append, "inner")
    sim.schedule(3.0, order.append, "last")
    assert sim.run(max_events=1) == 1
    assert order == ["outer", "inner"]
    assert sim.now == 2.0 and sim.processed_events == 2
    assert sim.pending_events == 1


def test_nan_times_rejected():
    sim = Simulator()
    nan = float("nan")
    with pytest.raises(SimulationError):
        sim.schedule(nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(nan, lambda: None)
    assert sim.pending_events == 0


def test_past_event_on_the_heap_is_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    sim._queue.push(4.0, lambda: None, ())  # behind schedule_at's back
    with pytest.raises(SimulationError, match="past event"):
        sim.step()
    assert sim.now == 5.0
