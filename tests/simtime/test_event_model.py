"""The simulator against a sorted-list reference, and its drivers
against each other.

The reference keeps live events as a sorted list of ``(time, id)``,
where ``id`` counts scheduling calls; that is the order the simulator
promises, ``(time, seq)``.
"""

import bisect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simtime import Simulator

#: Few distinct values, so equal timestamps are the common case.
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)


class Reference:
    def __init__(self):
        self.now = 0.0
        self.live = []
        self.chains = []  # per event id: descendants it schedules at `now`
        self.fired = []

    def add(self, time, chain):
        bisect.insort(self.live, (time, len(self.chains)))
        self.chains.append(chain)

    def cancel(self, event):
        self.live = [item for item in self.live if item[1] != event]

    def fire_next(self, horizon=math.inf):
        if not self.live or self.live[0][0] > horizon:
            return False
        self.now, event = self.live.pop(0)
        self.fired.append(event)
        if self.chains[event]:
            self.add(self.now, self.chains[event] - 1)
        return True


class Driven:
    """The real simulator, scheduling the same events as a Reference."""

    def __init__(self):
        self.sim = Simulator()
        self.handles = []
        self.fired = []

    def add(self, delay, chain, absolute):
        event = len(self.handles)
        if absolute:
            handle = self.sim.schedule_at(self.sim.now + delay, self._fire,
                                          event, chain)
        else:
            handle = self.sim.schedule(delay, self._fire, event, chain)
        self.handles.append(handle)

    def _fire(self, event, chain):
        self.fired.append(event)
        if chain:
            self.add(0.0, chain - 1, absolute=bool(chain % 2))


operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from(DELAYS),
                  st.integers(0, 2)),
        st.tuples(st.just("schedule_at"), st.sampled_from(DELAYS),
                  st.integers(0, 2)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("step")),
        st.tuples(st.just("run_until"), st.sampled_from(DELAYS)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_random_interleavings_match_the_reference(ops):
    model, real = Reference(), Driven()
    sim = real.sim
    for op in ops:
        if op[0] in ("schedule", "schedule_at"):
            model.add(model.now + op[1], op[2])
            real.add(op[1], op[2], absolute=op[0] == "schedule_at")
        elif op[0] == "cancel":
            if real.handles:  # late and double cancels included
                event = op[1] % len(real.handles)
                model.cancel(event)
                real.handles[event].cancel()
        elif op[0] == "step":
            assert sim.step() == model.fire_next()
        else:
            horizon = model.now + op[1]
            while model.fire_next(horizon):
                pass
            model.now = horizon
            sim.run_until(horizon)
        assert real.fired == model.fired
        assert sim.now == model.now
        assert sim.pending_events == len(model.live)
        assert sim.processed_events == len(model.fired)
        live = {event for _, event in model.live}
        assert [h.active for h in real.handles] == [
            event in live for event in range(len(real.handles))]
    before = sim.processed_events
    drained = sim.run()
    while model.fire_next():
        pass
    assert drained == sim.processed_events - before
    assert real.fired == model.fired
    assert sim.pending_events == 0


def seeded(seed):
    """A simulator loaded with one reproducible schedule: shared
    timestamps, callbacks that schedule at ``now``, cancellations."""
    rng = random.Random(seed)
    sim = Simulator()
    trace = []

    def fire(tag, chain):
        trace.append((tag, sim.now))
        if chain:
            sim.schedule(0.0 if chain % 2 else 0.25, fire, tag + 1000,
                         chain - 1)

    handles = [
        sim.schedule(rng.choice(DELAYS) + rng.randrange(4), fire, tag,
                     rng.randrange(3))
        for tag in range(200)
    ]
    for handle in rng.sample(handles, 30):
        handle.cancel()
    return sim, trace


def by_step(sim):
    while sim.step():
        pass


def by_run_one(sim):
    while sim.run(max_events=1):
        pass


def by_run_until_slices(sim):
    horizon = 0.0
    while sim.pending_events:
        horizon += 0.75
        sim.run_until(horizon)


@pytest.mark.parametrize("seed", [3, 11])
def test_every_driver_runs_the_same_simulation(seed):
    outcomes = []
    for drive in (by_step, by_run_one, Simulator.run, by_run_until_slices):
        sim, trace = seeded(seed)
        drive(sim)
        assert sim.pending_events == 0
        # run_until parks the clock on its horizon, not on the last event.
        assert sim.now >= trace[-1][1]
        if drive is not by_run_until_slices:
            assert sim.now == trace[-1][1]
        outcomes.append((trace, sim.processed_events))
    assert len(outcomes[0][0]) == outcomes[0][1] > 170
    assert all(outcome == outcomes[0] for outcome in outcomes)
