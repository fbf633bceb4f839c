"""The simulator against a sorted-list reference, and its drivers
against each other.

The reference keeps live events as a sorted list of ``(time, id)``,
where ``id`` counts scheduling calls; that is the order the simulator
promises, ``(time, seq)``.
"""

import bisect
import gc
import math
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simtime import Simulator, events

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


# -- same-time runs -----------------------------------------------------------


class Boom(Exception):
    pass


#: The calls that join an open entry at their time: ``call_at``, and
#: ``call_batched`` of two callbacks, which the reference models as one
#: ``call_at`` per item.
JOINING = ("call_at", "batch_a", "batch_b")


class RunReference:
    """Every call its own event, in ``(time, id)`` order, beside the
    entries the join rule predicts: a ``call_at`` (or ``call_batched``)
    joins the entry of the call before it at its time when that entry
    was opened by one and has not fired; anything else opens an
    entry."""

    def __init__(self):
        self.now = 0.0
        self.live = []  # (time, call id)
        self.calls = []  # call id -> (kind, chain, raises)
        self.entry_of = []  # call id -> entry id
        self.entries = 0
        self.joinable = {}  # time -> entry id
        self.fired = []
        self.processed = 0

    def add(self, kind, time, chain, raises):
        call = len(self.calls)
        if kind in JOINING and time in self.joinable:
            entry = self.joinable[time]
        else:
            entry = self.entries
            self.entries += 1
            if kind in JOINING:
                self.joinable[time] = entry
            else:
                self.joinable.pop(time, None)
        bisect.insort(self.live, (time, call))
        self.calls.append((kind, chain, raises))
        self.entry_of.append(entry)

    def cancel(self, call):
        self.live = [item for item in self.live if item[1] != call]

    @property
    def pending(self):
        return len({self.entry_of[call] for _, call in self.live})

    def fire_entry(self, horizon=math.inf):
        """Fire the next entry's calls; raise :class:`Boom` where one of
        them does, leaving the rest as an entry of their own."""
        if not self.live or self.live[0][0] > horizon:
            return False
        self.now, first = self.live[0]
        entry = self.entry_of[first]
        self.processed += 1
        if self.joinable.get(self.now) == entry:
            del self.joinable[self.now]
        while self.live and self.entry_of[self.live[0][1]] == entry:
            _, call = self.live.pop(0)
            self.fired.append(call)
            kind, chain, raises = self.calls[call]
            if chain:
                self.add(CHAIN_KINDS[chain % 4], self.now, chain - 1, False)
            if raises:
                rest = self.entries
                self.entries += 1
                for _, other in self.live:
                    if self.entry_of[other] == entry:
                        self.entry_of[other] = rest
                raise Boom
        return True


#: The kind a call of ``chain`` left schedules its child with (delay 0).
CHAIN_KINDS = ("call_at", "schedule", "schedule_at", "batch_a")


class RunDriven:
    """The real simulator, making the same calls as a RunReference; a
    batched call's item fires as its own call would."""

    def __init__(self):
        self.sim = Simulator()
        self.handles = {}  # call id -> handle (schedule / schedule_at)
        self.calls = 0
        self.fired = []
        # Bound once each: call_batched joins by the callback's identity.
        self.batched = {"batch_a": self._batch, "batch_b": self._batch_b}

    def add(self, kind, time, chain, raises):
        call = self.calls
        self.calls += 1
        if kind in self.batched:
            self.sim.call_batched(time, self.batched[kind], (call, chain))
        elif kind == "call_at":
            self.sim.call_at(time, self._fire, call, chain, raises)
        elif kind == "schedule":
            self.handles[call] = self.sim.schedule(
                time - self.sim.now, self._fire, call, chain, raises)
        else:
            self.handles[call] = self.sim.schedule_at(
                time, self._fire, call, chain, raises)

    def _fire(self, call, chain, raises):
        self.fired.append(call)
        if chain:
            self.add(CHAIN_KINDS[chain % 4], self.sim.now, chain - 1, False)
        if raises:
            raise Boom

    def _batch(self, items):
        for call, chain in items:
            self._fire(call, chain, False)

    def _batch_b(self, items):
        self._batch(items)


run_operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("call_at", "call_at", "schedule",
                                   "schedule_at")),
                  st.sampled_from(DELAYS), st.integers(0, 4),
                  st.sampled_from((False, False, False, True))),
        # A batched item does not raise (``call_batched``'s contract).
        st.tuples(st.sampled_from(("batch_a", "batch_a", "batch_b")),
                  st.sampled_from(DELAYS), st.integers(0, 4),
                  st.just(False)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("step")),
        st.tuples(st.just("run"), st.integers(1, 4)),
        st.tuples(st.just("run_until"), st.sampled_from(DELAYS)),
    ),
    max_size=80,
)


def both(model_step, real_step):
    """Run one driver step on both sides; each raises Boom or neither."""
    try:
        expected = model_step()
    except Boom:
        with pytest.raises(Boom):
            real_step()
        return None
    return expected, real_step()


@settings(max_examples=300, deadline=None)
@given(run_operations)
def test_joined_runs_fire_as_one_event_per_call_would(ops):
    check_against_run_reference(ops)


@settings(max_examples=300, deadline=None)
@given(run_operations)
def test_joined_runs_match_the_reference_under_eager_compaction(ops):
    """The same, with the heap compacted whenever its cancelled
    entries are more than one and more than half of it."""
    with mock.patch.object(events, "COMPACT_MIN", 1):
        check_against_run_reference(ops)


def check_against_run_reference(ops):
    model, real = RunReference(), RunDriven()
    sim = real.sim
    for op in ops:
        if op[0] in JOINING + ("schedule", "schedule_at"):
            model.add(op[0], model.now + op[1], op[2], op[3])
            real.add(op[0], sim.now + op[1], op[2], op[3])
        elif op[0] == "cancel":
            if real.handles:
                call = sorted(real.handles)[op[1] % len(real.handles)]
                model.cancel(call)
                real.handles[call].cancel()
        elif op[0] == "step":
            outcome = both(model.fire_entry, sim.step)
            if outcome is not None:
                assert outcome[0] == outcome[1]
        elif op[0] == "run":
            def fire_up_to(limit=op[1]):
                count = 0
                while count < limit and model.fire_entry():
                    count += 1
                return count

            outcome = both(fire_up_to, lambda: sim.run(max_events=op[1]))
            if outcome is not None:
                assert outcome[0] == outcome[1]
        else:
            horizon = model.now + op[1]

            def fire_until():
                while model.fire_entry(horizon):
                    pass
                model.now = horizon

            both(fire_until, lambda: sim.run_until(horizon))
        assert real.fired == model.fired
        assert sim.now == model.now
        assert sim.processed_events == model.processed
        assert sim.pending_events == model.pending
        # The join index holds exactly the entries still open to a join.
        assert sorted(sim._queue.joinable) == sorted(model.joinable)
        assert all(entry[2] is not None
                   for entry in sim._queue.joinable.values())
        for call, handle in real.handles.items():
            assert handle.active == any(item[1] == call
                                        for item in model.live)
    while True:
        try:
            sim.run()
            break
        except Boom:
            pass
    while True:
        try:
            while model.fire_entry():
                pass
            break
        except Boom:
            pass
    assert real.fired == model.fired
    assert sim.processed_events == model.processed
    assert sim.pending_events == 0 and not sim._queue.joinable


class Payload:
    pass


def test_a_fired_run_lets_its_args_go():
    sim = Simulator()
    payload = Payload()
    ref = weakref.ref(payload)
    for _ in range(3):
        sim.call_at(1.0, id, payload)
    del payload
    assert sim.pending_events == 1
    assert sim.run() == 1
    gc.collect()
    assert ref() is None


def test_a_raising_member_leaves_the_rest_at_the_head_of_its_time():
    sim = Simulator()
    fired = []

    def fire(tag):
        fired.append(tag)
        if tag == "boom":
            raise Boom

    for tag in ("a", "boom", "c"):
        sim.call_at(1.0, fire, tag)
    sim.call_at(2.0, fire, "later")
    with pytest.raises(Boom):
        sim.run()
    assert sim.now == 1.0 and sim.pending_events == 2
    sim.call_at(1.0, fire, "after")  # joins nothing that has fired
    assert sim.pending_events == 3
    assert sim.run() == 3
    assert fired == ["a", "boom", "c", "after", "later"]


def test_same_time_batched_calls_of_one_callback_run_as_one_call():
    sim = Simulator()
    calls = []

    def batch(items):
        calls.append(list(items))

    for item in "abc":
        sim.call_batched(1.0, batch, item)
    sim.call_batched(2.0, batch, "d")
    assert sim.pending_events == 2
    assert sim.run() == 2
    assert calls == [["a", "b", "c"], ["d"]]


def test_a_member_between_two_batched_items_splits_them():
    """A member that runs arbitrary code between two items keeps its
    place, as it would between one call per item: here it reads what
    the first item did and adds a same-time item of its own, which
    fires after the entry, as a call made while a run fires does."""
    sim = Simulator()
    fired = []

    def batch(items):
        fired.append(("batch", list(items)))

    def other(items):
        fired.append(("other", list(items)))

    def between():
        fired.append(("between", len(fired)))
        sim.call_batched(1.0, batch, "late")

    sim.call_batched(1.0, batch, "a")
    sim.call_at(1.0, between)
    sim.call_batched(1.0, batch, "b")
    sim.call_batched(1.0, other, "x")  # another callback splits too
    sim.call_batched(1.0, batch, "c")
    sim.call_batched(1.0, batch, "d")
    assert sim.pending_events == 1
    assert sim.run() == 2
    assert fired == [("batch", ["a"]), ("between", 1), ("batch", ["b"]),
                     ("other", ["x"]), ("batch", ["c", "d"]),
                     ("batch", ["late"])]


def test_call_batched_refuses_a_past_or_nan_time():
    sim = Simulator()
    sim.call_at(1.0, noop)
    sim.run()
    for time in (0.5, math.nan):
        with pytest.raises(SimulationError):
            sim.call_batched(time, len, "item")
    assert sim.pending_events == 0


# -- compaction ---------------------------------------------------------------


def cancel_heavy(seed):
    """3,000 calls over 60 times, most cancelled: three quarters of
    the handles before the drain, more by run members as it goes.
    Returns the simulator, the calls fired, the calls a sorted-list
    reference fires, and each compaction's ``(time, heap before,
    heap after, whether a run member made it)``."""
    rng = random.Random(seed)
    sim = Simulator()
    calls = []  # call id -> (time, cancels)
    handles = {}
    fired = []
    compactions = []
    heap = sim._queue.heap

    def cancel(target, member):
        """A cancel that shrinks the heap is a compaction."""
        before = len(heap)
        handles[target].cancel()
        if len(heap) < before:
            compactions.append((sim.now, before, len(heap), member))
            assert all(entry[2] is not None for entry in heap)

    def fire(call, is_member):
        fired.append(call)
        for target in calls[call][1]:
            cancel(target, is_member)

    for call in range(3000):
        time = rng.randrange(60) * 0.5
        if rng.random() < 0.3:
            calls.append((time, rng.sample(range(3000), 16)))
            sim.call_at(time, fire, call, True)
        else:
            calls.append((time, []))
            handles[call] = sim.schedule_at(time, fire, call, False)
    for call in calls:
        call[1][:] = [target for target in call[1] if target in handles]
    for target in rng.sample(sorted(handles), 3 * len(handles) // 4):
        cancel(target, False)

    cancelled = {call for call, handle in handles.items()
                 if not handle.active}
    expected = []
    for _time, call in sorted((time, call)
                              for call, (time, _) in enumerate(calls)):
        if call not in cancelled:
            expected.append(call)
            cancelled.update(calls[call][1])
    return sim, fired, expected, compactions


@pytest.mark.parametrize("drive", [Simulator.run, by_step,
                                   by_run_until_slices])
@pytest.mark.parametrize("seed", [3, 11])
def test_compaction_mid_drain_keeps_the_reference_order(seed, drive):
    sim, fired, expected, compactions = cancel_heavy(seed)
    assert compactions and compactions[0][0] == 0.0  # before the drain
    drive(sim)
    assert fired == expected
    assert sim.pending_events == 0 and not sim._queue.heap
    assert sim.processed_events < len(expected)  # runs were joined
    # Some compactions came from inside run members, mid-drain; each
    # kept less than half of the heap it found.
    assert any(member and time > 0.0
               for time, _, _, member in compactions)
    assert all(2 * after < before for _, before, after, _ in compactions)


def test_compaction_waits_for_enough_cancelled_entries():
    sim = Simulator()
    handles = [sim.schedule(1.0, noop) for _ in range(2 * events.COMPACT_MIN)]
    for handle in handles[:events.COMPACT_MIN]:
        handle.cancel()
    # Half the heap, and no more than COMPACT_MIN: the entries stay.
    assert len(sim._queue.heap) == 2 * events.COMPACT_MIN
    handles[events.COMPACT_MIN].cancel()
    assert len(sim._queue.heap) == events.COMPACT_MIN - 1
    assert sim.pending_events == events.COMPACT_MIN - 1
    assert sim.run() == events.COMPACT_MIN - 1


def noop():
    pass
