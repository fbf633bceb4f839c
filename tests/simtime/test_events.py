"""Tests for the event queue internals."""

import pytest

from repro.errors import SimulationError
from repro.simtime.events import EventQueue


def test_pop_in_time_order():
    queue = EventQueue()
    for time in (3.0, 1.0, 2.0):
        queue.push(time, lambda: None, ())
    times = []
    while True:
        popped = queue.pop()
        if popped is None:
            break
        times.append(popped[0])
    assert times == [1.0, 2.0, 3.0]


def test_ties_broken_by_insertion_order():
    queue = EventQueue()
    queue.push(1.0, "first", ())
    queue.push(1.0, "second", ())
    assert [queue.pop()[1], queue.pop()[1]] == ["first", "second"]


def test_cancelled_events_skipped_by_pop():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None, ())
    queue.push(2.0, lambda: None, ())
    handle.cancel()
    assert queue.pop()[0] == 2.0
    assert queue.pop() is None


def test_len_excludes_cancelled():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None, ())
    queue.push(2.0, lambda: None, ())
    assert len(queue) == 2
    handle.cancel()
    assert len(queue) == 1


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None, ())
    queue.push(5.0, lambda: None, ())
    assert queue.peek_time() == 1.0
    handle.cancel()
    assert queue.peek_time() == 5.0


def test_peek_time_empty():
    assert EventQueue().peek_time() is None
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None, ())
    handle.cancel()
    assert queue.peek_time() is None


def test_nan_time_rejected():
    with pytest.raises(SimulationError):
        EventQueue().push(float("nan"), lambda: None, ())


def test_entries_order_without_comparing_callbacks():
    # Lambdas are unorderable: a comparison that got past (time, seq)
    # would raise TypeError inside heapq.
    queue = EventQueue()
    for time in (2.0, 1.0, 2.0, 1.0, 1.0):
        queue.push(time, lambda: None, (object(),))
    assert [queue.pop()[0] for _ in range(5)] == [1.0, 1.0, 1.0, 2.0, 2.0]


def test_handle_time_property():
    queue = EventQueue()
    handle = queue.push(7.5, lambda: None, ())
    assert handle.time == 7.5
    assert handle.active


def test_handle_inactive_once_popped_and_late_cancel_is_a_noop():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None, ())
    queue.push(2.0, lambda: None, ())
    assert queue.pop()[0] == 1.0
    assert not handle.active
    handle.cancel()
    assert len(queue) == 1


def test_double_cancel_decrements_once():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None, ())
    queue.push(2.0, lambda: None, ())
    handle.cancel()
    handle.cancel()
    assert len(queue) == 1
    assert queue.peek_time() == 2.0
    assert len(queue) == 1
