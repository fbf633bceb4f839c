"""Property-based tests for window operators: emitted windows plus the
open window always account for every record exactly once."""

from hypothesis import given, settings, strategies as st

from repro.dataflow.operators import Emitter
from repro.dataflow.records import Record
from repro.dataflow.windows import (
    SessionWindowOperator,
    SlidingCountWindowOperator,
    TumblingWindowOperator,
)


#: (key, value, time-delta) traces; deltas accumulate so event times are
#: monotone per trace (sources emit in order).
traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    ),
    max_size=50,
)


def feed(operator, trace):
    out = Emitter()
    emitted = []
    now = 0.0
    for key, value, delta in trace:
        now += delta
        operator.process(Record(key, value, created_ms=now), out)
        emitted.extend(r.value for r in out.drain())
    return emitted


def total_add(acc, value):
    count, total = acc or (0, 0)
    return count + 1, total + value


@settings(max_examples=60)
@given(traces)
def test_tumbling_windows_partition_records(trace):
    operator = TumblingWindowOperator(100.0, total_add)
    emitted = feed(operator, trace)
    closed_count = sum(result.count for result in emitted)
    open_count = sum(
        state.count for _, state in operator.state.items()
    )
    assert closed_count + open_count == len(trace)
    closed_sum = sum(result.value[1] for result in emitted)
    open_sum = sum(
        state.accumulator[1] for _, state in operator.state.items()
    )
    assert closed_sum + open_sum == sum(v for _, v, _ in trace)


@settings(max_examples=60)
@given(traces)
def test_tumbling_windows_ordered_per_key(trace):
    operator = TumblingWindowOperator(100.0, total_add)
    emitted = feed(operator, trace)
    per_key: dict = {}
    for result in emitted:
        per_key.setdefault(result.key, []).append(result.window_start)
    for starts in per_key.values():
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)


@settings(max_examples=60)
@given(traces)
def test_session_windows_account_for_all_records(trace):
    operator = SessionWindowOperator(50.0, total_add)
    emitted = feed(operator, trace)
    closed = sum(result.count for result in emitted)
    open_count = sum(
        state.count for _, state in operator.state.items()
    )
    assert closed + open_count == len(trace)


@settings(max_examples=60)
@given(traces)
def test_session_bounds_contain_gap_rule(trace):
    operator = SessionWindowOperator(50.0, total_add)
    emitted = feed(operator, trace)
    for result in emitted:
        assert result.window_end >= result.window_start


@settings(max_examples=60)
@given(traces, st.integers(min_value=1, max_value=5))
def test_sliding_count_window_matches_reference(trace, n):
    operator = SlidingCountWindowOperator(n, lambda k, vs: list(vs))
    emitted = feed(operator, trace)
    reference: dict = {}
    expected = []
    for key, value, _ in trace:
        window = reference.setdefault(key, [])
        window.append(value)
        del window[:-n]
        expected.append(list(window))
    assert emitted == expected
