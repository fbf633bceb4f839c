"""Property-based tests for simulation resources."""

from hypothesis import given, settings, strategies as st

from repro.simtime import Server, Simulator, WorkerPool


durations = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1, max_size=30,
)


@settings(max_examples=60)
@given(durations)
def test_server_completion_times_are_cumulative(jobs):
    sim = Simulator()
    server = Server(sim)
    finishes = [server.submit(duration) for duration in jobs]
    expected = []
    acc = 0.0
    for duration in jobs:
        acc += duration
        expected.append(acc)
    assert finishes == expected


@settings(max_examples=60)
@given(durations, st.integers(min_value=1, max_value=8))
def test_pool_conservation_of_work(jobs, workers):
    """Total busy time equals the sum of durations, and the last
    completion is at least total/workers (no free lunch) and at most
    the serial total (no lost capacity for a single key)."""
    sim = Simulator()
    pool = WorkerPool(sim, workers)
    finishes = [pool.submit(i, d) for i, d in enumerate(jobs)]
    total = sum(jobs)
    assert pool.total_busy_ms == sum(jobs)
    assert max(finishes) >= total / workers - 1e-9
    assert max(finishes) <= total + 1e-9


@settings(max_examples=60)
@given(durations)
def test_pool_single_key_serialises_exactly(jobs):
    sim = Simulator()
    pool = WorkerPool(sim, workers=4)
    finishes = [pool.submit("same", d) for d in jobs]
    acc = 0.0
    for duration, finish in zip(jobs, finishes):
        acc += duration
        assert abs(finish - acc) < 1e-9


@settings(max_examples=60)
@given(durations, st.integers(min_value=1, max_value=4))
def test_pool_completions_monotone_per_key(jobs, workers):
    sim = Simulator()
    pool = WorkerPool(sim, workers)
    per_key = {}
    for index, duration in enumerate(jobs):
        key = index % 3
        per_key.setdefault(key, []).append(pool.submit(key, duration))
    for finishes in per_key.values():
        assert finishes == sorted(finishes)


@settings(max_examples=60)
@given(durations)
def test_callbacks_fire_exactly_once_each(jobs):
    sim = Simulator()
    server = Server(sim)
    fired = []
    for index, duration in enumerate(jobs):
        server.submit(duration, fired.append, index)
    sim.run()
    assert sorted(fired) == list(range(len(jobs)))
