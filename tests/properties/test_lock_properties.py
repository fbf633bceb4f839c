"""Property-based tests for the lock manager: safety (one holder per
key) and liveness (every waiter eventually granted) under arbitrary
acquire/release schedules."""

from hypothesis import given, settings, strategies as st

from repro.kvstore import LockManager


#: A schedule: sequence of (key, owner) acquire attempts.
schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=6)),
    max_size=40,
)


@settings(max_examples=80)
@given(schedules)
def test_single_holder_and_fifo_grants(schedule):
    locks = LockManager()
    granted = []
    holders = {}

    def make_cb(key, owner):
        def cb():
            granted.append((key, owner))
            holders[key] = owner
        return cb

    queued = []
    for key, owner in schedule:
        if locks.acquire(key, owner, granted=make_cb(key, owner)):
            holders[key] = owner
        else:
            queued.append((key, owner))

    # Release everything in grant order until all waiters served.
    for _ in range(len(schedule) * 2):
        active = [(k, h) for k, h in holders.items() if locks.is_locked(k)]
        if not active:
            break
        key, holder = active[0]
        locks.release(key, holder)
        if not locks.is_locked(key):
            del holders[key]

    # Liveness: every queued waiter was eventually granted.
    for item in queued:
        assert item in granted
    # Safety: nothing is left locked.
    for key, _ in schedule:
        assert not locks.is_locked(key)


@settings(max_examples=80)
@given(schedules)
def test_acquisition_accounting(schedule):
    locks = LockManager()
    immediate = 0
    for key, owner in schedule:
        if locks.try_acquire(key, (key, owner, object())):
            immediate += 1
    assert locks.acquisitions == immediate
    # Exactly the distinct keys are locked.
    assert sum(
        1 for key in dict.fromkeys(k for k, _ in schedule)
        if locks.is_locked(key)
    ) == immediate
