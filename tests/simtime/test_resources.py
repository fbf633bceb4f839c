"""Tests for Server and WorkerPool resources."""

import pytest

from repro.errors import SimulationError
from repro.simtime import Server, Simulator, WorkerPool


def test_server_runs_jobs_fifo():
    sim = Simulator()
    done = []
    server = Server(sim)
    server.submit(2.0, lambda: done.append(("a", sim.now)))
    server.submit(3.0, lambda: done.append(("b", sim.now)))
    sim.run()
    assert done == [("a", 2.0), ("b", 5.0)]


def test_server_queues_after_busy_period():
    sim = Simulator()
    server = Server(sim)
    first = server.submit(4.0)
    second = server.submit(1.0)
    assert first == 4.0
    assert second == 5.0  # waits for the first job


def test_server_idle_gap_resets_queue():
    sim = Simulator()
    server = Server(sim)
    server.submit(1.0)
    sim.run_until(10.0)
    finish = server.submit(1.0)
    assert finish == 11.0  # starts immediately at now=10


def test_server_tracks_wait_and_busy_time():
    sim = Simulator()
    server = Server(sim)
    server.submit(2.0)
    server.submit(2.0)  # waits 2ms
    assert server.total_busy_ms == 4.0
    assert server.total_wait_ms == 2.0
    assert server.jobs_served == 2


def test_server_rejects_negative_duration():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Server(sim).submit(-1.0)


@pytest.mark.parametrize("make, finish, wait", [
    (Server, 2.0, 1.0),  # FIFO behind the first job
    (lambda sim: KeyedPool(sim, None), 1.0, 0.0),  # the second worker
    (lambda sim: KeyedPool(sim, "k"), 2.0, 1.0),  # behind its key
])
def test_a_nan_duration_is_refused_and_leaves_the_resource_as_it_was(
        make, finish, wait):
    sim = Simulator()
    resource = make(sim)
    resource.submit(1.0)
    with pytest.raises(SimulationError):
        resource.submit(float("nan"))
    with pytest.raises(SimulationError):
        resource.submit(float("nan"), lambda: None)
    assert resource.submit(1.0) == finish
    assert resource.jobs_served == 2 and resource.total_busy_ms == 2.0
    assert resource.total_wait_ms == wait
    assert sim.pending_events == 0


class KeyedPool(WorkerPool):
    """A two-worker pool whose jobs all carry one key."""

    def __init__(self, sim, key):
        super().__init__(sim, workers=2)
        self.key = key

    def submit(self, duration, *args):
        return super().submit(self.key, duration, *args)


def test_server_utilization():
    sim = Simulator()
    server = Server(sim)
    server.submit(5.0)
    assert server.utilization(10.0) == pytest.approx(0.5)


def test_pool_parallelism_across_keys():
    sim = Simulator()
    pool = WorkerPool(sim, workers=2)
    f1 = pool.submit("a", 5.0)
    f2 = pool.submit("b", 5.0)
    assert f1 == 5.0
    assert f2 == 5.0  # runs on the second worker


def test_pool_serialises_same_key():
    sim = Simulator()
    pool = WorkerPool(sim, workers=4)
    f1 = pool.submit("a", 5.0)
    f2 = pool.submit("a", 1.0)
    assert f1 == 5.0
    assert f2 == 6.0  # same key: must wait despite free workers


def test_pool_unkeyed_jobs_are_unordered_and_leave_no_key_behind():
    sim = Simulator()
    pool = WorkerPool(sim, workers=2)
    f1 = pool.submit(None, 5.0)
    f2 = pool.submit(None, 1.0)
    assert (f1, f2) == (5.0, 1.0)  # no key to wait behind
    assert pool.submit(None, 1.0) == 2.0  # earliest free worker
    assert pool._key_busy_until == {}
    assert pool.jobs_served == 3
    # a keyed submit is still ordered, and is the only entry kept
    assert pool.submit("a", 4.0) == 6.0
    assert pool.submit("a", 1.0) == 7.0
    assert list(pool._key_busy_until) == ["a"]


def test_pool_queues_when_all_workers_busy():
    sim = Simulator()
    pool = WorkerPool(sim, workers=2)
    pool.submit("a", 4.0)
    pool.submit("b", 4.0)
    finish = pool.submit("c", 1.0)
    assert finish == 5.0


def test_pool_completion_callbacks_fire_in_time_order():
    sim = Simulator()
    pool = WorkerPool(sim, workers=2)
    done = []
    pool.submit("a", 3.0, lambda: done.append(("a", sim.now)))
    pool.submit("b", 1.0, lambda: done.append(("b", sim.now)))
    sim.run()
    assert done == [("b", 1.0), ("a", 3.0)]


def test_pool_key_available_at():
    sim = Simulator()
    pool = WorkerPool(sim, workers=1)
    pool.submit("a", 7.0)
    assert pool.key_available_at("a") == 7.0
    assert pool.key_available_at("zzz") == 0.0


def test_pool_requires_positive_workers():
    with pytest.raises(SimulationError):
        WorkerPool(Simulator(), workers=0)


def test_pool_utilization_accounts_all_workers():
    sim = Simulator()
    pool = WorkerPool(sim, workers=2)
    pool.submit("a", 5.0)
    assert pool.utilization(10.0) == pytest.approx(0.25)


def test_pool_many_keys_fair_progress():
    sim = Simulator()
    pool = WorkerPool(sim, workers=3)
    finishes = [pool.submit(key, 1.0) for key in range(9)]
    # 9 unit jobs over 3 workers: waves at t=1, 2, 3.
    assert sorted(finishes) == [1.0] * 3 + [2.0] * 3 + [3.0] * 3
