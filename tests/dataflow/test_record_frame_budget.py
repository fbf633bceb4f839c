"""Count-based guard on the record path's host work.

NEXMark query 6 on the S-QUERY backend, as the ``stream_q6`` benchmark
runs it: every frame the interpreter enters over its second 25 ms round
(the costliest of the first four), per record the sources emit.  Frames
repeat exactly, where timings do not.  Everything deployment fixes
(edge routing and channel keys, summed costs, random streams, the
mirror's lock call) is resolved once per instance, so a record costs
about 67 frames end to end; it cost 100 while those were resolved per
record (seed 11).
"""

import sys
from collections import Counter

from repro import ClusterConfig, Environment, SQueryBackend, SQueryConfig
from repro.config import SanitizerConfig
from repro.dataflow.records import Record
from repro.workloads.nexmark import build_query6_job

#: Frames per emitted record the window may cost.
BUDGET = 70


def python_calls(function):
    """Names of the Python frames entered while ``function()`` runs
    (less Hypothesis's garbage-collection timer, when it is loaded)."""
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
    del calls["gc_callback"]
    return calls


def q6_job(seed=11, **kwargs):
    """Three one-worker nodes at the paper's per-worker rate, warm."""
    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=1,
                      query_workers_per_node=4, backup_count=1),
        seed=seed, sanitizers=SanitizerConfig(enabled=False),
    )
    backend = SQueryBackend(env.cluster, env.store, SQueryConfig())
    job = build_query6_job(env, backend, rate_per_s=1_000_000 / 12,
                           sellers=10_000, checkpoint_interval_ms=250.0,
                           parallelism=3, seed=seed, **kwargs)
    job.start()
    env.run_for(250.0)
    return env, job


def emitted(job):
    return sum(source.records_emitted for source in job.source_instances())


def test_steady_state_q6_stays_within_the_frame_budget():
    env, job = q6_job()
    env.run_for(25.0)
    before = emitted(job)
    calls = python_calls(lambda: env.run_for(25.0))
    records = emitted(job) - before
    assert records > 1000
    assert sum(calls.values()) / records <= BUDGET
    # The mirror write takes its key lock without an owner or closure.
    assert calls["apply_update"] == calls["run_locked"] > 0
    assert calls["acquire"] == calls["apply"] == 0


def test_a_record_on_an_idle_channel_is_submitted_without_a_pump():
    env, job = q6_job(limit_per_instance=50)  # long drained
    instance = job.instances_of("q6")[0]
    key = next(iter(instance.input_channels))
    assert job.all_sources_exhausted()
    assert not instance._snapshotting and not instance._pending_jobs
    processed = instance.records_processed
    seller, auction = job.source_instances()[0].source.generate(0, 49)
    calls = python_calls(lambda: instance.deliver_guarded(
        job.epoch, key, Record(seller, auction, env.now)))
    assert calls["_pump"] == 0
    assert calls["_submit_record"] == 1
    assert instance._pending_jobs == 1
    env.run_for(10.0)
    assert instance.records_processed == processed + 1
