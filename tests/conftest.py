"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import settings

from repro import (
    ClusterConfig,
    Environment,
    JobConfig,
    KeyedAggregateOperator,
    Pipeline,
    SinkOperator,
    SQueryBackend,
    SQueryConfig,
)
from repro.dataflow import Job
from repro.dataflow.sources import CallableSource
from repro.analysis.sanitizers import drain_runtimes, set_default_config
from repro.config import SanitizerConfig
from repro.sql.functions import CountAggregate, SumAggregate

# Simulated runs take real time per example: no property test has a
# deadline.  Each sets its own example count with ``@settings``.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _armed_sanitizers():
    """Arm the cheap runtime sanitizers for every test environment.

    Each ``Environment`` built while this fixture is active gets the
    fail-fast invariant detectors (snapshot immutability, lock leaks,
    billing classification, dead-node scheduling); a violation raises
    :class:`repro.errors.SanitizerError` at the offending call.  The
    O(state) fingerprint pass stays off — the CI smoke covers it.

    End-of-test ``verify()`` runs only for runtimes armed through this
    default: sanitizer tests that pass an explicit config (to trigger
    violations on purpose) are left alone.
    """
    set_default_config(SanitizerConfig(enabled=True, fail_fast=True))
    try:
        yield
    finally:
        set_default_config(None)
        runtimes = drain_runtimes()
    for runtime in runtimes:
        if runtime.from_default:
            runtime.verify()


@pytest.fixture
def env():
    """A small three-node environment (2 processing workers per node)."""
    return Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2)
    )


@pytest.fixture
def single_node_env():
    return Environment(
        ClusterConfig(nodes=1, processing_workers_per_node=2,
                      backup_count=0)
    )


@dataclass
class Avg:
    """A small state object with named fields (exercises row shaping)."""

    count: int
    total: float


def accumulate_avg(state, value):
    if state is None:
        return Avg(1, float(value))
    return Avg(state.count + 1, state.total + float(value))


def counting_source(total_rate_per_s: float = 2000.0, keys: int = 40,
                    limit_per_instance: int | None = None):
    """Deterministic source: cycles keys, value = seq % 10."""

    def gen(instance, seq):
        return (instance * 97 + seq) % keys, float(seq % 10)

    return CallableSource(gen, total_rate_per_s,
                          limit_per_instance=limit_per_instance)


def build_average_job(env, backend=None, rate=2000.0, keys=40,
                      parallelism=3, checkpoint_interval_ms=1000.0,
                      limit_per_instance=None):
    """source -> stateful 'average' operator -> sink."""
    pipeline = Pipeline()
    pipeline.add_source(
        "nums", counting_source(rate, keys, limit_per_instance)
    )
    pipeline.add_operator(
        "average",
        lambda: KeyedAggregateOperator(
            accumulate_avg, lambda k, s: s.total / s.count
        ),
    )
    pipeline.add_operator("sink", SinkOperator)
    pipeline.connect("nums", "average")
    pipeline.connect("average", "sink")
    return Job(env, pipeline, JobConfig(
        checkpoint_interval_ms=checkpoint_interval_ms,
        parallelism=parallelism,
    ), backend)


#: ``make_squery_backend`` overrides of each snapshot backend.
SNAPSHOT_BACKENDS = {
    kind: {"snapshot_backend": kind} for kind in ("full", "chain", "lsm")
}


def make_squery_backend(env, **overrides):
    config = SQueryConfig(**overrides) if overrides else SQueryConfig()
    return SQueryBackend(env.cluster, env.store, config)


def aggregate_state(acc):
    """What an aggregate state holds, comparable between two states: a
    float total as its exact fraction, NaN and the infinities by count,
    a MIN / MAX value by type and repr (a NaN is a NaN, -0.0 is not
    0.0).  States holding equal ones give every later add, fold, merge,
    retraction and result the same answer."""
    if isinstance(acc, CountAggregate):
        return acc.result() if acc._seen is None else list(acc._seen)
    if isinstance(acc, SumAggregate):
        if acc._seen is not None:
            return [(type(value), repr(value))
                    for value in acc._seen.values()]
        acc._split()
        # The specials by count, as Counter equality has them (a zero
        # count is none held): the order a fold, merge or split first
        # met them in is not read by any result.
        return (acc._count, acc._floats_held, acc._int,
                sorted(item for item in acc._specials.items() if item[1]),
                sum(map(Fraction, acc._floats), Fraction()))
    return [(type(value), repr(value), copies)
            for value, copies in zip(acc._values(), acc._held.values())]
