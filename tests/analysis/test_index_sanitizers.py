"""Runtime sanitizer tests for the derived-structure invariants, run
for both families — secondary indexes and sketches.

Every test passes an explicit :class:`SanitizerConfig` (or disables
sanitizers entirely), so the autouse fixture's end-of-test ``verify()``
does not double-fail the deliberate violations.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.approx.registry import SketchDef, SketchRegistry
from repro.config import (
    ClusterConfig,
    IndexSpec,
    SanitizerConfig,
    SketchSpec,
)
from repro.env import Environment
from repro.errors import SanitizerError, StoreError
from repro.kvstore.derived import FAMILIES as PLURALS
from repro.kvstore.indexes import IndexDef, IndexRegistry
from repro.query.service import QueryService
from repro.state.live import LiveStateTable
from repro.state.snapshots import FullSnapshotTable

from ..conftest import build_average_job, make_squery_backend


def corrupt_index(registry):
    """Empty one partition's hash buckets behind the write path."""
    next(s for s in registry._columns["v"] if s.buckets).buckets.clear()


def corrupt_sketch(registry):
    """Bump one partition's count-min total behind the write path."""
    registry._partitions["v", "countmin"][0].sketch.total += 1


@dataclass(frozen=True)
class Family:
    name: str
    registry: type
    definition: object  # on column "v" of the tables built here
    spec: object        # on the average job's "total" column
    corrupt: Callable

    def __repr__(self) -> str:
        return self.name


FAMILIES = (
    Family("index", IndexRegistry, IndexDef("v", "hash"),
           IndexSpec("average", "total", "hash"), corrupt_index),
    Family("sketch", SketchRegistry, SketchDef("v", "countmin"),
           SketchSpec("average", "total", "countmin"), corrupt_sketch),
)


def each_family(check):
    """Run ``check(family)`` for both families under ``check``'s own
    test id.  Not ``parametrize``: these ids are on the tier-1 floor
    list, and an ``[index]`` suffix would rename every one of them."""

    def test():
        for family in FAMILIES:
            try:
                check(family)
            except BaseException as exc:
                exc.add_note(f"family: {family}")
                raise

    test.__name__ = check.__name__
    return test


def armed_env(**config_overrides):
    config_overrides.setdefault("fail_fast", True)
    config = SanitizerConfig(enabled=True, **config_overrides)
    return Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2),
        sanitizers=config,
    )


def commit_snapshot(env, family, ssid=1):
    table = FullSnapshotTable("snapshot_t", parallelism=2,
                              node_of_instance=lambda i: i % 2)
    table.add_definition(family.registry, family.definition)
    env.store.register_snapshot_table("snapshot_t", table)
    env.store.begin_snapshot(ssid)
    table.write_instance(ssid, 0, {"a": {"v": 1}})
    table.write_instance(ssid, 1, {"b": {"v": 2}})
    env.store.commit_snapshot(ssid)
    return table


# -- frozen-registry mutation ------------------------------------------------


@each_family
def test_commit_freezes_the_version_registry(family):
    env = armed_env()
    table = commit_snapshot(env, family)
    assert table.ready(family.name, 1)
    assert table.derived[family.name].versions[1].frozen


@each_family
def test_frozen_index_mutation_is_recorded_and_rejected(family):
    env = armed_env(fail_fast=False)
    table = commit_snapshot(env, family)
    # A write to the committed version hits the frozen registry: the
    # snapshot-mutation guard records first, then the registry fires
    # the frozen-<family> hook and refuses with StoreError.
    with pytest.raises(
        StoreError,
        match=f"rebuild.* on a frozen {family} registry: committed "
              "snapshot versions .* are immutable",
    ):
        table.write_instance(1, 0, {"a": {"v": 99}})
    kinds = {v.kind for v in env.sanitizers.violations}
    assert kinds == {"snapshot-mutation", f"frozen-{family}"}


@each_family
def test_frozen_index_mutation_raises_store_error_unsanitized(family):
    # Freeze-at-commit is a store-layer contract, not a sanitizer
    # feature: with detection off the mutation still refuses.
    env = Environment(sanitizers=SanitizerConfig(enabled=False))
    table = commit_snapshot(env, family)
    with pytest.raises(StoreError, match="immutable"):
        table.write_instance(1, 0, {"a": {"v": 99}})


@each_family
def test_uncommitted_version_stays_mutable(family):
    env = armed_env()
    table = commit_snapshot(env, family, ssid=1)
    env.store.begin_snapshot(2)
    table.write_instance(2, 0, {"a": {"v": 7}})  # in-flight: allowed
    assert not table.ready(family.name, 2)
    env.store.commit_snapshot(2)
    assert table.ready(family.name, 2)


@each_family
def test_verify_flags_committed_but_unfrozen_indexes(family):
    env = armed_env(fail_fast=False)
    table = commit_snapshot(env, family)
    # Melt it behind the store's back.
    table.derived[family.name].versions[1].frozen = False
    violations = env.sanitizers.verify()
    assert [v.kind for v in violations] == [f"frozen-{family}"]
    assert "never frozen" in violations[0].message


# -- registry/store coherence ------------------------------------------------


def live_registry(env, family):
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    for key in range(50):
        imap.put(key, {"v": key % 5})
    getattr(env.store, f"create_{family}")(
        "data", family.definition.column, family.definition.kind
    )
    return imap.registries[family.name]


@each_family
def test_verify_catches_corrupted_live_registry(family):
    env = armed_env(fail_fast=False)
    family.corrupt(live_registry(env, family))
    violations = env.sanitizers.verify()
    assert violations
    assert {v.kind for v in violations} == {f"{family}-coherence"}


@each_family
def test_verify_catches_corrupted_snapshot_registry(family):
    env = armed_env(fail_fast=False)
    table = commit_snapshot(env, family)
    family.corrupt(table.derived[family.name].versions[1])
    violations = env.sanitizers.verify()
    assert violations
    assert {v.kind for v in violations} == {f"{family}-coherence"}


@each_family
def test_fail_fast_verify_raises_on_incoherence(family):
    env = armed_env(fail_fast=True)
    family.corrupt(live_registry(env, family))
    with pytest.raises(SanitizerError, match=f"{family}-coherence"):
        env.sanitizers.verify()


@each_family
def test_index_coherence_check_can_be_disabled(family):
    env = armed_env(fail_fast=False,
                    **{f"{family}_coherence": False})
    family.corrupt(live_registry(env, family))
    assert env.sanitizers.verify() == []


# -- clean end-to-end run ----------------------------------------------------


@each_family
def test_indexed_workload_under_all_sanitizers_is_clean(family):
    env = armed_env(snapshot_fingerprints=True)
    backend = make_squery_backend(
        env, **{PLURALS[family.name]: (family.spec,)},
    )
    job = build_average_job(env, backend=backend, rate=3000, keys=20,
                            checkpoint_interval_ms=500,
                            limit_per_instance=400)
    job.start()
    service = QueryService(env, repeatable_read=True)
    results = []
    env.sim.schedule(
        700, lambda: results.append(
            service.submit('SELECT * FROM "average" WHERE total > 0')
        )
    )
    env.sim.schedule(
        900, lambda: results.append(
            service.submit('SELECT COUNT(*) AS n FROM "snapshot_average"')
        )
    )
    env.run_until(4_000)
    for execution in results:
        assert execution.done and execution.error is None
    assert getattr(
        env.store, f"{family}_maintenance_ops"
    )() > 0  # the family really was maintained under the sanitizers
    assert env.sanitizers.verify() == []
