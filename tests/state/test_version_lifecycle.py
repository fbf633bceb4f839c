"""The snapshot version lifecycle every backend shares: a version is
served from its first instance write until the store aborts it (what
the attempt wrote goes) or retires it, and every backend rebuilds an
instance in one row order, whatever its keys."""

import pytest

from repro import ClusterConfig, Environment
from repro.query import QueryService
from repro.state import (
    FullSnapshotTable, IncrementalSnapshotTable, LsmSnapshotTable,
)

from ..conftest import (
    SNAPSHOT_BACKENDS as BACKENDS, build_average_job, make_squery_backend,
)

TABLES = {
    "full": FullSnapshotTable,
    "chain": IncrementalSnapshotTable,
    "lsm": LsmSnapshotTable,
}


def make_table(kind):
    return TABLES[kind]("snapshot_op", 1, lambda i: 0)


@pytest.mark.parametrize("kind", TABLES)
def test_an_aborted_version_leaves_nothing_behind(kind):
    table = make_table(kind)
    table.write_instance(1, 0, {"k": 1})
    table.write_instance(2, 0, {"k": 2})
    table.abort(2)
    table.write_instance(3, 0, {})
    assert table.available_ssids() == [1, 3]
    # A full copy holds what was written; a delta reads through 1.
    assert table.materialize_instance(3, 0)[0] == (
        {} if kind == "full" else {"k": 1})


@pytest.mark.parametrize("kind", TABLES)
def test_an_aborted_delete_is_undone(kind):
    table = make_table(kind)
    table.write_instance(1, 0, {"a": 1, "b": 1})
    table.write_instance(2, 0, {}, deleted={"a"})
    table.abort(2)
    table.write_instance(3, 0, {"b": 3} if kind != "full"
                         else {"a": 1, "b": 3})
    assert table.materialize_instance(3, 0)[0] == {"b": 3, "a": 1}


def test_an_aborted_delta_leaves_the_chain_coverage_it_found():
    # Key b first appears in the aborted delta: were it still counted,
    # the walk at 3 would look for two keys and read the whole chain.
    table = make_table("chain")
    table.write_instance(1, 0, {"a": 1})
    table.write_instance(2, 0, {"b": 2})
    table.abort(2)
    table.write_instance(3, 0, {"a": 3})
    assert table.materialize_instance(3, 0) == ({"a": 3}, 1)


@pytest.mark.parametrize("kind", TABLES)
def test_a_retired_version_is_no_longer_served(kind):
    table = make_table(kind)
    for ssid in (1, 2, 3):
        table.write_instance(ssid, 0, {"k": ssid})
    table.drop_snapshot(1)
    assert table.available_ssids() == [2, 3]
    assert not table.has_snapshot(1)
    assert table.materialize_instance(3, 0)[0] == {"k": 3}


@pytest.mark.parametrize("kind", TABLES)
def test_every_backend_rebuilds_an_instance_in_write_order(kind):
    table = make_table(kind)
    table.write_instance(1, 0, {key: key % 2 for key in range(12)})
    assert list(table.materialize_instance(1, 0)[0]) == list(range(12))


@pytest.mark.parametrize("kind", TABLES)
def test_one_instance_may_hold_keys_that_do_not_order(kind):
    table = make_table(kind)
    table.write_instance(1, 0, {1: "one", "a": "letter"})
    table.write_instance(2, 0, {"a": "again"}, deleted={1})
    if kind == "lsm":
        table.compact_all()
    assert table.materialize_instance(1, 0)[0] == {1: "one", "a": "letter"}
    assert table.materialize_instance(2, 0)[0] == {"a": "again"}


@pytest.mark.parametrize("kind", TABLES)
def test_every_backend_reads_instances_in_id_order(kind):
    table = TABLES[kind]("snapshot_op", 3, lambda i: 0)
    for instance in (2, 0, 1):
        table.write_instance(1, instance, {f"k{instance}": instance})
    expected = ["k0", "k1", "k2"]
    assert [row["key"] for row in table.rows_for_snapshot(1)] == expected
    assert [row["key"] for row in table.rows_on_node(0, 1)] == expected
    assert list(table.materialize(1)[0]) == expected


def test_every_backend_scans_a_version_instance_by_instance():
    # The same statement at the same committed version visits the same
    # instances on every backend.  Within an instance a full copy keeps
    # its checkpoint's order and a walk gives the newest delta first,
    # so the keys agree where each instance holds one.  With 40 keys only
    # the instance each row comes from is compared, not the key: the key
    # order inside an instance still differs between full and the walks.
    answers = {}
    for kind in BACKENDS:
        for keys in (6, 40):
            env = Environment(ClusterConfig(nodes=2,
                                            processing_workers_per_node=3))
            backend = make_squery_backend(env, **BACKENDS[kind])
            build_average_job(env, backend=backend, rate=400, keys=keys,
                              parallelism=6,
                              checkpoint_interval_ms=500).start()
            env.run_until(3_000)
            assert env.store.committed_ssid == 5
            rows = QueryService(env).execute(
                "SELECT key FROM snapshot_average LIMIT 6").result.tuples()
            table = backend.snapshot_table("average")
            answers[kind, keys] = tuple(
                (table.partition_of_key(key), key if keys == 6 else None)
                for (key,) in rows
            )
    for keys in (6, 40):
        assert len({answers[kind, keys] for kind in BACKENDS}) == 1
    assert answers["full", 6] == tuple((i, i) for i in (0, 2, 4, 1, 3, 5))


def run_average_job(kind, until_ms, kill=None):
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=2))
    backend = make_squery_backend(env, **BACKENDS[kind])
    job = build_average_job(env, backend=backend, rate=400, keys=4000,
                            limit_per_instance=600,
                            checkpoint_interval_ms=500)
    job.start()
    if kill is not None:
        env.run_until(kill[0])
        env.cluster.kill_node(kill[1])
    env.run_until(until_ms)
    return env, backend.snapshot_table("average")


@pytest.mark.parametrize("kind", BACKENDS)
def test_a_table_serves_exactly_the_stores_versions(kind):
    # Retired versions stop being served at once (the chain kept them
    # until it pruned) ...
    env, table = run_average_job(kind, 3_000)
    assert env.store.available_ssids() == [4, 5]
    assert table.available_ssids() == env.store.available_ssids()
    # ... and a checkpoint aborted 1 ms in leaves no version, even
    # though its writes land after the abort.
    env, table = run_average_job(kind, 6_000, kill=(501, 1))
    assert env.store.available_ssids() == [10, 11]
    assert table.available_ssids() == env.store.available_ssids()
