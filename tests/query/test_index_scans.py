"""Service-level tests for index-backed scans.

Secondary indexes are an access-path optimisation and nothing else:
index-on and index-off runs must return bit-identical rows while the
indexed run touches (scans, locks, bills) an order of magnitude fewer
rows for selective predicates.
"""

import random

import pytest

from repro import Environment
from repro.config import ClusterConfig, IndexSpec
from repro.observability import collect_report, format_report
from repro.query import QueryService
from repro.state.live import LiveStateTable
from repro.state.snapshots import (
    FullSnapshotTable, IncrementalSnapshotTable, LsmSnapshotTable,
)

from ..conftest import build_average_job, make_squery_backend

NODES = 5
KEYS = 5_000
#: Fewer partitions than the 271 default: per-partition probes carry a
#: fixed cost, so selective predicates over a small table only beat the
#: scan when the partition count is in proportion to the data.  A shard
#: here sweeps ~1000 rows for 0.33 ms; three probes into each of its 6-7
#: partitions cost 0.2 ms before the first candidate is read.
PARTITIONS = 32


@pytest.fixture
def indexed_env():
    """Five nodes, one wide live table with hash + sorted indexes."""
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1,
                      partition_count=PARTITIONS)
    )
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(KEYS):
        imap.put(key, {
            "value": key % 50,
            "weight": key % 7,
            "label": f"item-{key % 30:02d}",
            "pad1": key, "pad2": key * 2, "pad3": key * 3,
        })
    env.store.create_index("metrics", "value", "hash")
    env.store.create_index("metrics", "label", "sorted")
    return env


EQUIVALENCE_SQL = [
    'SELECT key, value FROM "metrics" WHERE value = 7 ORDER BY key',
    'SELECT * FROM "metrics" WHERE value IN (1, 2, 3)',
    'SELECT key FROM "metrics" WHERE value = 7 AND weight = 2',
    'SELECT key FROM "metrics" WHERE label LIKE \'item-1%\' '
    "ORDER BY key LIMIT 7 OFFSET 2",
    'SELECT label, COUNT(*) AS n FROM "metrics" WHERE value = 0 '
    "GROUP BY label ORDER BY label",
    'SELECT COUNT(*) AS n FROM "metrics" WHERE value BETWEEN 10 AND 12',
    'SELECT DISTINCT weight FROM "metrics" WHERE value < 5 '
    "ORDER BY weight",
    'SELECT MIN(pad1) AS lo, MAX(pad2) AS hi FROM "metrics" '
    "WHERE value = 49",
    'SELECT key FROM "metrics" WHERE value = 7 AND key < 600 '
    "ORDER BY key",
    'SELECT COUNT(*) AS n FROM "metrics"',
    # one label in thirty: selective enough for the sorted index
    'SELECT key FROM "metrics" WHERE label LIKE \'item-07%\' '
    "ORDER BY key",
]


@pytest.mark.parametrize("sql", EQUIVALENCE_SQL)
def test_index_on_off_results_identical(indexed_env, sql):
    on = QueryService(indexed_env, indexes=True).execute(sql)
    off = QueryService(indexed_env, indexes=False).execute(sql)
    assert on.result.columns == off.result.columns
    assert on.result.rows == off.result.rows


@pytest.mark.parametrize("sql", EQUIVALENCE_SQL)
def test_index_on_off_identical_without_pushdown(indexed_env, sql):
    # Indexes ride on scan fragments; with pushdown off there is no
    # fragment and the service must quietly scan.
    on = QueryService(indexed_env, pushdown=False,
                      indexes=True).execute(sql)
    off = QueryService(indexed_env, pushdown=False,
                       indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert on.index_probes == 0


def test_selective_equality_scans_10x_fewer_rows(indexed_env):
    sql = 'SELECT key, value FROM "metrics" WHERE value = 7'
    on = QueryService(indexed_env, indexes=True).execute(sql)
    off = QueryService(indexed_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert off.entries_scanned == KEYS
    assert on.entries_scanned == KEYS // 50  # exact candidates
    assert on.entries_scanned * 10 <= off.entries_scanned
    assert on.index_probes > 0
    assert on.index_rows_read == KEYS // 50
    assert on.rows_skipped_by_index == KEYS - KEYS // 50
    # Touching fewer rows is also faster in simulated time.
    assert on.latency_ms < off.latency_ms


def test_like_prefix_uses_sorted_index(indexed_env):
    sql = 'SELECT key FROM "metrics" WHERE label LIKE \'item-07%\''
    on = QueryService(indexed_env, indexes=True).execute(sql)
    off = QueryService(indexed_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    matches = sum(1 for key in range(KEYS) if key % 30 == 7)
    assert on.entries_scanned == matches
    assert off.entries_scanned == KEYS
    assert on.index_probes > 0


def test_in_list_probes_each_value(indexed_env):
    sql = 'SELECT COUNT(*) AS n FROM "metrics" WHERE value IN (1, 2, 3)'
    on = QueryService(indexed_env, indexes=True).execute(sql)
    assert on.result.rows[0]["n"] == 3 * KEYS // 50
    assert on.entries_scanned == 3 * KEYS // 50
    assert on.index_probes > 0


def test_null_bound_between_agrees_on_every_access_path(indexed_env):
    # ``x BETWEEN NULL AND 3`` is never TRUE, its negation is TRUE past
    # the known bound.  The pushed forms — a half-open key range, a
    # sorted-index range probe — only ever narrow what the predicate
    # then decides, so every path gives the central answer.
    indexed_env.store.create_index("metrics", "weight", "sorted")
    above = sum(1 for key in range(KEYS) if key % 7 > 3)
    for where, expected in [
        ("weight BETWEEN NULL AND 3", 0),
        ("weight NOT BETWEEN NULL AND 3", above),
        ("weight BETWEEN 4 AND NULL", 0),
        ("weight NOT BETWEEN 4 AND NULL", KEYS - above),
        ("key BETWEEN NULL AND 99", 0),
        ("key NOT BETWEEN NULL AND 99", KEYS - 100),
    ]:
        sql = f'SELECT COUNT(*) AS n FROM "metrics" WHERE {where}'
        for gates in ({}, {"indexes": False}, {"pushdown": False}):
            execution = QueryService(indexed_env, **gates).execute(sql)
            assert execution.result.rows == [{"n": expected}], (sql, gates)


def test_non_selective_predicate_stays_full_scan(indexed_env):
    # value < 500 keeps every row: the chooser must price the index out.
    sql = 'SELECT COUNT(*) AS n FROM "metrics" WHERE value < 500'
    on = QueryService(indexed_env, indexes=True).execute(sql)
    assert on.index_probes == 0
    assert on.entries_scanned == KEYS


def test_unindexed_column_stays_full_scan(indexed_env):
    sql = 'SELECT COUNT(*) AS n FROM "metrics" WHERE weight = 2'
    on = QueryService(indexed_env, indexes=True).execute(sql)
    assert on.index_probes == 0
    assert on.entries_scanned == KEYS


def test_index_composes_with_partition_pruning(indexed_env):
    # 65 keys exceed the multi-point budget, so the key set prunes
    # partitions first; the index then resolves candidates only within
    # the surviving ones.  The keys are drawn from a handful of
    # partitions so the pruning actually bites; the key set leads, so
    # the rows either skips leave before another conjunct reads them.
    from repro.cluster.partition import stable_hash
    keys = [k for k in range(KEYS)
            if stable_hash(k) % PARTITIONS < 8][:65]
    assert len(keys) == 65
    in_list = ", ".join(str(k) for k in keys)
    sql = (f'SELECT COUNT(*) AS n FROM "metrics" WHERE key IN ({in_list}) '
           "AND value = 7")
    on = QueryService(indexed_env, indexes=True).execute(sql)
    off = QueryService(indexed_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert on.partitions_pruned > 0
    assert on.index_probes > 0
    assert on.entries_scanned < off.entries_scanned


def test_repeatable_read_locks_only_index_candidates(indexed_env):
    sql = 'SELECT key FROM "metrics" WHERE value = 7'
    locks = indexed_env.store.locks
    before = locks.acquisitions
    QueryService(indexed_env, repeatable_read=True,
                 indexes=True).execute(sql)
    acquired = locks.acquisitions - before
    assert acquired == KEYS // 50  # candidates, not the whole table


def test_counters_roll_up_into_cluster_report(indexed_env):
    service = QueryService(indexed_env, indexes=True)
    service.execute('SELECT key FROM "metrics" WHERE value = 7')
    assert service.totals["index_probes"] > 0
    assert service.totals["index_rows_read"] == KEYS // 50
    assert service.totals["rows_skipped_by_index"] == KEYS - KEYS // 50
    report = collect_report(indexed_env)
    assert report.index_probes == service.totals["index_probes"]
    assert report.index_rows_read == service.totals["index_rows_read"]
    assert report.rows_skipped_by_index == \
        service.totals["rows_skipped_by_index"]
    # Write-path maintenance billed: 1000 puts x 2 indexes (+ builds).
    assert report.index_maintenance_ops >= 2 * KEYS
    assert report.index_maintenance_cost > 0
    rendered = format_report(report)
    assert "indexes:" in rendered
    assert "maintenance ops" in rendered


def test_explain_shows_chosen_access_path(indexed_env):
    service = QueryService(indexed_env, indexes=True)
    plan = service.explain(
        'SELECT key FROM "metrics" WHERE value = 7'
    )
    assert "access path [metrics]: index probe on 'value'" in plan
    ranged = service.explain(
        'SELECT key FROM "metrics" WHERE label LIKE \'item-07%\''
    )
    assert "access path [metrics]: index range on 'label'" in ranged
    full = service.explain(
        'SELECT COUNT(*) AS n FROM "metrics" WHERE weight = 2'
    )
    assert "access path [metrics]: full scan" in full
    disabled = QueryService(indexed_env, indexes=False).explain(
        'SELECT key FROM "metrics" WHERE value = 7'
    )
    assert "full scan (indexes disabled)" in disabled


def test_cost_model_flag_controls_default(indexed_env):
    assert QueryService(indexed_env).index_enabled is True
    assert QueryService(indexed_env,
                        indexes=False).index_enabled is False


# -- snapshot tables ---------------------------------------------------------


@pytest.fixture
def snapshot_env(env):
    backend = make_squery_backend(
        env, indexes=(IndexSpec("average", "total", "hash"),)
    )
    # Enough keys that a selective probe beats scanning a snapshot
    # instance (the per-partition probe cost is fixed).
    job = build_average_job(env, backend=backend, rate=2000, keys=200,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(2_250)
    return env


def test_declared_index_reaches_both_table_families(snapshot_env):
    live = snapshot_env.store.get_live_table("average")
    snap = snapshot_env.store.get_snapshot_table("snapshot_average")
    assert live.index_columns() == {"total": "hash"}
    ssid = snapshot_env.store.committed_ssid
    assert ssid is not None
    assert snap.index_columns(ssid) == {"total": "hash"}
    assert snap.ready("index", ssid)


def test_snapshot_index_scan_identical_and_cheaper(snapshot_env):
    probe_value = QueryService(snapshot_env).execute(
        'SELECT total FROM "snapshot_average" ORDER BY key LIMIT 1'
    ).result.rows[0]["total"]
    sql = (f'SELECT key, count, total FROM "snapshot_average" '
           f"WHERE total = {probe_value} ORDER BY key")
    on = QueryService(snapshot_env, indexes=True).execute(sql)
    off = QueryService(snapshot_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert on.result.rows  # the probed value exists
    assert on.index_probes > 0
    assert on.entries_scanned <= off.entries_scanned


def test_live_mirror_index_survives_job_writes(snapshot_env):
    # The job mutated "average" continuously; incremental maintenance
    # must have kept the live index coherent throughout.
    live = snapshot_env.store.get_live_table("average")
    assert live.coherence_errors("index") == []
    sql = 'SELECT key FROM "average" WHERE count > 0 ORDER BY key'
    on = QueryService(snapshot_env, indexes=True).execute(sql)
    off = QueryService(snapshot_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows


def test_explain_snapshot_without_commit_reports_fallback(env):
    backend = make_squery_backend(
        env, indexes=(IndexSpec("average", "total", "hash"),)
    )
    job = build_average_job(env, backend=backend, rate=500, keys=10,
                            checkpoint_interval_ms=10_000)
    job.start()
    env.run_until(200)  # before the first snapshot commits
    plan = QueryService(env, indexes=True).explain(
        'SELECT key FROM "snapshot_average" WHERE count = 1'
    )
    assert "full scan (no committed snapshot)" in plan


# -- NaN in an indexed column ------------------------------------------------

NAN_SQL = [
    'SELECT COUNT(*) AS n FROM "{}" WHERE score > 997.0',
    'SELECT COUNT(*) AS n FROM "{}" WHERE score BETWEEN 500 AND 503',
    'SELECT key FROM "{}" WHERE score <= 3.5 ORDER BY key',
    'SELECT COUNT(*) AS n FROM "{}" WHERE mirror = 250.0',
]


@pytest.fixture
def nan_env():
    """3,000 rows, a fifth of them NaN in ``score`` (sorted index) and
    its copy ``mirror`` (hash index), live and as committed snapshot 1.
    A NaN compares false with everything, so it has no place in a
    sorted run: unguarded, ``insort`` files later values on the wrong
    side of it and range probes miss rows a scan finds."""
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1,
                      partition_count=PARTITIONS)
    )
    rng = random.Random(3)
    rows = {}
    for key in range(3_000):
        score = (float("nan") if rng.random() < 0.2
                 else rng.randrange(0, 4_000) / 4.0)
        rows[key] = {"score": score, "mirror": score}
    imap = env.store.create_map("scores")
    env.store.register_live_table("scores", LiveStateTable(imap))
    for key, value in rows.items():
        imap.put(key, value)
    table = FullSnapshotTable("snapshot_scores", PARTITIONS,
                              lambda instance: instance % NODES)
    env.store.register_snapshot_table("snapshot_scores", table)
    for name in ("scores", "snapshot_scores"):
        env.store.create_index(name, "score", "sorted")
        env.store.create_index(name, "mirror", "hash")
    env.store.begin_snapshot(1)
    for instance in range(PARTITIONS):
        table.write_instance(1, instance, {
            key: value for key, value in rows.items()
            if table.partition_of_key(key) == instance
        })
    env.store.commit_snapshot(1)
    return env


@pytest.mark.parametrize("table", ["scores", "snapshot_scores"])
def test_nan_values_leave_index_on_equal_to_index_off(nan_env, table):
    on = QueryService(nan_env, indexes=True)
    off = QueryService(nan_env, indexes=False)
    for sql in NAN_SQL:
        sql = sql.format(table)
        assert on.execute(sql).result.rows == \
            off.execute(sql).result.rows, sql
    # Overwriting and deleting NaN rows goes through remove(), too.
    imap = nan_env.store.get_map("scores")
    for key in range(0, 3_000, 3):
        imap.put(key, {"score": float(key), "mirror": float("nan")})
    for key in range(1, 3_000, 7):
        imap.delete(key)
    for sql in NAN_SQL:
        sql = sql.format(table)
        assert on.execute(sql).result.rows == \
            off.execute(sql).result.rows, sql
    # A NaN indexed under itself is coherent: `nan != nan` must not be
    # read as "indexed under another value".
    live = nan_env.store.get_live_table("scores")
    assert live.coherence_errors("index") == []
    snap = nan_env.store.get_snapshot_table("snapshot_scores")
    assert snap.coherence_errors("index", 1) == []


# -- every snapshot backend ----------------------------------------------------

#: The snapshot backends, which store versions differently and read them
#: through one surface.
SNAPSHOT_BACKENDS = {
    "full": FullSnapshotTable,
    "chain": IncrementalSnapshotTable,
    "lsm": LsmSnapshotTable,
}
SNAPSHOT_KEYS = 4_000


@pytest.fixture
def backends_env():
    """Two committed versions of one state on each backend, with a hash
    index and an HLL sketch declared before the first write; the
    reconstructing backends store the second version as a delta."""
    env = Environment(ClusterConfig(nodes=2, processing_workers_per_node=1))
    tables = {}
    for name, backend in SNAPSHOT_BACKENDS.items():
        table = backend(f"snapshot_{name}", 8, lambda instance: instance % 2)
        env.store.register_snapshot_table(table.name, table)
        env.store.create_index(table.name, "value", "hash")
        env.store.create_sketch(table.name, "label", "hll")
        tables[name] = table
    first = {key: {"value": key % 50, "label": f"item-{key % 30:02d}"}
             for key in range(SNAPSHOT_KEYS)}
    changed = {key: {"value": (key + 1) % 50, "label": "changed"}
               for key in range(0, SNAPSHOT_KEYS, 3)}
    for ssid, delta in ((1, first), (2, changed)):
        env.store.begin_snapshot(ssid)
        for name, table in tables.items():
            entries = {**first, **changed} if (name == "full"
                                               and ssid == 2) else delta
            for instance in range(8):
                table.write_instance(ssid, instance, {
                    key: value for key, value in entries.items()
                    if table.partition_of_key(key) == instance
                })
        env.store.commit_snapshot(ssid)
    return env


def test_every_snapshot_backend_prunes_indexes_and_sketches(backends_env):
    service = QueryService(backends_env)
    central = QueryService(backends_env, pushdown=False)
    answers: dict[str, list] = {}
    for name in SNAPSHOT_BACKENDS:
        table = f"snapshot_{name}"
        ranged = f'SELECT key, value FROM "{table}" WHERE key < 3 ORDER BY key'
        probed = (f'SELECT key, label FROM "{table}" WHERE value = 7 '
                  "ORDER BY key")
        distinct = f'SELECT APPROX COUNT(DISTINCT label) AS d FROM "{table}"'

        pruned = service.execute(ranged)
        assert pruned.partitions_pruned > 0
        assert "(zone-map pruning on snapshots)" in service.explain(ranged)
        indexed = service.execute(probed)
        assert indexed.index_probes > 0
        assert f"access path [{table}]: index probe on 'value'" in \
            service.explain(probed)
        sketched = service.execute(distinct)
        assert sketched.approx_answered
        assert f"approx [{table}]: sketch hll('label')" in \
            service.explain(distinct)
        for sql, execution in ((ranged, pruned), (probed, indexed)):
            assert execution.result.rows == central.execute(sql).result.rows
        answers[name] = [pruned.result.rows, indexed.result.rows,
                         sketched.result.rows]
    assert answers["chain"] == answers["full"] == answers["lsm"]
    assert [row["key"] for row in answers["full"][0]] == [0, 1, 2]
