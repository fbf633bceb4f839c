"""Ablation (§VI-B): chain-based vs LSM-based incremental snapshots.

The paper notes that its IMDG implementation's incremental-snapshot
queries are limited by the backward search through delta chains, and
that a RocksDB-style LSM backend — whose "level-based compaction bounds
read amplification" — "would reduce the search time for historic
changes per key".  This ablation measures exactly that: the Fig. 13
query-latency experiment at 100K keys, with the chain backend vs the
LSM policy of :mod:`repro.state.snapshots`.
"""

from repro.bench.harness import run_query_latency_experiment
from repro.bench.report import format_table, percentile_headers, \
    percentile_row

from .conftest import record_result

KEYS = 100_000
POINTS = (0.0, 50.0, 90.0, 99.0)


def run_ablation():
    rows = []
    medians = {}
    configs = (
        ("full (baseline)", "full"),
        ("incremental, chain", "chain"),
        ("incremental, LSM", "lsm"),
    )
    for label, backend in configs:
        result = run_query_latency_experiment(
            KEYS, backend, checkpoints=50, label=label,
        )
        summary = result.latency.summary(POINTS)
        rows.append(percentile_row(label, summary, POINTS)
                    + [result.queries])
        medians[label] = summary[50.0]
    table = format_table(
        ["config"] + percentile_headers(POINTS) + ["queries"],
        rows,
        title=("Ablation — incremental snapshot query latency (ms), "
               "chain vs LSM backend, 100K keys (§VI-B)"),
    )
    return table, medians


def test_ablation_lsm(benchmark):
    table, medians = benchmark.pedantic(run_ablation, rounds=1,
                                        iterations=1)
    record_result("ablation_lsm", table)
    chain = medians["incremental, chain"]
    lsm = medians["incremental, LSM"]
    full = medians["full (baseline)"]
    # The chain walk is the bottleneck the paper identified...
    assert chain > full * 2
    # ...and the LSM backend removes most of it (§VI-B's prediction).
    # 0.65, not the 0.6 of the seed: that was a ratio at scan rates
    # 2.7x the ones a scan is billed (27.6 / 45.6 = 0.61 now), where
    # the ~2.6 ms every query pays before its first chunk weighed less.
    assert lsm < chain * 0.65
    assert lsm < full * 2
