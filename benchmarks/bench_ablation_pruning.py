"""Ablation (DESIGN.md decision 3): incremental-chain pruning.

Pruning folds old deltas into a base snapshot, bounding the backward
walk a query must perform.  This ablation sweeps the chain-length bound
on the 100K-key delta workload and reports the reconstruction walk cost
(entries visited per full scan) and the number of compactions: small
bounds keep queries fast at the cost of frequent background compaction;
without pruning the walk cost grows several-fold.
"""

from repro.bench.harness import build_delta_job
from repro.bench.report import format_table

from .conftest import record_result

KEYS = 100_000
BOUNDS = (4, 8, 16, 1000)  # 1000 ~ "never prunes" within the run


def run_once(prune_chain_length: int):
    setup = build_delta_job(
        KEYS, 1.0, "chain", records_per_s=2500, block=32,
        prune_chain_length=prune_chain_length, randomized=True,
    )
    setup.job.start()
    setup.env.run_until(40_500)  # ~40 checkpoints
    table = setup.backend.snapshot_table("deltastate")
    ssid = setup.env.store.committed_ssid
    walk = sum(
        table.entries_on_node(node, ssid)
        for node in setup.env.cluster.surviving_node_ids()
    )
    rows = sum(
        table.row_count_on_node(node, ssid)
        for node in setup.env.cluster.surviving_node_ids()
    )
    return walk, rows, table.compactions, table.total_entries()


def run_ablation():
    rows = []
    data = {}
    for bound in BOUNDS:
        walk, live_rows, compactions, stored = run_once(bound)
        rows.append([
            bound if bound < 1000 else "none", walk,
            round(walk / max(1, live_rows), 2), compactions, stored,
        ])
        data[bound] = (walk, live_rows, compactions, stored)
    table = format_table(
        ["prune bound", "walk entries", "walk amplification",
         "compactions", "stored entries"],
        rows,
        title=("Ablation — incremental-chain pruning bound vs "
               "reconstruction walk cost (100K keys, 40 checkpoints)"),
    )
    return table, data


def test_ablation_pruning(benchmark):
    table, data = benchmark.pedantic(run_ablation, rounds=1,
                                     iterations=1)
    record_result("ablation_pruning", table)
    # Tighter bounds compact more often...
    assert data[4][2] > data[16][2] >= data[1000][2] == 0
    # ...and keep the reconstruction walk cheaper.
    assert data[4][0] < data[16][0] < data[1000][0]
    # Without pruning the walk cost is amplified several-fold over the
    # live row count.
    assert data[1000][0] > 2.5 * data[1000][1]
