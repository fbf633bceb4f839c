"""Figure 13: SQL query latency on incremental vs full snapshots for
1K/10K/100K unique keys (two closed-loop query threads).

Paper shape: latency grows with state size; incremental is virtually
identical to full at 1K and 10K (the newest deltas cover the whole key
space, so the backward walk stops immediately) but several times slower
at 100K, where sparse deltas force a deep chain walk.
"""

from repro.bench.harness import run_query_latency_experiment
from repro.bench.report import format_table, percentile_headers, \
    percentile_row

from .conftest import record_result

KEY_COUNTS = (1_000, 10_000, 100_000)
POINTS = (0.0, 50.0, 90.0, 99.0)


def run_figure13():
    rows = []
    medians = {}
    for incremental in (True, False):
        for keys in KEY_COUNTS:
            result = run_query_latency_experiment(
                keys, "chain" if incremental else "full", checkpoints=50,
            )
            summary = result.latency.summary(POINTS)
            label = "Incremental" if incremental else "Full"
            rows.append(percentile_row(
                f"{label} {keys // 1000}k", summary, POINTS,
            ) + [result.queries])
            medians[(incremental, keys)] = summary[50.0]
    table = format_table(
        ["config"] + percentile_headers(POINTS) + ["queries"],
        rows,
        title=("Fig 13 — SQL query latency (ms), incremental vs full "
               "snapshots, 1K/10K/100K keys, 7 nodes"),
    )
    return table, medians


def test_fig13_query_latency(benchmark):
    table, medians = benchmark.pedantic(run_figure13, rounds=1,
                                        iterations=1)
    record_result("fig13_query_latency", table)
    # Latency grows with state size.
    for incremental in (True, False):
        series = [medians[(incremental, k)] for k in KEY_COUNTS]
        assert series == sorted(series)
    # Near-identical at 1K and 10K...
    assert medians[(True, 1_000)] < medians[(False, 1_000)] * 1.15
    assert medians[(True, 10_000)] < medians[(False, 10_000)] * 1.35
    # ...but several times slower at 100K (the paper reports ~5x).
    ratio = medians[(True, 100_000)] / medians[(False, 100_000)]
    assert ratio > 2.0
