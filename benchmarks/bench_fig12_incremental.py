"""Figure 12: snapshot 2PC latency of incremental vs full snapshots at
1%/10%/100% delta ratios (100K unique keys, 7 nodes).

Paper shape: incremental wins clearly at modest delta ratios, but at
100% delta the per-entry housekeeping makes it *more* expensive than a
full snapshot.
"""

from repro.bench.harness import run_delta_snapshot_experiment
from repro.bench.report import format_table, percentile_headers, \
    percentile_row

from .conftest import record_result

KEYS = 100_000
DELTAS = (0.01, 0.1, 1.0)
POINTS = (0.0, 50.0, 90.0, 99.0)


def run_figure12():
    rows = []
    medians = {}
    for fraction in DELTAS:
        result = run_delta_snapshot_experiment(
            KEYS, fraction, "chain", checkpoints=25,
            label=f"{fraction:.0%} delta",
        )
        summary = result.total.summary(POINTS)
        rows.append(percentile_row(result.label, summary, POINTS))
        medians[fraction] = summary[50.0]
    full = run_delta_snapshot_experiment(
        KEYS, 1.0, "full", checkpoints=25,
        label="Full snapshot",
    )
    summary = full.total.summary(POINTS)
    rows.append(percentile_row(full.label, summary, POINTS))
    medians["full"] = summary[50.0]
    table = format_table(
        ["config"] + percentile_headers(POINTS),
        rows,
        title=("Fig 12 — snapshot 2PC latency (ms), incremental vs full "
               "snapshots, 100K keys, varying delta ratio"),
    )
    return table, medians


def test_fig12_incremental(benchmark):
    table, medians = benchmark.pedantic(run_figure12, rounds=1,
                                        iterations=1)
    record_result("fig12_incremental", table)
    # Small deltas are much cheaper than a full snapshot...
    assert medians[0.01] < medians["full"] * 0.4
    assert medians[0.1] < medians["full"] * 0.7
    # ...but a 100% delta costs more than a full copy (housekeeping).
    assert medians[1.0] > medians["full"]
    # And incremental cost is monotone in the delta ratio.
    assert medians[0.01] < medians[0.1] < medians[1.0]
