"""Distributed pushdown ablation: shipped bytes and latency, on vs off.

Four query shapes over a 5-node cluster, each run with the distributed
plan enabled (predicate/projection pushdown, scan-side partial
aggregation and top-k) and disabled (ship every raw row to the entry
node):

- **selective scan** — a ~1%-selectivity ``WHERE`` over wide rows; the
  pushed predicate drops 99% of rows on the scanning nodes.
- **wide projection** — one referenced column out of ten; only that
  column (plus row identity) ships.
- **group by** — a two-aggregate ``GROUP BY`` collapsing 20K rows into
  seven groups; each node ships one fixed-width state per group.
- **top-k** — ``ORDER BY ... DESC LIMIT 20`` over all 20K rows; each
  node ships its own first 20 and the entry node sorts 100 rows.

Values are integers so partial-aggregate merge order cannot introduce
float rounding: results must be identical on and off, byte for byte.
"""

from repro.bench.report import format_table
from repro.config import ClusterConfig
from repro.env import Environment
from repro.query.service import QueryService
from repro.state.live import LiveStateTable

try:
    from .conftest import record_result
except ImportError:  # direct execution: python -m benchmarks.bench_pushdown
    from conftest import record_result  # type: ignore

NODES = 5
KEYS = 20_000

SCENARIOS = (
    ("selective scan",
     'SELECT key, value FROM "metrics" WHERE value < 2'),
    ("wide projection",
     'SELECT value FROM "metrics" WHERE key >= 0'),
    ("group by",
     'SELECT weight, SUM(value) AS s, COUNT(*) AS c FROM "metrics" '
     'GROUP BY weight ORDER BY weight'),
    ("top-k",
     'SELECT key, pad2 FROM "metrics" ORDER BY pad2 DESC LIMIT 20'),
)


def build_env():
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(KEYS):
        imap.put(key, {
            "value": key % 100,
            "weight": key % 7,
            "pad1": key, "pad2": key * 2, "pad3": key * 3,
            "pad4": key * 5, "pad5": key * 7, "pad6": key * 11,
            "pad7": key * 13, "pad8": key * 17,
        })
    return env


def run_bench():
    rows = []
    metrics = {}
    for label, sql in SCENARIOS:
        runs = {}
        for pushdown in (True, False):
            env = build_env()
            service = QueryService(env, pushdown=pushdown)
            runs[pushdown] = service.execute(sql)
        on, off = runs[True], runs[False]
        assert on.result.columns == off.result.columns, label
        assert on.result.rows == off.result.rows, label
        ratio = off.bytes_shipped / max(on.bytes_shipped, 1)
        rows.append([
            label,
            f"{on.bytes_shipped:,}", f"{off.bytes_shipped:,}",
            f"{ratio:.1f}x",
            on.rows_shipped, off.rows_shipped,
            f"{on.latency_ms:.2f}", f"{off.latency_ms:.2f}",
        ])
        metrics[label] = {
            "bytes_ratio": ratio,
            "rows_on": on.rows_shipped,
            "latency_on": on.latency_ms,
            "latency_off": off.latency_ms,
        }
    table = format_table(
        ["scenario", "bytes (on)", "bytes (off)", "reduction",
         "rows (on)", "rows (off)", "latency on ms", "latency off ms"],
        rows,
        title=(f"Distributed pushdown ablation — {KEYS:,} rows, "
               f"{NODES} nodes (on = pushdown, off = ship-all)"),
    )
    return table, metrics


def check(metrics) -> None:
    # The selective WHERE must cut shipped bytes at least 5x...
    assert metrics["selective scan"]["bytes_ratio"] >= 5.0, metrics
    # ...projection alone still wins on wide rows (the baseline bills a
    # flat row_bytes per row, which bounds the visible gap)...
    assert metrics["wide projection"]["bytes_ratio"] >= 1.5, metrics
    # ...and partial aggregation makes the GROUP BY strictly faster.
    group = metrics["group by"]
    assert group["bytes_ratio"] >= 5.0, metrics
    assert group["latency_on"] < group["latency_off"], metrics
    # A pushed ORDER BY / LIMIT ships k rows per node, not the table.
    top_k = metrics["top-k"]
    assert top_k["bytes_ratio"] >= 100.0, metrics
    assert top_k["rows_on"] <= NODES * 20, metrics
    assert top_k["latency_on"] < top_k["latency_off"], metrics


def test_bench_pushdown(benchmark):
    table, metrics = benchmark.pedantic(run_bench, rounds=1,
                                        iterations=1)
    record_result("pushdown", table)
    check(metrics)


if __name__ == "__main__":
    bench_table, bench_metrics = run_bench()
    record_result("pushdown", bench_table)
    check(bench_metrics)
    print("pushdown ablation OK")
