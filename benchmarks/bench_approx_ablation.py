"""APPROX ablation: accuracy vs cost, sketch vs index vs exact scan.

Two views over a 5-node cluster:

1. **Growth curve** — the point-frequency query (``COUNT(*) WHERE
   value = 7``) as state grows 20k → 200k rows, answered three ways:
   exact full scan, exact hash-index probe, and the count-min sketch.
   Scan latency grows with the state, the index probe grows with the
   matching rows, the sketch answer stays O(partitions).
2. **Accuracy table** — all four aggregate shapes at the largest size,
   sketch vs exact: point frequency (count-min, one-sided), distinct
   labels (HyperLogLog), ``SUM``/``AVG`` (per-partition reservoirs
   with CLT intervals).  Sketches are maintained in every run — the
   ablation isolates the read path.

The acceptance gate: at the largest size the sketch path must cut
simulated latency by at least 5x versus the exact scan (``check`` says
why not 10x) while keeping relative error in the single digits (and
inside the reported bound).
"""

from repro.bench.report import format_table
from repro.config import ClusterConfig
from repro.env import Environment
from repro.query.service import QueryService
from repro.state.live import LiveStateTable

try:
    from .conftest import record_result
except ImportError:  # direct execution
    from conftest import record_result  # type: ignore

NODES = 5
#: Large enough at the top end that the exact scan dwarfs the fixed
#: per-partition probe cost (the sketch answer is O(partitions), the
#: scan O(rows)) and that per-partition reservoirs genuinely sample
#: (~740 rows per partition vs 512 slots).
SIZES = (20_000, 100_000, 200_000)

POINT_APPROX = 'SELECT APPROX COUNT(*) AS n FROM "metrics" WHERE value = 7'
POINT_EXACT = 'SELECT COUNT(*) AS n FROM "metrics" WHERE value = 7'

SCENARIOS = (
    ("point frequency", POINT_APPROX, POINT_EXACT, "n"),
    ("distinct labels",
     'SELECT APPROX COUNT(DISTINCT label) AS d FROM "metrics"',
     'SELECT COUNT(DISTINCT label) AS d FROM "metrics"', "d"),
    ("sum",
     'SELECT APPROX SUM(weight) AS s FROM "metrics"',
     'SELECT SUM(weight) AS s FROM "metrics"', "s"),
    ("mean",
     'SELECT APPROX AVG(weight) AS a FROM "metrics"',
     'SELECT AVG(weight) AS a FROM "metrics"', "a"),
)


def build_env(keys):
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(keys):
        imap.put(key, {
            "value": key % 200,
            "weight": float(key % 97),
            "label": f"item-{key % 100:03d}",
            "pad1": key, "pad2": key * 2, "pad3": key * 3,
        })
    env.store.create_index("metrics", "value", "hash")
    env.store.create_sketch("metrics", "value", "countmin")
    env.store.create_sketch("metrics", "label", "hll")
    env.store.create_sketch("metrics", "weight", "reservoir")
    return env


def run_bench():
    # Part 1: the growth curve for the point-frequency query.
    curve_rows = []
    curve = {}
    top_env = None
    for keys in SIZES:
        env = build_env(keys)
        # One service per read path — with the hash index in play the
        # chooser would (correctly) price the sketch out on this probe
        # at these sizes, so each strategy is isolated like the index
        # ablation isolates index reads.
        scan = QueryService(env, indexes=False,
                            sketches=False).execute(POINT_EXACT)
        index = QueryService(env, indexes=True,
                             sketches=False).execute(POINT_EXACT)
        sketch = QueryService(env, indexes=False,
                              sketches=True).execute(POINT_APPROX)
        assert sketch.approx_answered, keys
        assert index.index_probes > 0, keys
        truth = scan.result.rows[0]["n"]
        estimate = sketch.result.rows[0]["n"]
        curve_rows.append([
            f"{keys:,}", f"{truth:,}",
            f"{scan.latency_ms:.2f}", f"{index.latency_ms:.2f}",
            f"{sketch.latency_ms:.2f}",
            f"{abs(estimate - truth) / max(truth, 1) * 100:.2f}%",
        ])
        curve[keys] = {
            "scan_ms": scan.latency_ms,
            "index_ms": index.latency_ms,
            "sketch_ms": sketch.latency_ms,
        }
        top_env = env
    curve_table = format_table(
        ["rows", "matches", "scan ms", "index ms", "sketch ms",
         "sketch error"],
        curve_rows,
        title=(f"COUNT(*) WHERE value = 7 as state grows — {NODES} "
               "nodes (exact scan vs hash-index probe vs count-min)"),
    )

    # Part 2: accuracy of every sketch kind at the largest size.
    rows = []
    metrics = {}
    for label, approx_sql, exact_sql, column in SCENARIOS:
        approx = QueryService(top_env, indexes=False,
                              sketches=True).execute(approx_sql)
        exact = QueryService(top_env, indexes=False,
                             sketches=False).execute(exact_sql)
        assert approx.approx_answered, label
        row = approx.result.rows[0]
        estimate, bound = row[column], row["error_bound"]
        truth = exact.result.rows[0][column]
        error_pct = abs(estimate - truth) / max(abs(truth), 1e-9) * 100
        speedup = exact.latency_ms / max(approx.latency_ms, 1e-9)
        rows.append([
            label,
            f"{estimate:,.1f}", f"{truth:,.1f}",
            f"{error_pct:.2f}%", f"{bound:,.1f}",
            approx.sketch_probes,
            f"{approx.latency_ms:.2f}", f"{exact.latency_ms:.2f}",
            f"{speedup:.0f}x",
        ])
        metrics[label] = {
            "estimate": estimate,
            "truth": truth,
            "bound": bound,
            "error_pct": error_pct,
            "probes": approx.sketch_probes,
            "latency_approx": approx.latency_ms,
            "latency_exact": exact.latency_ms,
            "speedup": speedup,
        }
    table = format_table(
        ["scenario", "estimate", "exact", "error", "bound",
         "probes", "approx ms", "exact ms", "speedup"],
        rows,
        title=(f"APPROX ablation — {SIZES[-1]:,} rows, {NODES} nodes "
               "(sketch answer vs exact distributed scan)"),
    )
    return f"{curve_table}\n\n{table}", {"curve": curve,
                                        "scenarios": metrics}


def check(results) -> None:
    curve, metrics = results["curve"], results["scenarios"]
    small, large = curve[SIZES[0]], curve[SIZES[-1]]
    # The scan pays for state growth; the sketch answer must not (its
    # cost is O(partitions), fixed by the cluster config).
    assert large["scan_ms"] > 2 * small["scan_ms"], curve
    assert large["sketch_ms"] < 1.5 * small["sketch_ms"], curve
    # Both sublinear paths beat the scan outright at the top size.
    # (The hash index stays competitive with the sketch on this point
    # probe — it is also O(partitions) — which is exactly why the cost
    # chooser prices them against each other; the sketch's outright
    # wins are the aggregations below that no index can answer.)
    # 5x, not the 10x this asserted when it was written: that was a
    # ratio against the interpreted scan rates (0.001 ms per entry),
    # which nothing bills any more.  At the one set of rates (0.00035)
    # the 200k-row scan is 15.8 ms against the sketch's 2.6 — 6.1x —
    # and since the sketch's cost is fixed (1.2 ms of planning, 1.1 ms
    # of probes) the ratio grows linearly with the state: 10x arrives
    # near 330k rows.
    assert large["sketch_ms"] < large["scan_ms"] / 5, curve
    assert large["index_ms"] < large["scan_ms"] / 5, curve
    for label, run in metrics.items():
        # The sketch path must actually engage...
        assert run["probes"] > 0, (label, metrics)
        # ...honour its reported bound (count-min is also one-sided,
        # which the property suite checks; here the two-sided envelope
        # suffices for every kind)...
        slack = 1e-9 * max(abs(run["truth"]), 1.0)
        assert abs(run["estimate"] - run["truth"]) <= \
            run["bound"] + slack, (label, metrics)
        # ...and hit the headline trade-off at this size (see above):
        # >= 5x cheaper in simulated time at single-digit-percent error.
        assert run["speedup"] >= 5.0, (label, metrics)
        assert run["error_pct"] < 10.0, (label, metrics)


def test_bench_approx_ablation(benchmark):
    table, results = benchmark.pedantic(run_bench, rounds=1,
                                        iterations=1)
    record_result("approx_ablation", table)
    check(results)


if __name__ == "__main__":
    bench_table, bench_results = run_bench()
    record_result("approx_ablation", bench_table)
    check(bench_results)
    print("approx ablation OK")
