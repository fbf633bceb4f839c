"""Command-line interface for running S-QUERY experiments.

Usage::

    python -m repro overhead   --mode snap --rate 1000000
    python -m repro snapshot   --keys 100000 --mode snap --queries
    python -m repro delta      --keys 100000 --snapshot-backend chain
    python -m repro query-latency --keys 100000 --snapshot-backend lsm
    python -m repro direct     --system tspoon --select 10
    python -m repro scalability --nodes 3 --interval 1000

Each subcommand runs one configuration of a paper experiment through
:mod:`repro.bench.harness` and prints the measured series.  The full
figure reproductions (all series of a figure, with shape assertions)
live in ``benchmarks/`` and run under pytest.
"""

from __future__ import annotations

import argparse
import sys

from .bench.harness import (
    measure_max_throughput,
    paper_rate,
    run_delta_snapshot_experiment,
    run_direct_object_experiment,
    run_overhead_experiment,
    run_query_latency_experiment,
    run_snapshot_experiment,
    scaled_cluster,
)
from .bench.latency import PAPER_PERCENTILES
from .bench.report import format_series
from .config import SNAPSHOT_BACKENDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S-QUERY reproduction experiments (ICDE 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    overhead = sub.add_parser(
        "overhead", help="source-sink latency (Figs. 8-9)"
    )
    overhead.add_argument("--mode", default="snap",
                          choices=["live+snap", "live", "snap", "jet"])
    overhead.add_argument("--rate", type=float, default=1_000_000,
                          help="paper-equivalent events/s")
    overhead.add_argument("--measure-ms", type=float, default=2000)

    snapshot = sub.add_parser(
        "snapshot", help="snapshot 2PC latency (Figs. 10-11)"
    )
    snapshot.add_argument("--keys", type=int, default=10_000)
    snapshot.add_argument("--mode", default="snap",
                          choices=["snap", "jet"])
    snapshot.add_argument("--queries", action="store_true",
                          help="run 2 concurrent Query-1 threads")
    snapshot.add_argument("--checkpoints", type=int, default=20)

    delta = sub.add_parser(
        "delta", help="incremental vs full snapshot cost (Fig. 12)"
    )
    delta.add_argument("--keys", type=int, default=100_000)
    delta.add_argument("--fraction", type=float, default=0.1)
    delta.add_argument("--snapshot-backend", default="full",
                       choices=SNAPSHOT_BACKENDS)
    delta.add_argument("--checkpoints", type=int, default=20)

    qlat = sub.add_parser(
        "query-latency", help="SQL query latency (Fig. 13)"
    )
    qlat.add_argument("--keys", type=int, default=10_000)
    qlat.add_argument("--snapshot-backend", default="full",
                      choices=SNAPSHOT_BACKENDS)
    qlat.add_argument("--checkpoints", type=int, default=40)

    direct = sub.add_parser(
        "direct", help="direct-object throughput (Fig. 14)"
    )
    direct.add_argument("--system", default="squery",
                        choices=["squery", "tspoon"])
    direct.add_argument("--select", type=int, default=1,
                        help="keys selected per query")
    direct.add_argument("--measure-ms", type=float, default=600)

    scal = sub.add_parser(
        "scalability", help="max sustainable throughput (Fig. 15)"
    )
    scal.add_argument("--nodes", type=int, default=3)
    scal.add_argument("--interval", type=float, default=1000,
                      help="snapshot interval in ms")

    return parser


def _print_latency(label: str, recorder) -> None:
    print(format_series(label, recorder.summary(PAPER_PERCENTILES)))


def cmd_overhead(args) -> int:
    result = run_overhead_experiment(args.mode, args.rate,
                                     measure_ms=args.measure_ms)
    print(f"NEXMark q6, {args.mode} @ {args.rate:g} ev/s "
          f"(paper-equivalent), {result.sink_records} samples, "
          f"{result.checkpoints} checkpoints")
    _print_latency("source-sink latency", result.latency)
    return 0


def cmd_snapshot(args) -> int:
    result = run_snapshot_experiment(
        args.keys, mode=args.mode, with_queries=args.queries,
        checkpoints=args.checkpoints,
    )
    print(f"snapshot 2PC, {args.mode}, {args.keys} keys"
          f"{', with queries' if args.queries else ''} "
          f"({result.checkpoints} checkpoints)")
    _print_latency("phase 1", result.phase1)
    _print_latency("phase 1+2", result.total)
    if args.queries:
        print(f"concurrent queries completed: "
              f"{result.query_latencies.count}")
    return 0


def cmd_delta(args) -> int:
    result = run_delta_snapshot_experiment(
        args.keys, args.fraction, args.snapshot_backend,
        checkpoints=args.checkpoints,
    )
    print(f"{result.label}, {args.keys} keys "
          f"({result.checkpoints} checkpoints)")
    _print_latency("2PC latency", result.total)
    return 0


def cmd_query_latency(args) -> int:
    result = run_query_latency_experiment(
        args.keys, args.snapshot_backend, checkpoints=args.checkpoints,
    )
    print(f"{result.label}: {result.queries} queries")
    _print_latency("query latency", result.latency)
    return 0


def cmd_direct(args) -> int:
    result = run_direct_object_experiment(
        args.system, args.select, measure_ms=args.measure_ms,
    )
    print(f"{args.system}, {args.select} key(s)/query: "
          f"{result.throughput_per_s:,.0f} q/s "
          f"({result.queries} completions)")
    return 0


def cmd_scalability(args) -> int:
    sustained = measure_max_throughput(args.nodes, args.interval)
    config = scaled_cluster(args.nodes, 1)
    equivalent = paper_rate(sustained, config)
    dop = args.nodes * 12
    print(f"DOP {dop} (= {args.nodes} nodes), "
          f"{args.interval / 1000:g}s snapshot interval: "
          f"max {equivalent / 1e6:.2f}M ev/s paper-equivalent "
          f"({equivalent / dop / 1e3:.0f}k ev/s per DOP)")
    return 0


COMMANDS = {
    "overhead": cmd_overhead,
    "snapshot": cmd_snapshot,
    "delta": cmd_delta,
    "query-latency": cmd_query_latency,
    "direct": cmd_direct,
    "scalability": cmd_scalability,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
