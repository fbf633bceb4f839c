"""``python -m repro.analysis`` — the lint CLI and the sanitizer smoke.

Usage::

    python -m repro.analysis lint                  # whole repo, baseline
    python -m repro.analysis lint --rule determinism
    python -m repro.analysis lint --path src/repro/query
    python -m repro.analysis lint --write-baseline
    python -m repro.analysis smoke                 # sanitized chaos run

``lint`` exits 1 when any non-baselined violation remains; ``smoke``
runs a chaos workload with every runtime sanitizer enabled (fail-fast)
and exits 1 on any detected invariant violation.  Both are wired into
CI as the blocking ``analysis`` job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .lint import (
    filter_baselined,
    lint_paths,
    load_baseline,
    write_baseline,
)
from .rules import rule_names, rules_by_name

#: Default scan roots, relative to the repository root.
DEFAULT_SCAN_PATHS = ("src/repro", "tests", "benchmarks", "examples")
DEFAULT_BASELINE = "analysis-baseline.txt"


def repo_root(start: Path | None = None) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` (fallback: cwd)."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return current


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="invariant lint suite and runtime sanitizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the AST invariant lints")
    lint.add_argument(
        "--rule", action="append", default=None, choices=rule_names(),
        help="run only this rule (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule names to run (merged with --rule)",
    )
    lint.add_argument(
        "--path", action="append", default=None,
        help="file or directory to scan (repeatable; default: "
             + ", ".join(DEFAULT_SCAN_PATHS) + ")",
    )
    lint.add_argument(
        "--baseline", default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} at repo root)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every violation, ignoring the baseline",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current violations as the new baseline",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON output (for CI annotations)",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="rebuild the whole-program model even when a cached "
             "build matches the source digests",
    )

    smoke = sub.add_parser(
        "smoke",
        help="chaos workload under fail-fast runtime sanitizers",
    )
    smoke.add_argument("--horizon-ms", type=float, default=6_000.0)
    smoke.add_argument("--seed", type=int, default=29)
    return parser


def _selected_rule_names(args) -> list[str] | None:
    """Merge ``--rule`` (repeatable) and ``--rules a,b,c``."""
    names = list(args.rule or [])
    if args.rules:
        names.extend(
            part.strip() for part in args.rules.split(",")
            if part.strip()
        )
    return names or None


def cmd_lint(args) -> int:
    root = repo_root()
    if args.path:
        paths = [Path(p) for p in args.path]
    else:
        paths = [root / p for p in DEFAULT_SCAN_PATHS
                 if (root / p).exists()]
    try:
        rules = rules_by_name(_selected_rule_names(args))
    except ValueError as exc:
        print(f"repro.analysis lint: {exc}", file=sys.stderr)
        return 2
    timings: dict[str, float] = {}
    cache_dir = None if args.no_cache else root / ".analysis-cache"
    violations = lint_paths(paths, rules, timings=timings,
                            cache_dir=cache_dir)
    baseline_path = Path(args.baseline) if args.baseline \
        else root / DEFAULT_BASELINE
    if args.write_baseline:
        write_baseline(baseline_path, violations)
        print(f"wrote {len(violations)} baseline entr"
              f"{'y' if len(violations) == 1 else 'ies'} to "
              f"{baseline_path}")
        return 0
    suppressed = 0
    if not args.no_baseline:
        violations, suppressed = filter_baselined(
            violations, load_baseline(baseline_path)
        )
    scanned = ", ".join(str(p) for p in paths)
    if args.json:
        print(json.dumps({
            "violations": [
                {"rule": v.rule, "path": v.path, "line": v.line,
                 "message": v.message}
                for v in violations
            ],
            "baselined": suppressed,
            "rules": [rule.name for rule in rules],
            "scanned": [str(p) for p in paths],
            "timings_ms": {name: round(ms, 3)
                           for name, ms in sorted(timings.items())},
        }, indent=2))
        return 1 if violations else 0
    for violation in violations:
        print(violation.format())
    summary = (f"{len(violations)} violation"
               f"{'' if len(violations) == 1 else 's'}")
    if suppressed:
        summary += f" ({suppressed} baselined)"
    print(f"repro.analysis lint: {summary} in {scanned}")
    if timings:
        spent = " ".join(f"{name}={ms:.0f}ms"
                         for name, ms in sorted(timings.items()))
        print(f"rule wall time: {spent}")
    return 1 if violations else 0


def cmd_smoke(args) -> int:
    """A chaos-harness run with every sanitizer armed.

    Builds a small streaming job plus live/snapshot queries, kills and
    restarts nodes while queries are in flight, and lets the fail-fast
    sanitizers scream if any invariant (snapshot immutability, lock
    hygiene, billing classification, dead-node scheduling) is broken.
    """
    from ..chaos import ChaosHarness
    from ..config import ClusterConfig, SanitizerConfig
    from ..env import Environment
    from ..errors import NoCommittedSnapshotError, QueryAbortedError
    from ..observability import collect_report
    from ..query.service import QueryService

    env = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2),
        sanitizers=SanitizerConfig(
            enabled=True, snapshot_fingerprints=True, fail_fast=True,
        ),
    )
    job = _smoke_job(env)
    job.start()
    service = QueryService(env, repeatable_read=True)
    chaos = ChaosHarness(env, seed=args.seed)
    chaos.schedule_kill(1_200.0, node_id=1)
    chaos.schedule_restart(3_200.0, node_id=1)
    chaos.plan_random(horizon_ms=args.horizon_ms * 0.8, kills=1,
                      restart_after_ms=500.0)

    completed = {"ok": 0, "aborted": 0}

    def on_done(execution) -> None:
        if execution.error is None:
            completed["ok"] += 1
        elif isinstance(execution.error,
                        (QueryAbortedError, NoCommittedSnapshotError)):
            completed["aborted"] += 1
        else:
            raise execution.error

    def pump(round_no: int = 0) -> None:
        if env.now >= args.horizon_ms - 500.0:
            return
        service.submit("SELECT * FROM average", on_done=on_done)
        service.submit(
            "SELECT COUNT(*) AS n FROM snapshot_average",
            on_done=on_done,
        )
        env.sim.schedule(180.0, pump, round_no + 1)

    env.sim.schedule(1_000.0, pump)
    env.run_until(args.horizon_ms)
    runtime = env.sanitizers
    runtime.verify()
    report = collect_report(env)
    print(chaos.describe())
    print(f"queries: {completed['ok']} completed, "
          f"{completed['aborted']} aborted cleanly; "
          f"retries={report.query_retries}, "
          f"locks held={report.locks_held}, "
          f"sanitizer violations={len(runtime.violations)}")
    print(f"lockdep: {report.lock_order_edges_observed} lock-order "
          f"edges observed, {report.lockdep_violations} inversions")
    if runtime.violations:
        for violation in runtime.violations:
            print(f"  {violation.kind}: {violation.message}")
        return 1
    print("sanitizer smoke: all invariants held")
    return 0


def _smoke_job(env):
    """source -> keyed average -> sink, S-QUERY state enabled."""
    from ..config import JobConfig, SQueryConfig
    from ..dataflow import (
        Job,
        KeyedAggregateOperator,
        Pipeline,
        SinkOperator,
    )
    from ..dataflow.sources import CallableSource
    from ..state.manager import SQueryBackend

    def gen(instance, seq):
        return (instance * 31 + seq) % 24, float(seq % 10)

    pipeline = Pipeline()
    pipeline.add_source("nums", CallableSource(gen, 1_500.0))
    pipeline.add_operator(
        "average",
        lambda: KeyedAggregateOperator(
            lambda s, v: (v if s is None else s + v), lambda k, s: s
        ),
    )
    pipeline.add_operator("sink", SinkOperator)
    pipeline.connect("nums", "average")
    pipeline.connect("average", "sink")
    backend = SQueryBackend(env.cluster, env.store, SQueryConfig())
    return Job(env, pipeline, JobConfig(checkpoint_interval_ms=800.0),
               backend)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return cmd_lint(args)
    return cmd_smoke(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
