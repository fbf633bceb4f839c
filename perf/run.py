"""Run the benchmark.

One workload, as the driver calls it (prints the result object as the
last line of standard output)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in a fresh subprocess, with a table of all metrics
(``--trace 1`` adds the traced pass; ``--out`` keeps the results for
``perf/compare.py``)::

    python3 perf/run.py [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _bootstrap_path() -> None:
    """Make ``perf`` and ``repro`` importable from a bare checkout.

    Run as a script, ``sys.path[0]`` is ``perf/`` itself, which would
    shadow stdlib modules (``trace``); it is replaced by the root.
    """
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [entry for entry in sys.path if entry != here]
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def pin_to_one_core() -> None:
    """Stay on one core (the last allowed one) when the OS lets us."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass


def build_record(name: str, seed: int, result) -> dict:
    """Everything one measured run reports, as a JSON-ready dict."""
    from perf import harness, probes
    from perf.metrics import CONTRACT_PER_LAYER, END_TO_END, LAYER_METRIC

    traced = result.tracer is not None
    attempted = sum(r.ops for r in result.rounds) + result.finish_checks
    failed = sum(r.failed for r in result.rounds) + result.finish_failed
    record = {
        "workload": name,
        "loop": result.workload.loop,
        "seed": seed,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted if attempted else 1.0,
        "virt_digest": harness.virt_digest(result),
    }
    if not traced:
        measured = harness.end_to_end(result)
        record["detail"] = measured.pop("detail")
        record["metrics"] = {
            metric: {"value": measured[metric], "unit": unit}
            for metric, (unit, _, _) in END_TO_END.items()
        }
        return record
    probed, absent = probes.run_all(result.workload, result.tracer)
    layers = harness.per_layer(
        result, probed, probes.span_metrics(result, probed))
    record["absent_probes"] = absent
    record["spans"] = result.tracer.by_name()
    record["layer_shares"] = result.layer_shares
    record["all_metrics"] = {
        metric: {"value": value, "unit": LAYER_METRIC[metric].unit,
                 "source": LAYER_METRIC[metric].source}
        for metric, value in layers.items()
    }
    record["metrics"] = {
        metric: {"value": layers[metric], "unit": LAYER_METRIC[metric].unit}
        for metric in CONTRACT_PER_LAYER
    }
    return record


def print_metrics(record: dict) -> None:
    shown = record.get("all_metrics", record["metrics"])
    for metric, cell in shown.items():
        value = cell["value"]
        text = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<52} {text:>14} {cell['unit']:<6}"
              f"{cell.get('source', '')}")
    for key in ("virt_digest", "failed_ops_share", "detail",
                "absent_probes", "layer_shares"):
        if key in record:
            print(f"  {key:<52} {record[key]}")


def run_one(args) -> int:
    from perf import harness
    from perf.workloads import WORKLOADS

    pin_to_one_core()
    cls = WORKLOADS[args.workload]
    result = harness.run(lambda: cls(args.seed), args.seconds,
                         traced=bool(args.trace))
    record = build_record(args.workload, args.seed, result)
    if result.tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        result.tracer.dump(OUT_DIR / f"trace-{args.workload}.json")
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={args.trace} loop: {record['loop']}")
    print_metrics(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_all(args) -> int:
    """Each workload in a fresh subprocess: the process-wide compile and
    LIKE caches and the peak RSS are then per workload."""
    from perf.workloads import WORKLOADS

    print(f"# commit={commit_id()} python={platform.python_version()} "
          f"nproc={os.cpu_count()} seed={args.seed} "
          f"seconds={args.seconds}")
    OUT_DIR.mkdir(exist_ok=True)
    records = []
    status = 0
    for trace in ((0, 1) if args.trace else (0,)):
        for name in WORKLOADS:
            scratch = OUT_DIR / f"last-{name}-trace{trace}.json"
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--out", str(scratch)],
                capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                status = 1
                continue
            print(done.stdout.rsplit("\n", 2)[0])
            record = json.loads(scratch.read_text())
            status |= record["failed"] != 0
            records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: src/repro not found beside perf/; the "
              "benchmark measures the program in this checkout",
              file=sys.stderr)
        return 2
    _bootstrap_path()
    from perf.workloads import WORKLOADS
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
