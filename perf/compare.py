"""Compare two sets of benchmark result files.

    python3 perf/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is what ``perf/run.py --out`` wrote: one record, or a list of
them.  One row is printed per workload x end-to-end metric: each side's
median and quartiles, the change of the median with its base, the
metric's bound, and a verdict:

``worse``       the new median is worse than the base's by more than
                the bound;
``unresolved``  either side's inter-quartile spread is wider than the
                bound, so the bound cannot be checked;
``improved``    with as many new files as base files, paired in the
                order given: the new side wins at least nine tenths of
                the pairs (ties count for neither) and the medians
                differ by more than the base's inter-quartile distance;
``unchanged``   anything else.

Exits non-zero on any ``worse`` row, on failed ops, and - with
``--host-only``, for a change that must leave the virtual clock alone -
on any ``virt_digest`` that differs between the sides.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: python3 perf/compare.py
    _here = str(Path(__file__).resolve().parent)
    sys.path[:] = [entry for entry in sys.path if entry != _here]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf import stats  # noqa: E402
from perf.metrics import END_TO_END  # noqa: E402


def load(paths) -> dict:
    """workload -> its untraced records, in file order."""
    grouped: dict = {}
    for path in paths:
        loaded = json.loads(Path(path).read_text())
        for record in loaded if isinstance(loaded, list) else [loaded]:
            if not record.get("traced"):
                grouped.setdefault(record["workload"], []).append(record)
    return grouped


def worse_by(base: float, new: float, better: str) -> float:
    """Signed change of ``new`` against ``base`` as a share of ``base``;
    positive means worse."""
    change = (new - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(base: list, new: list, better: str, bound: float) -> str:
    if max(stats.spread_share(base), stats.spread_share(new)) > bound:
        return "unresolved"
    base_q1, base_median, base_q3 = stats.quartiles(base)
    new_median = stats.quartiles(new)[1]
    change = worse_by(base_median, new_median, better)
    if change > bound:
        return "worse"
    if len(base) == len(new) and len(base) >= 2:
        wins = sum(worse_by(b, n, better) < 0 for b, n in zip(base, new))
        losses = sum(worse_by(b, n, better) > 0 for b, n in zip(base, new))
        if (wins >= 0.9 * (wins + losses) and wins > 0
                and abs(new_median - base_median) > base_q3 - base_q1):
            return "improved"
    return "unchanged"


def compare(base: dict, new: dict, host_only: bool = False):
    """(rows, problems): one row per workload x metric present on both
    sides, and the reasons to exit non-zero."""
    rows, problems = [], []
    for workload in base:
        if workload not in new:
            continue
        for side, records in (("base", base[workload]),
                              ("new", new[workload])):
            failed = sum(record["failed"] for record in records)
            if failed:
                problems.append(f"{workload}: {failed} failed ops ({side})")
        if host_only:
            digests = {}
            for record in base[workload] + new[workload]:
                digests.setdefault(record["seed"], set()).add(
                    record["virt_digest"])
            for seed, seen in digests.items():
                if len(seen) > 1:
                    problems.append(
                        f"{workload}: virt_digest differs at seed {seed}: "
                        f"{sorted(seen)}")
        for metric, (unit, better, bound) in END_TO_END.items():
            sides = [
                [record["metrics"][metric]["value"] for record in records]
                for records in (base[workload], new[workload])
            ]
            outcome = verdict(*sides, better, bound)
            if outcome == "worse":
                problems.append(f"{workload}: {metric} worse")
            rows.append((workload, metric, unit, sides, bound, outcome))
    return rows, problems


def _cell(values: list) -> str:
    q1, median, q3 = stats.quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def render(rows) -> str:
    lines = [f"{'workload':<17} {'metric':<18} {'base median [q1, q3]':<38} "
             f"{'new median [q1, q3]':<38} {'change (of base)':<24} "
             f"{'bound':>6}  verdict"]
    for workload, metric, unit, (base, new), bound, outcome in rows:
        base_median = stats.quartiles(base)[1]
        new_median = stats.quartiles(new)[1]
        change = (new_median - base_median) / abs(base_median) \
            if base_median else 0.0
        lines.append(
            f"{workload:<17} {metric:<18} {_cell(base):<38} "
            f"{_cell(new):<38} "
            f"{change:+.2%} of {base_median:.5g} {unit:<5} "
            f"{bound:>6.0%}  {outcome}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--host-only", action="store_true")
    args = parser.parse_args(argv)
    rows, problems = compare(load(args.base), load(args.new),
                             args.host_only)
    print(render(rows))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
