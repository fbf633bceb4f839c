"""Toy-scale runs shared by the self-tests.

``python -m pytest perf/tests`` from the repo root; the path set-up
below makes ``perf`` and ``repro`` importable without ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import harness, probes  # noqa: E402
from perf.run import build_record  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

#: Constructor arguments that shrink every workload to well under a
#: second per run.
TOY = {
    "stream_q6": dict(paper_rate_per_s=120_000, sellers=200,
                      checkpoint_ms=40.0, warmup_ms=50.0, round_ms=10.0),
    "scan_analytics": dict(rows=400),
    "join_orders": dict(orders=300),
    "point_direct": dict(keys=500, clients=4, checkpoint_ms=40.0,
                         round_ms=10.0),
    "subscribe_fanout": dict(rows=100, subscribers=60, groups=10,
                             round_ms=20.0),
    "snapshot_mixed": dict(orders=500, checkpoint_ms=40.0),
}
TOY_ROUNDS = 4


def toy_run(name: str, seed: int = 11, traced: bool = False):
    factory = lambda: WORKLOADS[name](seed, **TOY[name])  # noqa: E731
    return harness.run(factory, seconds=0.0, traced=traced,
                       min_rounds=TOY_ROUNDS, setups=1)


def toy_record(name: str, seed: int = 11, traced: bool = False) -> dict:
    return build_record(name, seed, toy_run(name, seed, traced))


@pytest.fixture(scope="session", autouse=True)
def small_probes():
    """Probe loops at toy size too, for the whole session."""
    patch = pytest.MonkeyPatch()
    for constant, value in (("N_EVENTS", 2000), ("N_JOBS", 1000),
                            ("N_SENDS", 1000), ("N_ENTRIES", 500),
                            ("PARSE_REPEATS", 3)):
        patch.setattr(probes, constant, value)
    yield
    patch.undo()


@pytest.fixture(scope="session")
def records(small_probes):
    """workload -> (untraced record, traced record), run once."""
    return {name: (toy_record(name), toy_record(name, traced=True))
            for name in WORKLOADS}
