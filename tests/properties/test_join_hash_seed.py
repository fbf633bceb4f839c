"""A join's column order must not depend on ``PYTHONHASHSEED``.

LEFT JOIN padding once took the right side's columns in ``set`` order,
so central ``SELECT *`` over a LEFT JOIN, and every distributed strategy
copying it, returned different columns under different hash seeds.  Each
seed here runs in its own interpreter, centrally and under every forced
strategy; the columns, and each row's key order, must be the same.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = ("0", "1", "2")

#: Prints one line per (path, statement): its columns and rows' keys.
SCRIPT = """
import pytest
from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from tests.properties.test_join_properties import (
    HETEROGENEOUS, STRATEGIES, THREE_WAY, finished, forced, heterogeneous)

env = heterogeneous(Environment(ClusterConfig(
    nodes=4, processing_workers_per_node=1)))
paths = [("central", None)] + [
    (strategy, strategy) for strategy in STRATEGIES
    if strategy != "index-nested-loop"  # INNER-only; both statements LEFT
]
for sql in (HETEROGENEOUS[1], THREE_WAY):
    for label, strategy in paths:
        if strategy is None:
            execution = finished(QueryService(env, distributed_joins=False),
                                 sql)
        else:
            with forced(pytest.MonkeyPatch(), strategy):
                execution = finished(QueryService(env), sql)
            assert execution.join_strategies[0] == strategy
        assert execution.error is None, execution.error
        result = execution.result
        print(label, sql, result.columns, [list(row) for row in result.rows])
"""


def outcomes(seed: str) -> list[str]:
    environ = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                         env=environ, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_left_join_columns_do_not_depend_on_the_hash_seed():
    first, *others = map(outcomes, SEEDS)
    assert len(first) == 8  # two statements, four paths
    for seed, lines in zip(SEEDS[1:], others):
        for expected, line in zip(first, lines, strict=True):
            assert line == expected, (seed, line[:200])
