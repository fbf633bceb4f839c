"""Count-based guard on the scan sweep's fixed cost per row.

Modelled on ``tests/simtime/test_frame_budget.py``: PR 22 took a
``scan_analytics`` refresh from four per-row Python frames of row
shaping (``rows_on_node -> live_row -> value_to_columns ->
is_dataclass``) plus one ``group_key`` closure per row to none, and
the budget is held by counting frames, which repeats exactly, and not
by timing.  A shard reads its entries column-wise: what is left per
row is one ``add`` per aggregate.
"""

import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.cluster.partition import Partitioner
from repro.config import CostModel
from repro.kvstore import HashPlacement, IMap
from repro.sql import EvalContext, parse
from repro.sql.batch import CompiledFragment, run_fragment_batches
from repro.sql.fragments import split_select
from repro.state.live import LiveStateTable
from repro.state.view import TableView

ROWS = 10_000
CHUNK = CostModel().scan_chunk_entries
CHUNKS = -(-ROWS // CHUNK)
#: Frames a whole shard may spend outside ``add``: a fixed number per
#: chunk (and per shipped row), never one per scanned row.
SLACK = 64 * CHUNKS


@dataclass
class Metric:
    weight: int
    value: int
    pad: int


def as_dict(index):
    return {"weight": index % 7, "value": index % 100, "pad": index * 3,
            "tag": "t", "other": index}


def as_dataclass(index):
    return Metric(index % 7, index % 100, index * 3)


def python_calls(function):
    """Names of the Python frames entered while ``function()`` runs."""
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


def shard_calls(make_value, sql):
    table = LiveStateTable(IMap("t", HashPlacement(Partitioner(8, 1, 0))))
    for index in range(ROWS):
        table.apply_update(index, make_value(index))
    fragment = split_select(parse(sql)).fragment("t")
    compiled = CompiledFragment(fragment)
    view = TableView(table)
    outcome = []

    def shard():
        batch = view.scan_on_node(0)
        outcome.append(run_fragment_batches(
            compiled, batch, EvalContext(), CHUNK,
            fragment.top_k_keep(len(batch)),
        ))

    calls = python_calls(shard)
    (survivors, payload, batches), = outcome
    assert len(survivors) == ROWS and batches == CHUNKS
    return calls, payload


#: What ran once per scanned row before; ``is_dataclass`` still runs
#: once per value type, when the table's reader first sees it.
PER_ROW_BEFORE = ("rows_on_node", "live_row", "value_to_columns",
                  "is_dataclass", "fields", "group_key", "order_key",
                  "hashable_key")


@pytest.mark.parametrize("make_value", [as_dict, as_dataclass])
def test_group_by_shard_runs_one_frame_per_row_per_aggregate(make_value):
    calls, payload = shard_calls(
        make_value,
        'SELECT weight, SUM(value) AS s, COUNT(*) AS c, MAX(pad) AS m '
        'FROM "t" GROUP BY weight',
    )
    assert len(payload) == 7
    assert calls["add"] == 3 * ROWS
    assert sum(calls.values()) - calls["add"] <= SLACK
    assert [name for name in PER_ROW_BEFORE if calls[name] > 1] == []


@pytest.mark.parametrize("make_value", [as_dict, as_dataclass])
def test_top_k_shard_runs_no_frame_per_row(make_value):
    calls, payload = shard_calls(
        make_value, 'SELECT key, pad FROM "t" ORDER BY pad DESC LIMIT 20',
    )
    assert [row["key"] for row in payload.rows()] == \
        list(range(ROWS - 1, ROWS - 21, -1))
    # The shard holds entry indexes: no row is shaped until one ships.
    assert sum(calls.values()) <= SLACK
    assert calls["project"] == 0
    assert [name for name in PER_ROW_BEFORE if calls[name] > 1] == []
