"""Count-based guards on what a statement-cache hit and a whole SQL
point get cost.

Modelled on ``tests/query/test_scan_frame_budget.py``: a hit must not
fall back to parsing.  It never enters ``tokenize`` or any ``_Parser``
method, and spends a fixed number of Python frames plus one per literal
slot (the ``Literal`` it builds).  A point get, from ``submit`` to its
completion, reads through the one shard-read path every query shape
takes and must stay within the frames it spent on a path of its own.
Counting frames repeats exactly; timing would not.
"""

import sys
from collections import Counter
from functools import partial

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from repro.sql.lexer import tokenize
from repro.sql.lru import LruCache
from repro.sql.parser import _Parser
from repro.sql.statements import parse_cached
from repro.state.live import LiveStateTable

#: Frames of a hit besides one per slot: ``parse_cached``, the pattern
#: choice, the cache lookup, the literal conversion and the ``__init__``
#: of each rebuilt node on the spine (two for these statements).
FIXED = 6

POINT = 'SELECT * FROM "riderlocation" WHERE key = {}'
IN_LIST = ('SELECT * FROM "riderlocation" WHERE key IN '
           "({}, 1415, 92, 6535, 8979, 323, 8462, 6433, 83, 2795)")


def python_calls(function):
    """Code objects of the Python frames entered while ``function()``
    runs."""
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


PARSING = {tokenize.__code__} | {
    member.__code__ for member in vars(_Parser).values()
    if hasattr(member, "__code__")
} | {_Parser._describe.__code__}


@pytest.mark.parametrize("template, slots", [(POINT, 1), (IN_LIST, 10)])
def test_hit_spends_fixed_frames_plus_one_per_slot(template, slots):
    cache = LruCache(256)
    parse_cached(template.format(4711), cache)
    calls = python_calls(partial(parse_cached, template.format(3), cache))
    assert cache.hits == 1
    assert not PARSING & set(calls), "a hit re-entered the parser"
    assert sum(calls.values()) <= FIXED + slots, calls


#: Frames of a whole point get (a statement-cache hit, the test suite's
#: sanitizers armed) on the environment below: what the single-key and
#: the five-key ``IN`` get (three owners) spent on a read path of their
#: own, before every shard shape shared one.
POINT_BUDGETS = {
    'SELECT * FROM "riderlocation" WHERE key = {}': 185,
    'SELECT * FROM "riderlocation" WHERE key IN ({}, 2, 3, 50, 77)': 394,
}


def test_a_point_get_stays_within_its_frame_budget():
    env = Environment(ClusterConfig(nodes=4, processing_workers_per_node=1,
                                    partition_count=32))
    imap = env.store.create_map("riderlocation")
    env.store.register_live_table("riderlocation", LiveStateTable(imap))
    for key in range(200):
        imap.put(key, {"v": key})
    service = QueryService(env)

    def run(sql):
        execution = service.submit(sql)
        while execution.completed_ms is None:
            env.sim.step()
        assert execution.error is None and execution.result.rows

    for template, budget in POINT_BUDGETS.items():
        run(template.format(6))  # warm the statement cache
        calls = python_calls(partial(run, template.format(5)))
        assert sum(calls.values()) <= budget, (template, calls)
