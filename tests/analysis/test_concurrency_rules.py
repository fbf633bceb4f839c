"""Fixture tests for the three interprocedural concurrency rules.

The key property throughout: each rule has at least one fixture that
is clean when its files are linted *individually* (the per-file view)
and only fails when the whole-program call-graph pass links the
modules together.
"""

from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.rules import rules_by_name

FIXTURES = Path(__file__).parent / "fixtures"

LOCKORDER_TRIO = [
    FIXTURES / "lockorder_bad_a.py",
    FIXTURES / "lockorder_bad_b.py",
    FIXTURES / "lockorder_bad_c.py",
]
SHAREDSTATE_TRIO = [
    FIXTURES / "sharedstate_query_entry.py",
    FIXTURES / "sharedstate_chaos_entry.py",
    FIXTURES / "sharedstate_cache.py",
]


def lint(paths, rule):
    return lint_paths(paths, rules_by_name([rule]))


# -- lock-order -----------------------------------------------------------


def test_lock_order_cycle_spans_three_modules():
    violations = lint(LOCKORDER_TRIO, "lock-order")
    assert len(violations) == 1
    violation = violations[0]
    assert violation.rule == "lock-order"
    assert "'table_a' -> 'table_b' -> 'table_a'" in violation.message
    assert "potential deadlock" in violation.message
    # The witness path is rendered file:line by file:line through all
    # three modules.
    for name in ("lockorder_bad_a.py", "lockorder_bad_b.py",
                 "lockorder_bad_c.py"):
        assert name in violation.message


def test_lock_order_needs_the_interprocedural_pass():
    # Every file of the cycle is clean in isolation: only the linked
    # whole-program view exposes the deadlock.
    for path in LOCKORDER_TRIO:
        assert lint([path], "lock-order") == []


def test_lock_order_clean_fixture_passes():
    assert lint([FIXTURES / "lockorder_clean.py"], "lock-order") == []


# -- blocking-under-lock --------------------------------------------------


def test_blocking_under_lock_flags_direct_sites():
    violations = lint([FIXTURES / "blocking_bad.py"],
                      "blocking-under-lock")
    kinds = " | ".join(v.message for v in violations)
    assert "store-server job submission" in kinds
    assert "channel wait" in kinds
    assert "simtime sleep" in kinds
    assert "unbounded loop with IO" in kinds
    assert all("lock 'orders'" in v.message for v in violations)


def test_blocking_under_lock_spans_modules():
    pair = [FIXTURES / "blocking_bad_outer.py",
            FIXTURES / "blocking_bad_inner.py"]
    violations = lint(pair, "blocking-under-lock")
    assert len(violations) == 1
    message = violations[0].message
    assert "network send" in message
    assert "blocking_bad_inner.py" in message
    assert violations[0].path.endswith("blocking_bad_outer.py")


def test_blocking_under_lock_needs_the_interprocedural_pass():
    assert lint([FIXTURES / "blocking_bad_outer.py"],
                "blocking-under-lock") == []
    assert lint([FIXTURES / "blocking_bad_inner.py"],
                "blocking-under-lock") == []


def test_blocking_clean_fixture_passes():
    assert lint([FIXTURES / "blocking_clean.py"],
                "blocking-under-lock") == []


# -- shared-state-audit ---------------------------------------------------


def test_shared_state_flags_dual_reachable_mutable():
    violations = lint(SHAREDSTATE_TRIO, "shared-state-audit")
    assert len(violations) == 1
    violation = violations[0]
    assert "RESULTS" in violation.message
    assert "sharedstate_query_entry" in violation.message
    assert "sharedstate_chaos_entry" in violation.message
    # KEYWORDS (populated literal) is not flagged; RETIRED is
    # suppressed by the preceding-comment allow with the alias
    # spelling.
    assert "KEYWORDS" not in violation.message
    assert all("RETIRED" not in v.message for v in violations)


def test_shared_state_needs_both_paths():
    # Cache + only one side: no dual reachability, no finding.
    assert lint([FIXTURES / "sharedstate_query_entry.py",
                 FIXTURES / "sharedstate_cache.py"],
                "shared-state-audit") == []
    assert lint([FIXTURES / "sharedstate_chaos_entry.py",
                 FIXTURES / "sharedstate_cache.py"],
                "shared-state-audit") == []
