"""Regression tests for the compiled-LIKE pattern cache.

The cache used to be an unbounded dict flushed wholesale at a fixed
cap — one unlucky data-derived pattern evicted every hot literal
pattern at once.  It is now a proper LRU keyed by pattern: under churn
it stays exactly at capacity and keeps recently-used patterns
resident.  The bound comes from ``CostModel.like_cache_max_patterns``
and is applied per :class:`~repro.env.Environment`.
"""

import pytest

from repro.config import ClusterConfig, CostModel
from repro.env import Environment
from repro.errors import ConfigurationError
from repro.sql.compiled import (
    _LIKE_CACHE,
    _like_match as match_like,
    like_cache_stats,
    set_like_cache_capacity,
)
from repro.sql.lru import LruCache


@pytest.fixture
def small_cache():
    original = _LIKE_CACHE.capacity
    _LIKE_CACHE.clear()
    set_like_cache_capacity(4)
    yield _LIKE_CACHE
    set_like_cache_capacity(original)
    _LIKE_CACHE.clear()


# -- the LruCache itself -----------------------------------------------------


def test_lru_cache_evicts_least_recently_used():
    cache: LruCache[str, int] = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a": "b" is now LRU
    cache.put("c", 3)
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert len(cache) == 2


def test_lru_cache_counts_hits_and_misses():
    cache: LruCache[str, int] = LruCache(2)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("zz") is None
    assert (cache.hits, cache.misses) == (1, 1)
    cache.clear()  # clearing entries keeps the counters
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 0


def test_lru_cache_set_capacity_shrinks_and_validates():
    cache: LruCache[int, int] = LruCache(8)
    for index in range(8):
        cache.put(index, index)
    cache.set_capacity(3)
    assert len(cache) == 3
    assert all(key in cache for key in (5, 6, 7))
    with pytest.raises(ValueError):
        cache.set_capacity(0)
    with pytest.raises(ValueError):
        LruCache(0)


# -- the LIKE cache under churn ----------------------------------------------


def test_like_cache_stays_at_cap_under_churn(small_cache):
    # The old behaviour flushed the whole cache at the cap; the LRU
    # must instead sit exactly at capacity while patterns churn.
    for round_no in range(5):
        for index in range(20):
            assert match_like("abc", f"a%{round_no}-{index}") is False
            assert len(small_cache) <= 4
    assert len(small_cache) == 4


def test_like_cache_keeps_hot_pattern_resident(small_cache):
    hot = "hot-%"
    match_like("hot-1", hot)
    for index in range(50):
        match_like("x", f"cold-{index}%")
        match_like("hot-2", hot)  # refresh recency every round
    assert hot in small_cache


def test_like_cache_stats_accumulate(small_cache):
    hits_before, misses_before = like_cache_stats()
    match_like("abc", "zzz-%")   # miss (fresh pattern)
    match_like("abd", "zzz-%")   # hit
    hits_after, misses_after = like_cache_stats()
    assert hits_after == hits_before + 1
    assert misses_after == misses_before + 1


# -- configuration plumbing --------------------------------------------------


def test_cost_model_validates_like_cache_bound():
    with pytest.raises(ConfigurationError,
                       match="like_cache_max_patterns"):
        CostModel(like_cache_max_patterns=0).validate()
    CostModel(like_cache_max_patterns=1).validate()


def test_environment_applies_configured_capacity():
    original = _LIKE_CACHE.capacity
    try:
        Environment(ClusterConfig(nodes=2),
                    costs=CostModel(like_cache_max_patterns=7))
        assert _LIKE_CACHE.capacity == 7
    finally:
        set_like_cache_capacity(original)


def test_report_carries_like_cache_counters():
    from repro.observability import collect_report, format_report

    env = Environment(ClusterConfig(nodes=2))
    match_like("abc", "ab%")
    report = collect_report(env)
    assert report.like_cache_hits >= 0
    assert report.like_cache_misses >= 1
    assert "LIKE cache:" in format_report(report)
