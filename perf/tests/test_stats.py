"""The percentile helper obeys the ">= 10 samples beyond" rule."""

import pytest

from perf import stats


@pytest.mark.parametrize("count, expected", [
    (1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9),
    (100_000, 99.99),
])
def test_supported_tail(count, expected):
    assert stats.supported_tail(count) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert stats.percentile(samples, 50.0) == 500
    assert stats.percentile(samples, 99.0) == 990
    assert stats.percentile(samples, 99.9) == 999
    assert stats.percentile([7.0], 99.99) == 7.0
    # Ten samples lie beyond the reported tail, as the rule demands.
    tail = stats.percentile(samples, stats.supported_tail(len(samples)))
    assert sum(1 for s in samples if s > tail) >= stats.MIN_BEYOND


def test_summarize_never_reports_an_unsupported_tail():
    few = stats.summarize([1.0, 2.0, 3.0], tail_pct=99.0)
    assert few["tail_pct"] == 50.0 and few["tail"] == few["p50"] == 2.0
    many = stats.summarize(range(2000), tail_pct=99.0)
    assert many["tail_pct"] == 99.0 and many["n"] == 2000
    capped = stats.summarize(range(20_000), tail_pct=99.0)
    assert capped["tail_pct"] == 99.0


def test_spread_and_digest():
    assert stats.spread_share([10.0] * 10) == 0.0
    assert stats.spread_share([9.0, 10.0, 10.0, 11.0]) > 0.0
    assert stats.digest({"a": [0.1, 2]}) == stats.digest({"a": [0.1, 2]})
    assert stats.digest({"a": [0.1]}) != \
        stats.digest({"a": [0.1 + 1e-17 + 1e-16]})
