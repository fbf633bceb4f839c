"""The reference bites: a corrupted row fails ops."""

from perf import reference
from perf.harness import Round
from perf.trace import NO_TRACE
from perf.workloads import WORKLOADS

from .conftest import TOY, toy_run


def test_rows_match_orders_floats_and_columns():
    rows = [{"k": 1, "v": 0.1 + 0.2}, {"k": 2, "v": 1.0}]
    assert reference.rows_match(rows, [{"k": 1, "v": 0.3}, {"k": 2, "v": 1.0}])
    assert not reference.rows_match(rows, list(reversed(rows)))
    assert reference.rows_match(rows, list(reversed(rows)), ordered=False)
    assert not reference.rows_match(rows, [{"k": 1, "v": 0.3001},
                                           {"k": 2, "v": 1.0}])
    assert not reference.rows_match(rows, rows[:1])
    assert not reference.rows_match([{"k": 1}], [{"j": 1}])


def test_approx_answer_must_lie_within_its_own_bound():
    inside = [{"d": 104, "error_bound": 5.0, "confidence": 0.95}]
    outside = [{"d": 110, "error_bound": 5.0, "confidence": 0.95}]
    assert reference.scan_matches("approx_distinct", inside, 100)
    assert not reference.scan_matches("approx_distinct", outside, 100)


def test_point_matches_wants_exactly_the_requested_keys():
    valid = lambda key, value: value == key * 2  # noqa: E731
    assert reference.point_matches({1: 2, 3: 6}, [1, 3, 3], valid)
    assert not reference.point_matches({1: 2}, [1, 3], valid)
    assert not reference.point_matches({1: 2, 3: 7}, [1, 3], valid)


def corrupted_share(name: str, table: str, mutate) -> float:
    """failed ops / ops after one loaded row is overwritten behind the
    benchmark's back."""
    workload = WORKLOADS[name](11, **TOY[name])
    workload.setup()
    clean = workload.round(0, NO_TRACE)
    workload.verify(clean)
    assert clean.failed == 0 and len(clean.virt_ms) == clean.ops
    imap = workload.env.store.get_map(table)
    key, value = next(iter(imap.entries()))
    imap.put(key, mutate(value))
    dirty = workload.round(1, NO_TRACE)
    workload.verify(dirty)
    # A failed op contributes no latency sample.
    assert len(dirty.virt_ms) == dirty.ops - dirty.failed
    return dirty.failed / dirty.ops


def test_corrupting_one_row_fails_ops():
    assert corrupted_share(
        "scan_analytics", "metrics",
        lambda value: {**value, "value": value["value"] + 1}) > 0
    assert corrupted_share(
        "join_orders", "orderstate",
        lambda value: {**value, "orderState": (
            "NEW" if value["orderState"] == "VENDOR_ACCEPTED"
            else "VENDOR_ACCEPTED")}) > 0


def test_failed_ops_reach_the_result_line():
    result = toy_run("scan_analytics")
    result.rounds.append(Round(ops=2, failed=2, host_s=1.0))
    from perf.run import build_record
    record = build_record("scan_analytics", 11, result)
    assert record["failed"] == 2
    assert record["failed_ops_share"] > 0
