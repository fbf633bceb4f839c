"""Plain-Python recomputation of every fixed-state answer.

The reference never calls the system under test: it works on the data
the benchmark itself loaded (or, for snapshots, on the raw rows of one
snapshot) with dict/list code only.  Floats compare to 1e-9 relative;
an APPROX answer must lie within its own reported bound of the exact
value.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

REL_TOL = 1e-9


def values_match(actual, expected) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if actual is None or expected is None:
            return actual is expected
        return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0)
    return actual == expected


def rows_match(actual: list, expected: list, ordered: bool = True) -> bool:
    """Row lists agree column by column (floats to :data:`REL_TOL`)."""
    if len(actual) != len(expected):
        return False
    if not ordered:
        def order(row):
            return sorted((k, repr(v)) for k, v in row.items())
        actual = sorted(actual, key=order)
        expected = sorted(expected, key=order)
    for got, want in zip(actual, expected):
        if got.keys() != want.keys():
            return False
        if not all(values_match(got[col], want[col]) for col in want):
            return False
    return True


# -- scan_analytics --------------------------------------------------------


def scan_expected(data: dict, label_low: str, label_high: str) -> dict:
    """shape -> expected rows over ``data`` (key -> column dict)."""
    by_weight_sum = defaultdict(int)
    by_weight_count = Counter()
    by_weight_score = defaultdict(list)
    for value in data.values():
        by_weight_sum[value["weight"]] += value["value"]
        by_weight_count[value["weight"]] += 1
        by_weight_score[value["weight"]].append(value["score"])
    return {
        "filter": [
            {"key": key, "value": value["value"]}
            for key, value in sorted(data.items())
            if value["value"] < 3 and value["tag"].startswith("a")
        ],
        "groupby": [
            {"weight": weight, "s": by_weight_sum[weight],
             "c": by_weight_count[weight]}
            for weight in sorted(by_weight_count)
        ],
        "topk": [
            {"key": key, "pad2": value["pad2"]}
            for key, value in sorted(
                data.items(), key=lambda item: -item[1]["pad2"])[:20]
        ],
        "index_range": [{
            "n": sum(1 for value in data.values()
                     if label_low <= value["label"] <= label_high),
        }],
        "approx_distinct": len({v["label"] for v in data.values()}),
        "float_avg": [
            {"weight": weight,
             "a": math.fsum(scores) / len(scores)}
            for weight, scores in sorted(by_weight_score.items())
        ],
    }


def scan_matches(shape: str, rows: list, expected) -> bool:
    if shape == "approx_distinct":
        # One row: the estimate with its own bound.
        if len(rows) != 1:
            return False
        row = rows[0]
        return abs(row["d"] - expected) <= row["error_bound"]
    return rows_match(rows, expected)


# -- join_orders -----------------------------------------------------------


def join_expected(info: dict, state: dict, zones: dict,
                  riders: dict) -> dict:
    """shape -> expected rows of the three join statements."""
    copart = Counter(
        info[key]["deliveryZone"] for key, value in state.items()
        if value["orderState"] == "VENDOR_ACCEPTED" and key in info
    )
    region_of = {zone["zoneId"]: zone["region"] for zone in zones.values()}
    tier_of = {rider["riderId"]: rider["tier"] for rider in riders.values()}
    shuffle = Counter(
        tier_of[value["riderId"]] for value in state.values()
        if value["riderId"] in tier_of
    )
    return {
        "join_copart": [
            {"deliveryZone": zone, "n": count}
            for zone, count in sorted(copart.items())
        ],
        "join_broadcast": [
            {"partitionKey": key, "amount": value["amount"],
             "region": region_of[value["deliveryZone"]]}
            for key, value in sorted(info.items())
            if value["deliveryZone"] in region_of
        ],
        "join_shuffle": [
            {"tier": tier, "n": count}
            for tier, count in sorted(shuffle.items())
        ],
    }


# -- point_direct ----------------------------------------------------------


def point_matches(found: dict, keys, valid) -> bool:
    """``found`` (key -> state object) holds exactly the distinct
    requested keys, each with a value the source could have written."""
    if set(found) != set(keys):
        return False
    return all(valid(key, value) for key, value in found.items())


# -- snapshot_mixed --------------------------------------------------------


def q3_expected(info_rows, state_rows) -> list:
    """QUERY_3 recounted over one snapshot's raw rows."""
    zone_of = {row["partitionKey"]: row["deliveryZone"] for row in info_rows}
    counts = Counter(
        zone_of[row["partitionKey"]] for row in state_rows
        if row["orderState"] == "VENDOR_ACCEPTED"
        and row["partitionKey"] in zone_of
    )
    return [{"COUNT(*)": count, "deliveryZone": zone}
            for zone, count in counts.items()]
