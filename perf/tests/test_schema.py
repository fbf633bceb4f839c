"""Output schema, metric names, and BENCHMARK.json against the registry."""

import json
import re

from perf.metrics import (CONTRACT_PER_LAYER, END_TO_END, PER_LAYER,
                          SHAPES)
from perf.workloads import WORKLOADS

from .conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed():
    names = list(END_TO_END) + [m.name for m in PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [unit for unit, _, _ in END_TO_END.values()]
    units += [m.unit for m in PER_LAYER]
    assert all(UNIT.match(unit) for unit in units)
    assert len(SHAPES) == 18
    assert len(CONTRACT_PER_LAYER) <= 128


def test_benchmark_json_mirrors_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    registry = {m.name: (m.unit, m.better) for m in PER_LAYER if m.contract}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == registry


def test_every_declared_metric_is_reported(records):
    layer_names = {m.name for m in PER_LAYER}
    for name, (plain, traced) in records.items():
        assert set(plain["metrics"]) == set(END_TO_END), name
        for metric, cell in plain["metrics"].items():
            assert isinstance(cell["value"], float), (name, metric)
            assert cell["value"] > 0, (name, metric)
            assert cell["unit"] == END_TO_END[metric][0]
        assert set(traced["all_metrics"]) == layer_names, name
        assert set(traced["metrics"]) == set(CONTRACT_PER_LAYER), name
        assert traced["absent_probes"] == [], name
        for metric, cell in traced["metrics"].items():
            assert isinstance(cell["value"], (int, float)), (name, metric)
        for record in (plain, traced):
            assert record["failed"] == 0, name
            assert record["attempted"] >= 1, name
        assert traced["layer_shares"], name


def test_statement_shapes_land_on_their_workload(records):
    owners = {
        "scan_analytics": SHAPES[:6], "join_orders": SHAPES[6:9],
        "point_direct": SHAPES[9:14], "snapshot_mixed": SHAPES[14:],
    }
    for name, (_, traced) in records.items():
        for shape in SHAPES:
            value = traced["all_metrics"][
                f"query.stmt.{shape}.virt_ms"]["value"]
            assert (value is not None) == (shape in owners.get(name, ())), \
                (name, shape)
