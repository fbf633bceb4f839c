"""API-surface guard: the benchmark touches ``repro`` only through the
names perf/README.md lists, so refactors behind them cannot break it."""

import ast
import re

from perf import probes

from .conftest import ROOT

PERF = ROOT / "perf"
GATES = {"pushdown", "indexes", "sketches", "vectorized", "shared_plans",
         "distributed_joins"}


def allow_list() -> set:
    text = (PERF / "README.md").read_text()
    block = re.search(
        r"<!-- repro-allow-list:start -->(.*?)<!-- repro-allow-list:end -->",
        text, re.S).group(1)
    allowed = set()
    for line in block.splitlines():
        line = line.strip().strip("`")
        if ":" not in line:
            continue
        module, names = line.split(":", 1)
        allowed |= {(module.strip(), name.strip())
                    for name in names.split(",") if name.strip()}
    return allowed


def violations(source: str, allowed: set) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            if node.module.startswith("repro.bench"):
                found.append(f"from {node.module} import ...")
            found += [f"from {node.module} import {alias.name}"
                      for alias in node.names
                      if (node.module, alias.name) not in allowed]
        elif isinstance(node, ast.Call):
            found += [f"gate kwarg {kw.arg}=" for kw in node.keywords
                      if kw.arg in GATES]
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and \
                not node.attr.startswith("__")
            own = isinstance(node.value, ast.Name) and \
                node.value.id in ("self", "cls")
            if private and not own:
                found.append(f"private attribute .{node.attr}")
    return found


def test_guard_catches_each_kind_of_breach():
    allowed = {("repro", "Environment")}
    assert violations("from repro import Environment", allowed) == []
    assert violations("from repro import CostModel", allowed)
    assert violations("import repro.query.service", allowed)
    assert violations("from repro.bench.harness import x", allowed)
    assert violations("QueryService(env, vectorized=False)", allowed)
    assert violations("service._inflight", allowed)
    assert violations("from repro.sql.executor import _LIKE_CACHE", allowed)
    assert violations("self._private + cls._other + a.__dict__", allowed) == []


def test_perf_imports_only_allow_listed_public_names():
    allowed = allow_list()
    assert allowed, "perf/README.md lost its allow-list block"
    assert not any(name.startswith("_") for _, name in allowed)
    assert not any(module.startswith("repro.bench") for module, _ in allowed)
    for path in sorted(PERF.rglob("*.py")):
        if path.name == "test_api_surface.py":
            continue  # holds the breaches the guard is tested with
        assert violations(path.read_text(), allowed) == [], path
    # Lazily resolved probe targets are imports too.
    assert set(probes.TARGETS.values()) <= allowed


def test_renamed_probe_target_is_reported_absent_not_raised(
        monkeypatch, records):
    from .conftest import toy_run
    monkeypatch.setitem(probes.TARGETS, "Simulator",
                        ("repro.simtime", "SimulatorRenamed"))
    monkeypatch.setitem(probes.TARGETS, "split_select",
                        ("repro.sql.no_such_module", "split_select"))
    result = toy_run("scan_analytics", traced=True)
    values, absent = probes.run_all(result.workload)
    wanted = dict(probes.PROBES)
    assert set(absent) == set(wanted[probes.probe_simtime]
                              + wanted[probes.probe_sql])
    assert all(values[name] is None for name in absent)
    assert values["kvstore.put_host_us"] > 0
