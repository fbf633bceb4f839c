"""Layer probes: each calls one layer's public functions directly, on
the workload's own inputs, and times them on the host clock.

Targets are resolved lazily by name.  When one has been renamed or
removed the probe's metrics are reported as ``None`` and listed in
``absent_probes``; a probe never crashes the run and never touches an
end-to-end metric (probes run only in the traced pass, after the
rounds).
"""

from __future__ import annotations

import importlib
import itertools
import random
import statistics
import time

from . import harness, stats
from .trace import NO_TRACE

#: Events, jobs, sends and puts per micro-probe: large enough that the
#: timer's resolution is under 0.1 % of the interval.
N_EVENTS = 100_000
N_JOBS = 50_000
N_SENDS = 50_000
N_ENTRIES = 20_000
PARSE_REPEATS = 40

#: Every ``repro`` name the probes resolve (module, attribute); the
#: API-surface test holds this against the README allow-list.
TARGETS = {
    "Simulator": ("repro.simtime", "Simulator"),
    "WorkerPool": ("repro.simtime", "WorkerPool"),
    "Environment": ("repro", "Environment"),
    "ClusterConfig": ("repro", "ClusterConfig"),
    "QueryService": ("repro", "QueryService"),
    "collect_report": ("repro", "collect_report"),
    "LiveStateTable": ("repro.state.live", "LiveStateTable"),
    "FullSnapshotTable": ("repro.state.snapshots", "FullSnapshotTable"),
    "parse": ("repro.sql", "parse"),
    "execute_select": ("repro.sql", "execute_select"),
    "EvalContext": ("repro.sql", "EvalContext"),
    "split_select": ("repro.sql.fragments", "split_select"),
    "DictCatalog": ("repro.sql.planner", "DictCatalog"),
    "ListTable": ("repro.sql.planner", "ListTable"),
}


class Absent(Exception):
    """A probe target no longer exists under its public name."""


def resolve(name: str):
    module, attribute = TARGETS[name]
    try:
        return getattr(importlib.import_module(module), attribute)
    except (ImportError, AttributeError) as exc:
        raise Absent(f"{module}.{attribute}") from exc


def _noop(*_args) -> None:
    pass


def _seconds(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _fresh_env(workload):
    return resolve("Environment")(
        resolve("ClusterConfig")(nodes=workload.nodes,
                                 processing_workers_per_node=1),
        seed=workload.seed,
    )


# -- simtime ---------------------------------------------------------------


def probe_simtime(workload) -> dict:
    simulator_cls = resolve("Simulator")
    rng = random.Random(workload.seed)
    delays = [rng.random() * 100.0 for _ in range(N_EVENTS)]
    sim = simulator_cls(workload.seed)

    def events() -> None:
        for delay in delays:
            sim.schedule(delay, _noop)
        sim.run()

    event_s = _seconds(events)

    sim = simulator_cls(workload.seed)
    pool = resolve("WorkerPool")(sim, 4)

    def jobs() -> None:
        for index in range(N_JOBS):
            pool.submit(index & 63, 0.01, _noop)

    job_s = _seconds(jobs)
    sim.run()
    return {
        "simtime.host_events_per_s": N_EVENTS / event_s,
        "simtime.pool_host_us_per_job": job_s / N_JOBS * 1e6,
    }



# -- kvstore and state -----------------------------------------------------


def probe_store(workload) -> dict:
    """Replay the workload's own table through IMap and LiveStateTable."""
    source = workload.env.store.get_live_table(workload.probe_table)
    nodes = range(workload.nodes)
    entries = list(itertools.islice(source.imap.entries(), N_ENTRIES))
    env = _fresh_env(workload)
    imap = env.store.create_map("probe")

    def puts() -> None:
        for key, value in entries:
            imap.put(key, value)

    def gets() -> None:
        for key, _ in entries:
            imap.get(key)

    put_s = _seconds(puts)
    get_s = _seconds(gets)
    table = resolve("LiveStateTable")(imap)

    def updates() -> None:
        for key, value in entries:
            table.apply_update(key, value)

    update_s = _seconds(updates)

    scanned = 0

    def scan() -> None:
        nonlocal scanned
        for node in nodes:
            for _ in source.imap.entries_on_node(node):
                scanned += 1

    scan_s = _seconds(scan)

    def build() -> None:
        for node in nodes:
            for _ in source.rows_on_node(node):
                pass

    build_s = _seconds(build)

    payload = dict(entries)
    snapshots = resolve("FullSnapshotTable")("probe", 1, lambda _i: 0)
    write_s = statistics.median(
        _seconds(lambda ssid=ssid: snapshots.write_instance(ssid, 0, payload))
        for ssid in range(1, 22)
    )
    count = len(entries)
    return {
        "kvstore.put_host_us": put_s / count * 1e6,
        "kvstore.get_host_us": get_s / count * 1e6,
        "kvstore.scan_host_rows_per_s": scanned / scan_s,
        "state.row_build_host_rows_per_s": scanned / build_s,
        "state.live_update_host_us": update_s / count * 1e6,
        "state.snapshot_write_host_rows_per_s": count / write_s,
    }



# -- cluster ---------------------------------------------------------------


def probe_network(workload) -> dict:
    env = _fresh_env(workload)
    network = env.cluster.network
    nodes = workload.nodes

    def sends() -> None:
        for index in range(N_SENDS):
            network.send(index % nodes, (index + 1) % nodes, _noop,
                         nbytes=256)
        env.sim.run()

    return {"cluster.net_host_us_per_send": _seconds(sends) / N_SENDS * 1e6}



# -- sql -------------------------------------------------------------------


def probe_sql(workload) -> dict:
    parse = resolve("parse")
    split_select = resolve("split_select")
    parse_s, plan_s = [], []
    for sql in workload.statements.values():
        for _ in range(PARSE_REPEATS):
            start = time.perf_counter()
            select = parse(sql)
            middle = time.perf_counter()
            split_select(select)
            plan_s.append(time.perf_counter() - middle)
            parse_s.append(middle - start)

    # Central execution of one statement over rows built beforehand.
    store = workload.env.store
    select = parse(workload.probe_central)
    list_table = resolve("ListTable")
    tables = {}
    for name in [select.table.name] + [j.table.name for j in select.joins]:
        if store.has_live_table(name):
            rows = store.get_live_table(name).rows()
        else:
            rows = store.get_snapshot_table(name).rows_for_snapshot(
                store.committed_ssid)
        tables[name] = list_table(name, tuple(rows))
    catalog = resolve("DictCatalog")(tables)
    context = resolve("EvalContext")(now_ms=workload.env.sim.now)
    execute_select = resolve("execute_select")
    exec_s = _seconds(lambda: execute_select(select, catalog, context))
    input_rows = sum(len(table.data) for table in tables.values())
    return {
        "sql.parse_host_us_p50": statistics.median(parse_s) * 1e6,
        "sql.plan_host_us_p50": statistics.median(plan_s) * 1e6,
        "sql.central_exec_host_rows_per_s": input_rows / exec_s,
    }



# -- continuous ------------------------------------------------------------


def probe_continuous(workload) -> dict:
    """Subscribe, apply and deliver on a small table of its own."""
    rows, groups, subscribers, updates = 1000, 50, 500, 400
    env = _fresh_env(workload)
    imap = env.store.create_map("probe")
    table = resolve("LiveStateTable")(imap)
    env.store.register_live_table("probe", table)
    rng = random.Random(workload.seed)
    for key in range(rows):
        imap.put(key, {"value": rng.randrange(1000),
                       "user_id": key % groups})
    detached_s = _seconds(lambda: [
        table.apply_update(key, {"value": key, "user_id": key % groups})
        for key in range(updates)
    ])
    service = resolve("QueryService")(env)

    def subscribe() -> None:
        for index in range(subscribers):
            service.subscribe(
                f'SELECT * FROM "probe" WHERE user_id = {index % groups}')

    subscribe_s = _seconds(subscribe)
    env.run_for(50.0)
    collect_report = resolve("collect_report")
    pushed_before = collect_report(env).deltas_pushed
    attached_s = _seconds(lambda: [
        table.apply_update(key, {"value": -key, "user_id": key % groups})
        for key in range(updates)
    ])
    deliver_s = _seconds(lambda: env.run_for(50.0))
    pushed = collect_report(env).deltas_pushed - pushed_before
    return {
        "continuous.subscribe_host_us": subscribe_s / subscribers * 1e6,
        "continuous.apply_host_us_per_update":
            (attached_s - detached_s) / updates * 1e6,
        "continuous.deliver_host_us_per_delta": deliver_s / pushed * 1e6,
    }


#: (probe, the metrics it reports - all ``None`` when a target is absent)
PROBES = (
    (probe_simtime, ("simtime.host_events_per_s",
                     "simtime.pool_host_us_per_job")),
    (probe_store, ("kvstore.put_host_us", "kvstore.get_host_us",
                   "kvstore.scan_host_rows_per_s",
                   "state.row_build_host_rows_per_s",
                   "state.live_update_host_us",
                   "state.snapshot_write_host_rows_per_s")),
    (probe_network, ("cluster.net_host_us_per_send",)),
    (probe_sql, ("sql.parse_host_us_p50", "sql.plan_host_us_p50",
                 "sql.central_exec_host_rows_per_s")),
    (probe_continuous, ("continuous.subscribe_host_us",
                        "continuous.apply_host_us_per_update",
                        "continuous.deliver_host_us_per_delta")),
)


def run_all(workload, tracer=None) -> tuple[dict, list]:
    """(metric -> value or None, names of absent probes)."""
    tracer = tracer or NO_TRACE
    values: dict = {}
    absent: list = []
    with tracer.span("probes"):
        for probe, metrics in PROBES:
            label = probe.__name__.removeprefix("probe_")
            try:
                with tracer.span(f"probe:{label}"):
                    values.update(probe(workload))
            except (Absent, AttributeError, ImportError, TypeError):
                values.update(dict.fromkeys(metrics))
                absent.extend(metrics)
    return values, absent


# -- metrics read off the spans --------------------------------------------


def span_metrics(result, probed: dict) -> dict:
    """Per-statement host latencies from the op spans, and what the
    layer probes leave unexplained of a blocking ``execute``."""
    durations: dict = {}
    for span in result.tracer.spans:
        if span.name.startswith(("execute:", "submit:")):
            durations.setdefault(span.name, []).append(span.duration)
    out: dict = {}
    execute_ms = {}
    for name, seconds in durations.items():
        kind, _, shape = name.partition(":")
        p50_ms = statistics.median(seconds) * 1e3
        out[f"query.stmt.{shape}.host_ms_p50"] = p50_ms
        if kind == "execute":
            execute_ms[shape] = p50_ms
    needed = ("sql.parse_host_us_p50", "state.row_build_host_rows_per_s",
              "sql.central_exec_host_rows_per_s")
    if execute_ms and all(probed.get(name) for name in needed):
        counted = harness.counts(result)
        scanned = counted["query.rows_scanned_per_op"]
        shipped = counted["query.rows_shipped_per_op"]
        total_ms = sum(execute_ms.values())
        out["query.scan_host_rows_per_s"] = scanned / (total_ms / 1e3)
        # Every scanned row is built once; only shipped rows reach the
        # central executor on the entry node.
        out["query.coord_residual_host_ms"] = (
            total_ms
            - len(execute_ms) * probed["sql.parse_host_us_p50"] / 1e3
            - scanned / probed["state.row_build_host_rows_per_s"] * 1e3
            - shipped / probed["sql.central_exec_host_rows_per_s"] * 1e3
        )
    return out
