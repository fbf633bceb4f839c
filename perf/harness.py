"""Shape of a run: set-up, warm rounds, measured rounds, metrics.

A workload is set up :data:`SETUPS` times (``setup_s`` is the median),
then runs identical **rounds** until ``seconds`` of host time have
passed, never fewer than :data:`VIRT_ROUNDS`.  Every virtual-clock
metric and every count is taken over exactly the first
:data:`VIRT_ROUNDS` rounds, so with a fixed seed they repeat to the
last bit however fast the host is; host-clock metrics use every round.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import pstats
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro import collect_report

from . import stats
from .metrics import PER_LAYER, SHAPES
from .trace import NO_TRACE, Tracer

#: Rounds that define every virtual metric, count and ``virt_digest``.
VIRT_ROUNDS = 20
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: What :func:`calibrate` takes on the machine the baseline was taken
#: on; ``host_ops_per_s`` is scaled to this speed.
CALIBRATION_REFERENCE_S = 2.5e-3


def calibrate() -> float:
    """Host seconds of a fixed interpreter-bound kernel (dict stores,
    tuple and str allocation, iteration, a keyed sort).

    The sandbox's CPU shifts between speed states for minutes at a
    time, moving identical runs by 15 %; this kernel moves with it, so
    scaling a round's rate by the calibration taken just before it
    cancels most of the shift.
    """
    start = time.perf_counter()
    table = {}
    for index in range(20_000):
        table[index & 1023] = (index, str(index & 255))
    total = 0
    for value in table.values():
        total += value[0]
    sorted(table.values(), key=lambda value: value[0])
    return time.perf_counter() - start


@dataclass
class Round:
    """What one measured round did."""

    ops: int = 0
    failed: int = 0
    #: One virtual latency per successful op (failed ops add none).
    virt_ms: list = field(default_factory=list)
    #: Results whose checking is deferred until the clock has stopped.
    pending: object = None
    host_s: float = 0.0
    cpu_s: float = 0.0
    #: Mean of :func:`calibrate` just before and just after the round.
    calibration_s: float = CALIBRATION_REFERENCE_S
    traced: bool = False


class Workload:
    """Base class: sizes are constructor arguments of the subclasses."""

    name = ""
    why = ""
    loop = ""
    #: shape -> SQL of every statement the workload issues (also the
    #: input of the sql-layer probes).
    statements: dict = {}
    #: Live table the state/kvstore probes replay.
    probe_table = ""
    #: Statement the central-executor probe replays over pre-built rows.
    probe_central = ""
    #: Tail percentile of ``virt_op_ms_tail``: fixed per workload from
    #: the op count its sizes give (>= 10 samples beyond it), so that
    #: every seed reports the same percentile.
    tail_pct = 50.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.env = None
        self.job = None
        #: Updates applied (continuous-query denominators).
        self.updates = 0
        self.rows_scanned = 0
        self.scan_ms_billed = 0.0
        self.approx_answered = 0
        #: shape -> virtual latencies of its statements.
        self.stmt_virt: dict = {}

    # -- to implement -----------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, tracer) -> Round:
        raise NotImplementedError

    def verify(self, rnd: Round) -> None:
        """Check ``rnd.pending`` against the reference (untimed)."""

    def finish(self) -> tuple[int, int]:
        """End-of-run invariant checks: ``(checks made, checks failed)``."""
        return 0, 0

    # -- helpers ----------------------------------------------------------

    def note(self, shape: str, execution) -> None:
        """Fold one finished ``QueryExecution`` into the counters."""
        self.rows_scanned += execution.entries_scanned
        self.scan_ms_billed += execution.scan_ms_billed
        self.approx_answered += bool(execution.approx_answered)
        self.stmt_virt.setdefault(shape, []).append(execution.latency_ms)


# -- cumulative counters ---------------------------------------------------


def cumulative(workload: Workload) -> dict:
    """Every public counter the metrics are deltas of, read now."""
    env = workload.env
    report = collect_report(env)
    counts = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in ("nodes", "horizon_ms")
    }
    counts["events"] = env.sim.processed_events
    counts["virt_now"] = env.sim.now
    counts["pools"] = [
        {
            "query": (node.query_pool.total_busy_ms,
                      node.query_pool.workers),
            "processing": (node.processing_pool.total_busy_ms,
                           node.processing_pool.workers),
            "store": (sum(s.total_busy_ms for s in node.store_servers),
                      len(node.store_servers)),
        }
        for node in env.cluster.nodes
    ]
    counts["updates"] = workload.updates
    counts["rows_scanned"] = workload.rows_scanned
    counts["scan_ms_billed"] = workload.scan_ms_billed
    counts["approx_answered"] = workload.approx_answered
    counts["queries"] = sum(
        service.queries_executed for service in env.query_services
    )
    job = workload.job
    counts["checkpoints_completed"] = job.coordinator.completed if job else 0
    counts["checkpoints_skipped"] = job.coordinator.skipped if job else 0
    counts["records_emitted"] = sum(
        source.records_emitted for source in job.source_instances()
    ) if job else 0
    # Positions in the append-only sample lists, so that metrics can be
    # cut to the window between two readings.
    counts["checkpoint_samples"] = len(job.coordinator.samples) if job else 0
    counts["sink_samples"] = len(job.metrics.sink_latencies) if job else 0
    counts["stmt_samples"] = {
        shape: len(samples) for shape, samples in workload.stmt_virt.items()
    }
    counts["snapshot_rows"] = _snapshot_rows(workload)
    return counts


def _busy_share(before: dict, after: dict, kind: str) -> float:
    elapsed = after["virt_now"] - before["virt_now"]
    if elapsed <= 0:
        return 0.0
    # Busy time is a float sum whose order follows process-wide query
    # ids; nine decimals keep the share exact across processes.
    return round(max(
        (b1[kind][0] - b0[kind][0]) / (elapsed * b1[kind][1])
        for b0, b1 in zip(before["pools"], after["pools"])
    ), 9)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- the run ---------------------------------------------------------------


@dataclass
class RunResult:
    workload: Workload
    setup_times: list
    rounds: list
    before: dict
    after: dict
    finish_checks: int
    finish_failed: int
    gc_collections: int
    #: Virtual time when the last measured round ended.
    virt_end: float
    tracer: Tracer | None
    #: Rounds the virtual metrics and counts are taken over.
    virt_rounds: int = VIRT_ROUNDS
    #: Traced runs: package of ``src/repro`` -> share of profiled time.
    layer_shares: dict | None = None


def run(factory, seconds: float, traced: bool = False,
        min_rounds: int = VIRT_ROUNDS, setups: int = SETUPS) -> RunResult:
    """Set up ``factory()`` ``setups`` times, then measure rounds.

    In a traced run every other round runs with the span recorder on:
    the paired medians give ``host.trace_overhead_share`` from one
    process on one warmed-up state.
    """
    setup_times = []
    workload = None
    for _ in range(setups):
        workload = None
        gc.collect()
        start = time.perf_counter()
        workload = factory()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    gc.collect()
    gc.freeze()
    gc_before = sum(gen["collections"] for gen in gc.get_stats())

    tracer = Tracer() if traced else None
    rounds: list[Round] = []
    before = cumulative(workload)
    after = None
    deadline = time.perf_counter() + seconds
    calibrated = calibrate()
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        use_trace = traced and len(rounds) % 2 == 0
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        rnd = workload.round(len(rounds), tracer if use_trace else NO_TRACE)
        rnd.host_s = time.perf_counter() - t0
        rnd.cpu_s = time.process_time() - cpu0
        previous, calibrated = calibrated, calibrate()
        rnd.calibration_s = (previous + calibrated) / 2.0
        rnd.traced = use_trace
        workload.verify(rnd)
        rnd.pending = None
        rounds.append(rnd)
        if len(rounds) == min_rounds:
            after = cumulative(workload)
            # Read where every run has done the same work, not at exit
            # where a faster host has run more rounds.
            after["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc_after = sum(gen["collections"] for gen in gc.get_stats())
    virt_end = workload.env.sim.now
    shares = layer_shares(workload) if traced else None
    checks, failed = workload.finish()
    return RunResult(
        workload=workload, setup_times=setup_times, rounds=rounds,
        before=before, after=after, finish_checks=checks,
        finish_failed=failed, gc_collections=gc_after - gc_before,
        virt_end=virt_end, tracer=tracer, virt_rounds=min_rounds,
        layer_shares=shares)


def layer_shares(workload: Workload, rounds: int = 2) -> dict:
    """Which package of ``src/repro`` the host time of an op goes to.

    Runs ``rounds`` extra rounds under ``cProfile`` (after the measured
    ones, so no metric sees the profiler) and sums each function's own
    time by the package its file is in.  Time inside C functions (heap,
    dict and string methods) goes to the package of whoever called them.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(rounds):
        workload.round(-1, NO_TRACE)
    profiler.disable()
    own: dict = defaultdict(float)
    for function, row in pstats.Stats(profiler).stats.items():
        if function[0].startswith(("~", "<")):
            for caller, (_, _, caller_own, _) in row[4].items():
                own[_layer_of(caller[0])] += caller_own
        else:
            own[_layer_of(function[0])] += row[2]
    total = sum(own.values()) or 1.0
    return {layer: seconds / total
            for layer, seconds in sorted(own.items(),
                                         key=lambda item: -item[1])}


def _layer_of(filename: str) -> str:
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts[:-1]:
        return parts[parts.index("repro") + 1].removesuffix(".py")
    if "perf" in parts[:-1]:
        return "benchmark"
    return "python"


# -- metrics ---------------------------------------------------------------


def end_to_end(result: RunResult) -> dict:
    """The end-to-end metrics plus what qualifies them."""
    rounds = result.rounds
    virt_rounds = result.virt_rounds
    virt = [ms for rnd in rounds[:virt_rounds] for ms in rnd.virt_ms]
    ops = sum(rnd.ops - rnd.failed for rnd in rounds[:virt_rounds])
    summary = stats.summarize(virt, result.workload.tail_pct)
    timed = [rnd for rnd in rounds if not rnd.traced] or rounds
    raw = [rnd.ops / rnd.host_s for rnd in timed]
    scaled = [rate * rnd.calibration_s / CALIBRATION_REFERENCE_S
              for rate, rnd in zip(raw, timed)]
    delta_bytes = (result.after["network_bytes"]
                   - result.before["network_bytes"])
    return {
        "setup_s": statistics.median(result.setup_times),
        "host_ops_per_s": statistics.median(scaled),
        "host_peak_rss_mb": result.after["peak_rss_mb"],
        "virt_op_ms_p50": summary["p50"],
        "virt_op_ms_tail": summary["tail"],
        "virt_bytes_per_op": _share(delta_bytes, ops),
        "detail": {
            "rounds": len(rounds),
            "virt_rounds": virt_rounds,
            "virt_samples": summary["n"],
            "virt_tail_pct": summary["tail_pct"],
            "setups": len(result.setup_times),
            "host_ops_per_s_raw": statistics.median(raw),
            "calibration_ms": statistics.median(
                rnd.calibration_s for rnd in timed) * 1e3,
        },
    }


def counts(result: RunResult) -> dict:
    """Every count / virtual per-layer metric (exact for a seed)."""
    w, b, a = result.workload, result.before, result.after
    rounds = result.rounds[:result.virt_rounds]
    ops = sum(rnd.ops for rnd in rounds) or 1

    def d(key):
        return a[key] - b[key]

    def per_op(key):
        return d(key) / ops

    updates = d("updates")
    compiled = d("predicates_compiled") + d("compile_cache_hits")
    like = d("like_cache_hits") + d("like_cache_misses")
    virt_s = d("virt_now") / 1000.0
    out = {
        "simtime.events_per_op": per_op("events"),
        "dataflow.events_per_record": (
            _share(d("events"), d("records_emitted"))
            if w.job is not None else None),
        "dataflow.checkpoints_completed": d("checkpoints_completed"),
        "dataflow.checkpoints_skipped": d("checkpoints_skipped"),
        "dataflow.virt_sink_ms_p9999": None,
        "dataflow.virt_2pc_ms_p50": None,
        "state.snapshot_rows_per_checkpoint": a["snapshot_rows"],
        "state.virt_2pc_phase1_ms_p50": None,
        "kvstore.lock_acquisitions_per_op": per_op("lock_acquisitions"),
        "kvstore.lock_contention_share": _share(
            d("lock_contentions"), d("lock_acquisitions")),
        "kvstore.index_probes_per_op": per_op("index_probes"),
        "kvstore.index_rows_read_per_op": per_op("index_rows_read"),
        "kvstore.index_maintenance_ops": d("index_maintenance_ops"),
        "cluster.net_messages_per_op": per_op("network_messages"),
        "cluster.query_pool_busy_share": _busy_share(b, a, "query"),
        "cluster.store_pool_busy_share": _busy_share(b, a, "store"),
        "cluster.processing_pool_busy_share": _busy_share(
            b, a, "processing"),
        "sql.compile_cache_hit_share": _share(
            d("compile_cache_hits"), compiled),
        "sql.like_cache_hit_share": _share(d("like_cache_hits"), like),
        "sql.batches_per_op": per_op("batches_evaluated"),
        "query.rows_scanned_per_op": per_op("rows_scanned"),
        "query.rows_shipped_per_op": per_op("query_rows_shipped"),
        "query.bytes_shipped_per_op": per_op("query_bytes_shipped"),
        "query.partitions_pruned_per_op": per_op(
            "query_partitions_pruned"),
        "query.scan_ms_billed_per_op": per_op("scan_ms_billed"),
        "query.virt_ops_per_s": _share(ops, virt_s),
        "query.retries": d("query_retries"),
        "query.aborts": d("query_aborts"),
        "query.timeouts": d("query_timeouts"),
        "query.joins_copartitioned": d("joins_copartitioned"),
        "query.joins_broadcast": d("joins_broadcast"),
        "query.joins_shuffle": d("joins_shuffle"),
        "query.joins_index_nested": d("joins_index_nested"),
        "query.joins_central": d("joins_central"),
        "query.join_build_rows_per_op": per_op("join_build_rows"),
        "query.join_bytes_broadcast_per_op": per_op(
            "join_bytes_broadcast"),
        "query.join_bytes_shuffled_per_op": per_op("join_bytes_shuffled"),
        "continuous.plan_applies_per_update": _share(
            d("plan_maintenance_ops"), updates),
        "continuous.deltas_routed_per_update": _share(
            d("router_deltas_routed"), updates),
        "continuous.residual_drop_share": _share(
            d("residual_filter_drops"),
            d("residual_filter_drops") + d("router_deltas_routed")),
        "continuous.batches_coalesced": d("coalesced_batches"),
        "continuous.evictions": d("slow_consumers_evicted"),
        "continuous.virt_plan_maintenance_ms_per_update": _share(
            d("plan_maintenance_cost"), updates),
        "continuous.shared_plans": a["shared_plans"],
        "approx.sketch_probes_per_op": per_op("sketch_probes"),
        "approx.answered_share": _share(
            d("approx_answered"), d("queries")),
        "approx.sketch_maintenance_ops": d("sketch_maintenance_ops"),
    }
    for shape in SHAPES:
        samples = w.stmt_virt.get(shape, [])[
            b["stmt_samples"].get(shape, 0):a["stmt_samples"].get(shape, 0)]
        out[f"query.stmt.{shape}.virt_ms"] = (
            statistics.median(samples) if samples else None)
    if w.job is not None:
        samples = w.job.coordinator.samples[
            b["checkpoint_samples"]:a["checkpoint_samples"]]
        if samples:
            out["dataflow.virt_2pc_ms_p50"] = statistics.median(
                s.phase2_ms for s in samples)
            out["state.virt_2pc_phase1_ms_p50"] = statistics.median(
                s.phase1_ms for s in samples)
        sink = w.job.metrics.sink_latencies[
            b["sink_samples"]:a["sink_samples"]]
        if sink:
            out["dataflow.virt_sink_ms_p9999"] = stats.percentile(
                sink, 99.99)
    return out


def _snapshot_rows(workload: Workload) -> int:
    store = workload.env.store
    ssid = store.committed_ssid
    if ssid is None:
        return 0
    return sum(
        store.get_snapshot_table(name).snapshot_size(ssid)
        for name in store.snapshot_table_names()
    )


def host_diagnostics(result: RunResult) -> dict:
    rounds = result.rounds
    wall = sum(rnd.host_s for rnd in rounds)
    busy = [rnd for rnd in rounds if rnd.ops]
    plain = [rnd.host_s / rnd.ops for rnd in busy if not rnd.traced]
    traced = [rnd.host_s / rnd.ops for rnd in busy if rnd.traced]
    virt_ms = result.virt_end - result.before["virt_now"]
    return {
        "host.cpu_share": _share(sum(r.cpu_s for r in rounds), wall),
        "host.round_ms_p90": stats.percentile(
            [rnd.host_s * 1000.0 for rnd in rounds], 90.0),
        "host.gc_collections": result.gc_collections,
        "host.trace_overhead_share": (
            statistics.median(traced) / statistics.median(plain) - 1.0
            if traced and plain else None),
        "query.host_ms_per_virt_ms": _share(wall * 1000.0, virt_ms),
    }


def virt_digest(result: RunResult) -> str:
    """Hash of every virtual sample and count of the first rounds."""
    rounds = result.rounds[:result.virt_rounds]
    return stats.digest({
        "virt_ms": [rnd.virt_ms for rnd in rounds],
        "ops": [(rnd.ops, rnd.failed) for rnd in rounds],
        "counts": counts(result),
    })


def per_layer(result: RunResult, probes: dict, spans: dict) -> dict:
    """All per-layer metrics by name (``None`` = not measured here)."""
    merged = dict.fromkeys(metric.name for metric in PER_LAYER)
    merged.update(counts(result))
    merged.update(host_diagnostics(result))
    merged.update(probes)
    merged.update(spans)
    return merged
