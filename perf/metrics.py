"""The benchmark's metric registry: names, units, directions, bounds.

``BENCHMARK.json`` mirrors :data:`END_TO_END` and the ``contract``
subset of :data:`PER_LAYER` (``perf/tests/test_schema.py`` checks that
they agree).  A per-layer metric is in the contract subset when every
workload measures it; metrics that exist only for some workloads
(per-statement latencies, checkpoint timings) are reported by the
traced pass as ``null`` elsewhere and stay out of ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: name -> (unit, better, regression bound as a share of the parent's
#: median).  Bounds are at least two to three times the widest spread
#: seen over ten seeds on the sandbox (``host_ops_per_s`` 1.5-10 %,
#: ``virt_op_ms_p50`` up to 5.8 % on ``stream_q6``, which runs its
#: workers at 0.94 utilisation); for one seed the virtual metrics are
#: exact.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "host_ops_per_s": ("1/s", "higher", 0.20),
    "host_peak_rss_mb": ("MB", "lower", 0.10),
    "virt_op_ms_p50": ("ms", "lower", 0.20),
    "virt_op_ms_tail": ("ms", "lower", 0.15),
    "virt_bytes_per_op": ("B", "lower", 0.10),
}

#: The 18 statement shapes, in workload order.
SHAPES = (
    "filter", "groupby", "topk", "index_range", "approx_distinct",
    "float_avg",
    "join_copart", "join_broadcast", "join_shuffle",
    "sql_point", "sql_in", "direct_1", "direct_10", "direct_100",
    "q1", "q2", "q3", "q4",
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    source: str          # "count" | "probe" | "span" | "benchmark"
    contract: bool = True


_m = LayerMetric


PER_LAYER = (
    # simtime
    _m("simtime.events_per_op", "count", "lower", "count"),
    _m("simtime.host_events_per_s", "1/s", "higher", "probe"),
    _m("simtime.pool_host_us_per_job", "us", "lower", "probe"),
    # dataflow
    _m("dataflow.events_per_record", "count", "lower", "count", False),
    _m("dataflow.checkpoints_completed", "count", "higher", "count"),
    _m("dataflow.checkpoints_skipped", "count", "lower", "count"),
    _m("dataflow.virt_sink_ms_p9999", "ms", "lower", "count", False),
    _m("dataflow.virt_2pc_ms_p50", "ms", "lower", "count", False),
    # state
    _m("state.row_build_host_rows_per_s", "1/s", "higher", "probe"),
    _m("state.live_update_host_us", "us", "lower", "probe"),
    _m("state.snapshot_write_host_rows_per_s", "1/s", "higher", "probe"),
    _m("state.snapshot_rows_per_checkpoint", "count", "lower", "count"),
    _m("state.virt_2pc_phase1_ms_p50", "ms", "lower", "count", False),
    # kvstore
    _m("kvstore.put_host_us", "us", "lower", "probe"),
    _m("kvstore.get_host_us", "us", "lower", "probe"),
    _m("kvstore.scan_host_rows_per_s", "1/s", "higher", "probe"),
    _m("kvstore.lock_acquisitions_per_op", "count", "lower", "count"),
    _m("kvstore.lock_contention_share", "ratio", "lower", "count"),
    _m("kvstore.index_probes_per_op", "count", "lower", "count"),
    _m("kvstore.index_rows_read_per_op", "count", "lower", "count"),
    _m("kvstore.index_maintenance_ops", "count", "lower", "count"),
    # cluster
    _m("cluster.net_messages_per_op", "count", "lower", "count"),
    _m("cluster.net_host_us_per_send", "us", "lower", "probe"),
    _m("cluster.query_pool_busy_share", "ratio", "lower", "count"),
    _m("cluster.store_pool_busy_share", "ratio", "lower", "count"),
    _m("cluster.processing_pool_busy_share", "ratio", "lower", "count"),
    # sql
    _m("sql.parse_host_us_p50", "us", "lower", "probe"),
    _m("sql.plan_host_us_p50", "us", "lower", "probe"),
    _m("sql.central_exec_host_rows_per_s", "1/s", "higher", "probe"),
    _m("sql.compile_cache_hit_share", "ratio", "higher", "count"),
    _m("sql.like_cache_hit_share", "ratio", "higher", "count"),
    _m("sql.batches_per_op", "count", "lower", "count"),
    # query
    *(_m(f"query.stmt.{shape}.host_ms_p50", "ms", "lower", "span", False)
      for shape in SHAPES),
    *(_m(f"query.stmt.{shape}.virt_ms", "ms", "lower", "count", False)
      for shape in SHAPES),
    _m("query.scan_host_rows_per_s", "1/s", "higher", "span", False),
    _m("query.rows_scanned_per_op", "count", "lower", "count"),
    _m("query.rows_shipped_per_op", "count", "lower", "count"),
    _m("query.bytes_shipped_per_op", "B", "lower", "count"),
    _m("query.partitions_pruned_per_op", "count", "higher", "count"),
    _m("query.scan_ms_billed_per_op", "ms", "lower", "count", False),
    _m("query.coord_residual_host_ms", "ms", "lower", "span", False),
    _m("query.host_ms_per_virt_ms", "ratio", "lower", "benchmark"),
    _m("query.virt_ops_per_s", "1/s", "higher", "count"),
    _m("query.retries", "count", "lower", "count"),
    _m("query.aborts", "count", "lower", "count"),
    _m("query.timeouts", "count", "lower", "count"),
    _m("query.joins_copartitioned", "count", "higher", "count"),
    _m("query.joins_broadcast", "count", "higher", "count"),
    _m("query.joins_shuffle", "count", "higher", "count"),
    _m("query.joins_index_nested", "count", "higher", "count"),
    _m("query.joins_central", "count", "lower", "count"),
    _m("query.join_build_rows_per_op", "count", "lower", "count"),
    _m("query.join_bytes_broadcast_per_op", "B", "lower", "count"),
    _m("query.join_bytes_shuffled_per_op", "B", "lower", "count"),
    # continuous
    _m("continuous.subscribe_host_us", "us", "lower", "probe"),
    _m("continuous.apply_host_us_per_update", "us", "lower", "probe"),
    _m("continuous.deliver_host_us_per_delta", "us", "lower", "probe"),
    _m("continuous.plan_applies_per_update", "count", "lower", "count"),
    _m("continuous.deltas_routed_per_update", "count", "lower", "count"),
    _m("continuous.residual_drop_share", "ratio", "lower", "count"),
    _m("continuous.batches_coalesced", "count", "lower", "count"),
    _m("continuous.evictions", "count", "lower", "count"),
    _m("continuous.virt_plan_maintenance_ms_per_update", "ms", "lower",
       "count", False),
    _m("continuous.shared_plans", "count", "lower", "count"),
    # approx
    _m("approx.sketch_probes_per_op", "count", "lower", "count"),
    _m("approx.answered_share", "ratio", "higher", "count"),
    _m("approx.sketch_maintenance_ops", "count", "lower", "count"),
    # host (diagnostic)
    _m("host.cpu_share", "ratio", "higher", "benchmark"),
    _m("host.round_ms_p90", "ms", "lower", "benchmark"),
    _m("host.gc_collections", "count", "lower", "benchmark"),
    _m("host.trace_overhead_share", "ratio", "lower", "benchmark"),
)

LAYER_METRIC = {metric.name: metric for metric in PER_LAYER}
CONTRACT_PER_LAYER = tuple(m.name for m in PER_LAYER if m.contract)
