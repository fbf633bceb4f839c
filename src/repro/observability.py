"""Cluster and job observability: utilisation and traffic reports.

Benchmarks and operators of the reproduction often need to know *why* a
configuration behaves as it does — which worker pools are saturated,
how busy the store partition threads are, how much the network carried,
how often key locks contended.  :func:`collect_report` gathers all of
that into one structured snapshot, and :func:`format_report` renders it
as an aligned table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bench.report import format_table
from .env import Environment


@dataclass(frozen=True)
class NodeReport:
    """Resource usage of one node over the observed horizon."""

    node_id: int
    alive: bool
    processing_utilization: float
    processing_jobs: int
    query_utilization: float
    query_jobs: int
    store_utilization: float
    store_jobs: int


@dataclass
class ClusterReport:
    """A point-in-time utilisation snapshot of the whole deployment."""

    horizon_ms: float
    nodes: list[NodeReport] = field(default_factory=list)
    network_messages: int = 0
    network_bytes: int = 0
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    locks_held: int = 0
    open_channels: int = 0
    # query fault tolerance (zero when no failures were injected)
    query_retries: int = 0
    query_aborts: int = 0
    query_timeouts: int = 0
    # distributed query execution (pushdown / pruning effectiveness)
    query_rows_shipped: int = 0
    query_bytes_shipped: int = 0
    query_partitions_pruned: int = 0
    # secondary indexes (access paths and write-path maintenance)
    index_probes: int = 0
    index_rows_read: int = 0
    rows_skipped_by_index: int = 0
    index_maintenance_ops: int = 0
    index_maintenance_cost: float = 0.0
    # approximate query answering (sketch probes and maintenance)
    sketch_probes: int = 0
    approx_queries_answered: int = 0
    sketch_maintenance_ops: int = 0
    sketch_maintenance_cost: float = 0.0
    # columnar scan execution (compile-once fragments)
    predicates_compiled: int = 0
    batches_evaluated: int = 0
    compile_cache_hits: int = 0
    # distributed joins (steps per chosen physical strategy)
    joins_copartitioned: int = 0
    joins_broadcast: int = 0
    joins_shuffle: int = 0
    joins_index_nested: int = 0
    joins_central: int = 0
    join_build_rows: int = 0
    join_bytes_broadcast: int = 0
    join_bytes_shuffled: int = 0
    # compiled-LIKE pattern cache (process-wide, LRU-bounded)
    like_cache_hits: int = 0
    like_cache_misses: int = 0
    # continuous queries (zero when the subsystem is unused)
    active_subscriptions: int = 0
    changes_captured: int = 0
    deltas_pushed: int = 0
    push_batches_sent: int = 0
    push_batches_coalesced: int = 0
    subscription_rescans: int = 0
    # continuous-query fan-out (plan dedup + router + tiered delivery)
    shared_plans: int = 0
    subscriptions_per_plan_max: int = 0
    subscriptions_per_plan_mean: float = 0.0
    router_deltas_routed: int = 0
    residual_filter_drops: int = 0
    coalesced_batches: int = 0
    slow_consumers_evicted: int = 0
    plan_maintenance_ops: int = 0
    plan_maintenance_cost: float = 0.0
    # runtime sanitizers (zero unless armed via SanitizerConfig)
    sanitizer_violations: int = 0
    # lockdep: lock-acquisition-order tracking (zero unless armed)
    lock_order_edges_observed: int = 0
    lockdep_violations: int = 0

    def hottest_pool(self) -> tuple[int, str, float]:
        """(node, pool kind, utilisation) of the busiest worker pool."""
        best = (0, "processing", 0.0)
        for node in self.nodes:
            if node.processing_utilization > best[2]:
                best = (node.node_id, "processing",
                        node.processing_utilization)
            if node.query_utilization > best[2]:
                best = (node.node_id, "query", node.query_utilization)
            if node.store_utilization > best[2]:
                best = (node.node_id, "store", node.store_utilization)
        return best


def collect_report(env: Environment) -> ClusterReport:
    """Snapshot resource usage from time 0 to the current virtual time."""
    horizon = max(env.sim.now, 1e-9)
    report = ClusterReport(horizon_ms=horizon)
    for node in env.cluster.nodes:
        store_busy = sum(s.total_busy_ms for s in node.store_servers)
        store_capacity = horizon * len(node.store_servers)
        report.nodes.append(NodeReport(
            node_id=node.node_id,
            alive=node.alive,
            processing_utilization=node.processing_pool.utilization(
                horizon
            ),
            processing_jobs=node.processing_pool.jobs_served,
            query_utilization=node.query_pool.utilization(horizon),
            query_jobs=node.query_pool.jobs_served,
            store_utilization=store_busy / store_capacity,
            store_jobs=sum(s.jobs_served for s in node.store_servers),
        ))
    report.network_messages = env.cluster.network.messages_sent
    report.network_bytes = env.cluster.network.bytes_sent
    report.lock_acquisitions = env.store.locks.acquisitions
    report.lock_contentions = env.store.locks.contentions
    report.locks_held = env.store.locks.held_count
    report.open_channels = env.cluster.network.open_channels
    for service in getattr(env, "query_services", ()):
        report.query_retries += service.query_retries
        report.query_aborts += service.query_aborts
        report.query_timeouts += service.query_timeouts
        report.query_rows_shipped += service.rows_shipped_total
        report.query_bytes_shipped += service.bytes_shipped_total
        report.query_partitions_pruned += service.partitions_pruned_total
        report.index_probes += service.index_probes_total
        report.index_rows_read += service.index_rows_read_total
        report.rows_skipped_by_index += service.rows_skipped_by_index_total
        report.sketch_probes += service.sketch_probes_total
        report.approx_queries_answered += \
            service.approx_queries_answered_total
        report.predicates_compiled += service.predicates_compiled_total
        report.batches_evaluated += service.batches_evaluated_total
        report.compile_cache_hits += service.compile_cache_hits_total
        report.joins_copartitioned += service.joins_copartitioned_total
        report.joins_broadcast += service.joins_broadcast_total
        report.joins_shuffle += service.joins_shuffle_total
        report.joins_index_nested += service.joins_index_nested_total
        report.joins_central += service.joins_central_total
        report.join_build_rows += service.join_build_rows_total
        report.join_bytes_broadcast += service.join_bytes_broadcast_total
        report.join_bytes_shuffled += service.join_bytes_shuffled_total
    report.index_maintenance_ops = env.store.index_maintenance_ops()
    report.index_maintenance_cost = (
        report.index_maintenance_ops * env.costs.index_maintain_entry_ms
    )
    report.sketch_maintenance_ops = env.store.sketch_maintenance_ops()
    report.sketch_maintenance_cost = (
        report.sketch_maintenance_ops * env.costs.sketch_maintain_entry_ms
    )
    continuous = getattr(env, "continuous", None)
    if continuous is not None:
        report.active_subscriptions = continuous.active_subscriptions
        report.changes_captured = continuous.recorder.changes_captured
        report.deltas_pushed = continuous.deltas_pushed
        report.push_batches_sent = continuous.batches_sent
        report.push_batches_coalesced = continuous.batches_coalesced
        report.subscription_rescans = continuous.rescans_run
        report.shared_plans = len(continuous.plans)
        sizes = [
            plan.subscriber_count
            for plan in continuous.plans.values()
        ]
        if sizes:
            report.subscriptions_per_plan_max = max(sizes)
            report.subscriptions_per_plan_mean = sum(sizes) / len(sizes)
        report.router_deltas_routed = continuous.router.deltas_routed
        report.residual_filter_drops = \
            continuous.router.residual_filter_drops
        report.coalesced_batches = continuous.coalesced_batches
        report.slow_consumers_evicted = continuous.slow_consumers_evicted
        report.plan_maintenance_ops = continuous.plan_maintenance_ops
        report.plan_maintenance_cost = continuous.plan_maintenance_ms
    # Process-wide cache (shared across environments), documented as
    # such: the counters are cumulative for the process.
    from .sql.compiled import like_cache_stats

    like_hits, like_misses = like_cache_stats()
    report.like_cache_hits = like_hits
    report.like_cache_misses = like_misses
    sanitizers = getattr(env, "sanitizers", None)
    if sanitizers is not None:
        report.sanitizer_violations = len(sanitizers.violations)
        report.lock_order_edges_observed = getattr(
            sanitizers, "lock_order_edges_observed", 0
        )
        report.lockdep_violations = getattr(
            sanitizers, "lockdep_violations", 0
        )
    return report


def format_report(report: ClusterReport) -> str:
    """Render a :class:`ClusterReport` as an aligned text table."""
    rows = []
    for node in report.nodes:
        rows.append([
            node.node_id,
            "up" if node.alive else "DOWN",
            f"{node.processing_utilization:.1%}",
            node.processing_jobs,
            f"{node.query_utilization:.1%}",
            node.query_jobs,
            f"{node.store_utilization:.1%}",
            node.store_jobs,
        ])
    table = format_table(
        ["node", "status", "proc util", "proc jobs", "query util",
         "query jobs", "store util", "store ops"],
        rows,
        title=(f"cluster utilisation over {report.horizon_ms:.0f} ms "
               "virtual"),
    )
    footer = (
        f"network: {report.network_messages:,} messages, "
        f"{report.network_bytes:,} bytes | locks: "
        f"{report.lock_acquisitions:,} acquisitions, "
        f"{report.lock_contentions:,} contended"
    )
    if report.query_rows_shipped or report.query_partitions_pruned:
        footer += (
            f"\nquery shipping: {report.query_rows_shipped:,} rows, "
            f"{report.query_bytes_shipped:,} bytes | "
            f"{report.query_partitions_pruned:,} partitions pruned"
        )
    if report.index_probes or report.index_maintenance_ops:
        footer += (
            f"\nindexes: {report.index_probes:,} probes, "
            f"{report.index_rows_read:,} rows read, "
            f"{report.rows_skipped_by_index:,} rows skipped | "
            f"{report.index_maintenance_ops:,} maintenance ops "
            f"({report.index_maintenance_cost:,.1f} ms billed)"
        )
    if report.sketch_probes or report.sketch_maintenance_ops:
        footer += (
            f"\nsketches: {report.sketch_probes:,} probes answered "
            f"{report.approx_queries_answered:,} APPROX queries | "
            f"{report.sketch_maintenance_ops:,} maintenance ops "
            f"({report.sketch_maintenance_cost:,.1f} ms billed)"
        )
    if report.batches_evaluated or report.predicates_compiled:
        footer += (
            f"\ncolumnar: {report.batches_evaluated:,} batches, "
            f"{report.predicates_compiled:,} predicates compiled "
            f"({report.compile_cache_hits:,} fragment-cache hits) | "
            f"LIKE cache: {report.like_cache_hits:,} hits, "
            f"{report.like_cache_misses:,} misses"
        )
    distributed_join_steps = (
        report.joins_copartitioned + report.joins_broadcast
        + report.joins_shuffle + report.joins_index_nested
    )
    if distributed_join_steps or report.joins_central:
        footer += (
            f"\njoins: {report.joins_copartitioned:,} co-partitioned, "
            f"{report.joins_broadcast:,} broadcast, "
            f"{report.joins_shuffle:,} shuffle, "
            f"{report.joins_index_nested:,} index-nested-loop, "
            f"{report.joins_central:,} central | "
            f"{report.join_build_rows:,} build rows, "
            f"{report.join_bytes_broadcast:,} B broadcast, "
            f"{report.join_bytes_shuffled:,} B shuffled"
        )
    if report.query_retries or report.query_aborts:
        footer += (
            f"\nquery fault tolerance: {report.query_retries:,} "
            f"retries, {report.query_aborts:,} aborts "
            f"({report.query_timeouts:,} by timeout)"
        )
    if report.active_subscriptions or report.push_batches_sent:
        footer += (
            f"\ncontinuous: {report.active_subscriptions:,} "
            f"subscriptions, {report.changes_captured:,} changes "
            f"captured, {report.deltas_pushed:,} deltas pushed in "
            f"{report.push_batches_sent:,} batches "
            f"({report.push_batches_coalesced:,} coalesced), "
            f"{report.subscription_rescans:,} rescans"
        )
    if report.shared_plans or report.router_deltas_routed:
        footer += (
            f"\nfan-out: {report.shared_plans:,} shared plans "
            f"(max {report.subscriptions_per_plan_max:,} / mean "
            f"{report.subscriptions_per_plan_mean:,.1f} subscribers), "
            f"{report.router_deltas_routed:,} deltas routed, "
            f"{report.residual_filter_drops:,} residual drops, "
            f"{report.coalesced_batches:,} batches coalesced, "
            f"{report.slow_consumers_evicted:,} slow consumers evicted"
        )
    if report.sanitizer_violations:
        footer += (
            f"\nsanitizers: {report.sanitizer_violations:,} invariant "
            "violations detected"
        )
    if report.lock_order_edges_observed or report.lockdep_violations:
        footer += (
            f"\nlockdep: {report.lock_order_edges_observed:,} "
            f"lock-order edges observed, {report.lockdep_violations:,} "
            "inversions"
        )
    return f"{table}\n{footer}"
