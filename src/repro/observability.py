"""Cluster and job observability: utilisation and traffic reports.

Benchmarks and operators of the reproduction often need to know *why* a
configuration behaves as it does — which worker pools are saturated,
how busy the store partition threads are, how much the network carried,
how often key locks contended.  :func:`collect_report` gathers all of
that into one structured snapshot, and :func:`format_report` renders it
as an aligned table.

Every counter of :class:`ClusterReport` is declared once, by
:func:`counter`: its unit, a one-line help text, the footer section and
label it renders under, and how to read it from an
:class:`~repro.env.Environment`.  Collecting, rendering and a JSON dump
(``dataclasses.asdict(report)`` beside each field's ``metadata``) all
derive from that declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable

from .bench.report import format_table
from .env import Environment
from .sql.compiled import like_cache_stats

Reader = Callable[[Environment], "int | float"]


def counter(section: str, label: str, unit: str, help: str,
            read: Reader, default: int | float = 0):
    """Declare one :class:`ClusterReport` counter: it renders as
    ``<value> <label>`` on the footer line of ``section``, and
    :func:`collect_report` sets it to ``read(env)`` (converted to the
    type of ``default``, its value before anything was read)."""
    return field(default=default, metadata={
        "section": section, "label": label, "unit": unit, "help": help,
        "read": read,
    })


def _queries(name: str) -> Reader:
    """A per-query counter totalled over every query service's finished
    queries (``QueryService.totals``)."""
    return lambda env: sum(
        service.totals[name] for service in env.query_services
    )


def _services(name: str) -> Reader:
    return lambda env: sum(
        getattr(service, name) for service in env.query_services
    )


def _optional(owner: str) -> Callable[["str | Callable"], Reader]:
    """Readers of ``env.<owner>``, by attribute path or callable.  The
    owner is ``None`` until it exists (the continuous-query service
    before the first subscription, the sanitizer runtime when unarmed),
    and its counters read zero until then."""
    def reader_of(read: "str | Callable") -> Reader:
        if isinstance(read, str):
            read = attrgetter(read)

        def reader(env: Environment):
            target = getattr(env, owner)
            return 0 if target is None else read(target)

        return reader

    return reader_of


_continuous = _optional("continuous")
_sanitizers = _optional("sanitizers")


def _live_tables(name: str) -> Reader:
    """A counter of every registered live table, totalled."""
    return lambda env: sum(
        getattr(env.store.get_live_table(table), name)
        for table in env.store.live_table_names()
    )


def _plan_sizes(continuous) -> list[int]:
    return [plan.subscriber_count for plan in continuous.plans.values()]


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
    """A point-in-time utilisation snapshot of the whole deployment.

    Counters are cumulative from time 0 unless their help text says
    "now"; the LIKE-cache pair is cumulative for the process."""

    horizon_ms: float
    nodes: list[NodeReport] = field(default_factory=list)
    network_messages: int = counter(
        "network", "messages", "count", "Messages sent between nodes.",
        attrgetter("cluster.network.messages_sent"))
    network_bytes: int = counter(
        "network", "bytes", "B", "Payload bytes sent between nodes.",
        attrgetter("cluster.network.bytes_sent"))
    lock_acquisitions: int = counter(
        "locks", "acquisitions", "count", "Key-lock acquisitions.",
        attrgetter("store.locks.acquisitions"))
    lock_contentions: int = counter(
        "locks", "contended", "count",
        "Key-lock acquisitions that had to queue behind a holder.",
        attrgetter("store.locks.contentions"))
    locks_held: int = counter(
        "locks", "held now", "count",
        "Key locks held now (a finished query holds none: leak check).",
        attrgetter("store.locks.held_count"))
    open_channels: int = counter(
        "network", "channels open now", "count",
        "FIFO network channels tracked now (a finished query closes "
        "its own: leak check).",
        attrgetter("cluster.network.open_channels"))
    query_retries: int = counter(
        "query fault tolerance", "retries", "count",
        "Node deaths that started an in-flight query over on the "
        "survivors.",
        _services("query_retries"))
    query_aborts: int = counter(
        "query fault tolerance", "aborts", "count",
        "Queries failed fast (entry-node death, retry exhaustion, "
        "timeout) instead of completing.",
        _services("query_aborts"))
    query_timeouts: int = counter(
        "query fault tolerance", "of them by timeout", "count",
        "Aborts the query watchdog caused.",
        _services("query_timeouts"))
    query_rows_shipped: int = counter(
        "query shipping", "rows", "count",
        "Scan rows (or partial groups) shipped to entry nodes.",
        _queries("rows_shipped"))
    query_bytes_shipped: int = counter(
        "query shipping", "bytes", "B",
        "Bytes of those shipments, billed from the surviving shape.",
        _queries("bytes_shipped"))
    query_partitions_pruned: int = counter(
        "query shipping", "partitions pruned", "count",
        "Store partitions scans skipped by key or zone-map pruning.",
        _queries("partitions_pruned"))
    scan_batch_reuses: int = counter(
        "live scans", "node batches reused", "count",
        "Whole-node live scans answered by the node's previous batch "
        "(the table unwritten since).",
        _live_tables("scan_reuses"))
    scan_batch_rebuilds: int = counter(
        "live scans", "node batches built", "count",
        "Whole-node live scans that read the node's entries afresh.",
        _live_tables("scan_rebuilds"))
    index_probes: int = counter(
        "indexes", "probes", "count",
        "Secondary-index probes issued by index-backed shard scans.",
        _queries("index_probes"))
    index_rows_read: int = counter(
        "indexes", "rows read", "count",
        "Candidate rows fetched through an index instead of swept.",
        _queries("index_rows_read"))
    rows_skipped_by_index: int = counter(
        "indexes", "rows skipped", "count",
        "Rows index-backed scans never touched.",
        _queries("rows_skipped_by_index"))
    index_maintenance_ops: int = counter(
        "indexes", "maintenance ops", "count",
        "Index-entry touches on the write path, backfills included.",
        lambda env: env.store.index_maintenance_ops())
    index_maintenance_cost: float = counter(
        "indexes", "ms maintenance billed", "ms",
        "Virtual ms those touches bill (index_maintain_entry_ms each).",
        lambda env: (env.store.index_maintenance_ops()
                     * env.costs.index_maintain_entry_ms),
        default=0.0)
    sketch_probes: int = counter(
        "sketches", "probes", "count",
        "Sketch probes issued by APPROX aggregates, one per partition "
        "summarised instead of scanned.",
        _queries("sketch_probes"))
    approx_queries_answered: int = counter(
        "sketches", "APPROX queries answered", "count",
        "Queries answered from sketches.",
        _queries("approx_answered"))
    sketch_maintenance_ops: int = counter(
        "sketches", "maintenance ops", "count",
        "Sketch-entry touches on the write path, backfills included.",
        lambda env: env.store.sketch_maintenance_ops())
    sketch_maintenance_cost: float = counter(
        "sketches", "ms maintenance billed", "ms",
        "Virtual ms those touches bill (sketch_maintain_entry_ms each).",
        lambda env: (env.store.sketch_maintenance_ops()
                     * env.costs.sketch_maintain_entry_ms),
        default=0.0)
    predicates_compiled: int = counter(
        "columnar", "predicates compiled", "count",
        "Pushed conjuncts compiled into closures (fragment-cache "
        "misses).",
        _queries("predicates_compiled"))
    batches_evaluated: int = counter(
        "columnar", "batches", "count",
        "Scan chunks evaluated as columnar batches.",
        _queries("batches_evaluated"))
    compile_cache_hits: int = counter(
        "columnar", "fragment-cache hits", "count",
        "Fragment compilations served by a service's compile cache.",
        _queries("compile_cache_hits"))
    snapshot_plans_built: int = counter(
        "snapshot plans", "built", "count",
        "Shard plans of committed snapshot versions derived afresh: a "
        "service's first read of a version's node shard under a "
        "fragment, placement and DDL epoch.",
        _services("snapshot_plans_built"))
    snapshot_plans_reused: int = counter(
        "snapshot plans", "reused", "count",
        "Shard plans of committed snapshot versions a service reused "
        "instead of deriving them again.",
        _services("snapshot_plans_reused"))
    joins_copartitioned: int = counter(
        "joins", "co-partitioned", "count",
        "Join steps run as a co-partitioned hash join.",
        _queries("joins_copartitioned"))
    joins_broadcast: int = counter(
        "joins", "broadcast", "count",
        "Join steps run as a broadcast hash join.",
        _queries("joins_broadcast"))
    joins_shuffle: int = counter(
        "joins", "shuffle", "count",
        "Join steps run as a shuffle hash join.",
        _queries("joins_shuffle"))
    joins_index_nested: int = counter(
        "joins", "index-nested-loop", "count",
        "Join steps run as an index-nested-loop join.",
        _queries("joins_index_nested"))
    joins_central: int = counter(
        "joins", "central", "count",
        "Join steps of statements joined on the entry node.",
        _queries("joins_central"))
    join_build_rows: int = counter(
        "joins", "build rows", "count",
        "Rows fed into distributed join build indexes.",
        _queries("join_build_rows"))
    join_bytes_broadcast: int = counter(
        "joins", "B broadcast", "B",
        "Build-package bytes replicated by broadcast steps.",
        _queries("join_bytes_broadcast"))
    join_bytes_shuffled: int = counter(
        "joins", "B shuffled", "B",
        "Bytes repartitioned across the wire by shuffle steps.",
        _queries("join_bytes_shuffled"))
    like_cache_hits: int = counter(
        "LIKE cache", "hits", "count",
        "Compiled-LIKE pattern cache hits (process-wide).",
        lambda env: like_cache_stats()[0])
    like_cache_misses: int = counter(
        "LIKE cache", "misses", "count",
        "Compiled-LIKE pattern cache misses (process-wide).",
        lambda env: like_cache_stats()[1])
    active_subscriptions: int = counter(
        "continuous", "subscriptions", "count",
        "Subscriptions active now.",
        _continuous("active_subscriptions"))
    changes_captured: int = counter(
        "continuous", "changes captured", "count",
        "Live-table changes captured for standing queries.",
        _continuous("recorder.changes_captured"))
    deltas_pushed: int = counter(
        "continuous", "deltas pushed", "count",
        "Result deltas sent in delta batches.",
        _continuous("deltas_pushed"))
    push_batches_sent: int = counter(
        "continuous", "batches", "count",
        "Batches sent to subscribers, of every kind.",
        _continuous("batches_sent"))
    push_batches_coalesced: int = counter(
        "continuous", "backlogs coalesced to snapshots", "count",
        "Times a slow subscriber's pending deltas were dropped for one "
        "promised snapshot (per subscriber; unlike coalesced_batches).",
        _continuous("batches_coalesced"))
    subscription_rescans: int = counter(
        "continuous", "rescans", "count",
        "Full re-executions run for rescan-path standing queries.",
        _continuous("rescans_run"))
    shared_plans: int = counter(
        "fan-out", "shared plans", "count",
        "Standing plans maintained now.",
        _continuous("shared_plan_count"))
    subscriptions_per_plan_max: int = counter(
        "fan-out", "max subscribers per plan", "count",
        "Subscribers of the most-shared plan now.",
        _continuous(lambda continuous: max(_plan_sizes(continuous),
                                           default=0)))
    subscriptions_per_plan_mean: float = counter(
        "fan-out", "mean subscribers per plan", "count",
        "Mean subscribers per plan now.",
        _continuous(lambda continuous: sum(_plan_sizes(continuous))
                    / max(len(continuous.plans), 1)),
        default=0.0)
    router_deltas_routed: int = counter(
        "fan-out", "deltas routed", "count",
        "Plan result entries the router delivered to subscribers.",
        _continuous("router.deltas_routed"))
    residual_filter_drops: int = counter(
        "fan-out", "residual drops", "count",
        "Plan result entries a subscriber's residual filter skipped.",
        _continuous("router.residual_filter_drops"))
    coalesced_batches: int = counter(
        "fan-out", "batches sharing a send", "count",
        "Batches merged into another batch's network message to the "
        "same node pair (per send; unlike push_batches_coalesced).",
        _continuous("coalesced_batches"))
    slow_consumers_evicted: int = counter(
        "fan-out", "slow consumers evicted", "count",
        "Subscriptions dropped after a full window outlasted the "
        "eviction countdown.",
        _continuous("slow_consumers_evicted"))
    plan_maintenance_ops: int = counter(
        "fan-out", "plan updates", "count",
        "State updates applied to standing plans, once per plan.",
        _continuous("plan_maintenance_ops"))
    plan_maintenance_cost: float = counter(
        "fan-out", "ms plan maintenance billed", "ms",
        "Virtual ms those plan updates billed to store servers.",
        _continuous("plan_maintenance_ms"), default=0.0)
    sanitizer_violations: int = counter(
        "sanitizers", "invariant violations", "count",
        "Invariant violations the runtime sanitizers detected.",
        _sanitizers(lambda sanitizers: len(sanitizers.violations)))
    lock_order_edges_observed: int = counter(
        "lockdep", "lock-order edges observed", "count",
        "Distinct (held, acquired) lock-class pairs lockdep saw.",
        _sanitizers("lock_order_edges_observed"))
    lockdep_violations: int = counter(
        "lockdep", "inversions", "count",
        "Lock-order inversions lockdep detected.",
        _sanitizers("lockdep_violations"))

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


#: Every counter field of :class:`ClusterReport`, in declaration order.
COUNTER_FIELDS = tuple(
    f for f in fields(ClusterReport) if "read" in f.metadata
)


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
    for f in COUNTER_FIELDS:
        setattr(report, f.name, type(f.default)(f.metadata["read"](env)))
    return report


def format_report(report: ClusterReport) -> str:
    """Render a :class:`ClusterReport` as an aligned text table, with
    one footer line per counter section that has a non-zero counter."""
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
    sections: dict[str, list] = {}
    for f in COUNTER_FIELDS:
        sections.setdefault(f.metadata["section"], []).append(
            (getattr(report, f.name), f.metadata["label"])
        )
    lines = [table]
    for section, counters in sections.items():
        if any(value for value, _label in counters):
            lines.append(f"{section}: " + ", ".join(
                f"{value:,.1f} {label}" if isinstance(value, float)
                else f"{value:,} {label}"
                for value, label in counters
            ))
    return "\n".join(lines)
