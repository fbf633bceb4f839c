"""Configuration objects for the simulated cluster, jobs, and S-QUERY.

All times are expressed in **virtual milliseconds**; all rates in events
per virtual second.  The :class:`CostModel` is the single place where the
reproduction's timing behaviour is calibrated — every simulated service
time, network hop, and store access derives from the constants here, so
experiments remain deterministic and auditable.

Calibration targets (see DESIGN.md §4): medians of a few milliseconds for
source→sink latency, checkpoint 2PC latencies in the 10–60 ms range, SQL
query latencies in the tens-to-hundreds of milliseconds, and direct
object query service times around 0.1 ms for single-key access.  These
put the reproduction in the same regime as the paper's AWS measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError

#: Number of logical store partitions (Hazelcast's default is 271).
DEFAULT_PARTITION_COUNT = 271


@dataclass(frozen=True)
class NetworkConfig:
    """Latency/bandwidth model for inter-node messages.

    Defaults approximate a 10 Gbit/s LAN: ~0.25 ms one-way base latency
    and 1.25e6 bytes per millisecond of throughput.
    """

    local_delay_ms: float = 0.005
    remote_base_ms: float = 0.25
    bytes_per_ms: float = 1.25e6
    jitter_ms: float = 0.05
    #: Upper bound on tracked FIFO channels.  When exceeded, channels
    #: whose last delivery lies in the past are evicted (their ordering
    #: floor can no longer constrain a future send).
    max_channels: int = 4096

    def validate(self) -> None:
        if self.local_delay_ms < 0 or self.remote_base_ms < 0:
            raise ConfigurationError("network delays must be non-negative")
        if self.bytes_per_ms <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.jitter_ms < 0:
            raise ConfigurationError("jitter must be non-negative")
        if self.max_channels < 1:
            raise ConfigurationError("max_channels must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster.

    Mirrors the paper's Table III setup: c5.4xlarge nodes with 16 vCPUs,
    of which 12 process stream records and 4 serve queries and garbage
    collection.  We keep the 12/4 split; the 4 auxiliary workers run
    S-QUERY query tasks, as in the paper.
    """

    nodes: int = 3
    processing_workers_per_node: int = 12
    query_workers_per_node: int = 4
    partition_count: int = DEFAULT_PARTITION_COUNT
    network: NetworkConfig = field(default_factory=NetworkConfig)
    backup_count: int = 1

    @property
    def total_processing_workers(self) -> int:
        return self.nodes * self.processing_workers_per_node

    @property
    def total_query_workers(self) -> int:
        return self.nodes * self.query_workers_per_node

    def validate(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("cluster needs at least one node")
        if self.processing_workers_per_node < 1:
            raise ConfigurationError("need at least one processing worker")
        if self.query_workers_per_node < 0:
            raise ConfigurationError("query workers must be non-negative")
        if self.partition_count < 1:
            raise ConfigurationError("partition count must be positive")
        if not 0 <= self.backup_count < self.nodes:
            # backup_count may be zero (no fault tolerance) but never
            # equal to or larger than the node count.
            raise ConfigurationError("backup_count must be in [0, nodes)")
        self.network.validate()


@dataclass(frozen=True)
class CostModel:
    """Service-time constants for the discrete-event simulation.

    Grouped by subsystem.  The values are calibrated so that the shapes
    of the paper's figures emerge from queueing, alignment stalls, and
    store contention rather than being hard-coded.
    """

    # --- dataflow record processing -------------------------------------
    #: CPU time to process one record at one operator.
    record_service_ms: float = 0.0010
    #: Extra CPU time for a stateful operator's state update.
    state_update_ms: float = 0.0003
    #: Source-side batching delay: records are handed to the dataflow in
    #: small batches, adding a base latency floor (Jet coalesces too).
    source_batch_ms: float = 4.0

    # --- S-QUERY live-state mirroring -----------------------------------
    #: Cost of mirroring one state update into the live IMap (local
    #: partition write + key lock acquire/release).
    live_mirror_ms: float = 0.03
    #: Extra cost when co-partitioning is disabled and the mirror write
    #: crosses the network (ablation of DESIGN.md decision 1).
    live_mirror_remote_ms: float = 0.25
    #: Synchronous hot-standby replication of one state update (§VII-B's
    #: active-replication setup for read-committed live queries).
    replication_sync_ms: float = 0.12

    # --- checkpointing ----------------------------------------------------
    #: Fixed per-instance cost of starting/finishing a snapshot.
    snapshot_fixed_ms: float = 0.35
    #: Per-entry serialisation cost for Jet's opaque snapshot blob.
    snapshot_entry_ms: float = 0.0006
    #: Additional per-entry cost when S-QUERY exposes snapshot entries as
    #: individually queryable rows in the store.
    squery_snapshot_entry_ms: float = 0.0007
    #: Per-entry housekeeping for incremental snapshots (version-chain
    #: index maintenance).  Makes a 100%-delta incremental snapshot more
    #: expensive than a full one, as in Fig. 12.
    incremental_entry_overhead_ms: float = 0.0014
    #: Coordinator-side cost per 2PC round trip (phase 1 and phase 2).
    two_pc_round_ms: float = 0.3

    # --- store access -----------------------------------------------------
    #: Local store partition read/write of a single entry.
    store_entry_ms: float = 0.0003
    #: Scan chunk size: a query releases the partition between chunks so
    #: snapshot writes can interleave (bounds priority inversion).
    scan_chunk_entries: int = 256
    #: Per-entry cost of sweeping a store partition for a query: a
    #: sequential read of the entry's columns into the chunk's batch.
    #: (The per-entry scan rates below are read in ``repro.sql.access``
    #: only, which prices estimates and bills alike.)
    scan_entry_ms: float = 0.0003

    # --- distributed query execution (pushdown) -------------------------
    #: Per-entry cost of evaluating the compiled pushed predicates /
    #: projecting columns over a scan chunk's batch.
    pushed_filter_entry_ms: float = 0.00002
    #: Additional per-entry cost of folding a batch's survivors into
    #: scan-side partial-aggregate state.
    partial_agg_entry_ms: float = 0.00003
    #: Fixed serialisation overhead per shipped row/group under
    #: pushdown (header, key, framing).
    row_overhead_bytes: int = 24
    #: Fixed cost per scan chunk of assembling its column batch.
    batch_fixed_ms: float = 0.002
    #: One-time cost of compiling a fragment's pushed conjuncts into
    #: specialized closures (billed on compile-cache misses only, with
    #: the first chunk of the shard that compiled it).
    predicate_compile_ms: float = 0.05
    #: Capacity of the process-wide compiled-LIKE pattern cache (LRU
    #: keyed by pattern; bounds memory under data-derived patterns).
    like_cache_max_patterns: int = 1024
    #: Bytes per shipped column value under pushdown.  A full-width row
    #: (``row_bytes / column_bytes`` columns) costs about ``row_bytes``,
    #: so the flat legacy billing is the no-projection limit.
    column_bytes: int = 12

    # --- secondary indexes ------------------------------------------------
    #: Fixed cost of one index probe (hash-bucket lookup or sorted-run
    #: bisection) against one partition's index structure.
    index_probe_ms: float = 0.01
    #: Per-candidate-row cost of an index-backed fetch (point read of
    #: the stored entry; four times ``scan_entry_ms`` because the
    #: access is not a sequential partition sweep).
    index_entry_ms: float = 0.0012
    #: Per-entry write-path cost of incrementally maintaining one
    #: secondary index (charged per indexed entry on mirror writes and
    #: snapshot writes).
    index_maintain_entry_ms: float = 0.0004

    # --- approximate query answering (sketches) ---------------------------
    #: Fixed cost of reading one partition's sketch (O(1) counter reads
    #: for count-min, O(registers) merge for HLL, O(capacity) for a
    #: reservoir — all independent of partition size).
    sketch_probe_ms: float = 0.02
    #: Per-entry write-path cost of incrementally maintaining one
    #: sketch (charged per sketched entry on mirror writes and snapshot
    #: writes).
    sketch_maintain_entry_ms: float = 0.0005

    # --- distributed joins -------------------------------------------------
    #: Inserting one row into a hash-join build table.
    join_build_entry_ms: float = 0.0004
    #: Probing the build table with one probe-side row.
    #: Calibrated to ``merge_row_ms``: one hash probe costs about one
    #: entry-node row merge, so the distributed win comes from running
    #: probes on every node in parallel, not from a cheaper per-row op.
    join_probe_entry_ms: float = 0.0001
    #: Per-byte cost estimate of replicating a broadcast build side to
    #: one scan fragment (used by the chooser; actual shipping is
    #: billed through the network model).
    join_broadcast_byte_ms: float = 8e-7
    #: Per-byte cost estimate of repartitioning one side of a
    #: shuffle-hash join to the worker nodes.
    join_shuffle_byte_ms: float = 8e-7

    # --- query service ------------------------------------------------------
    #: Parse/plan/coordinate fixed cost of a SQL query.
    sql_fixed_ms: float = 1.2
    #: Snapshot-id retrieval (atomic read of the committed pointer).
    snapshot_id_read_ms: float = 1.0
    #: Coordinator-side merge cost per result row.
    merge_row_ms: float = 0.0001
    #: Result-set bytes per row (for network shipping cost).
    row_bytes: int = 96
    #: Direct-object interface: fixed per-query cost.
    direct_fixed_ms: float = 0.02
    #: Direct-object per-key cost at the first key; additional keys are
    #: batched with economies of scale (see ``direct_batch_exponent``).
    direct_key_ms: float = 0.084
    #: Exponent of the per-query key-batching economy of scale.  Total
    #: key cost = direct_key_ms * k ** direct_batch_exponent.  Produces
    #: the power-law throughput curve of Fig. 14.
    direct_batch_exponent: float = 0.76

    # --- continuous queries -------------------------------------------------
    #: Maintaining one shared arrangement entry per captured state
    #: update (applied once however many subscriptions read it).
    arrangement_update_ms: float = 0.004
    #: Fixed cost of assembling and shipping one push batch.
    push_batch_fixed_ms: float = 0.05
    #: Per-result-row cost inside a push batch.
    push_delta_row_ms: float = 0.0002
    #: Subscriber-side cost of consuming one batch (the ack delay that
    #: drives the flow-control window).
    subscriber_consume_ms: float = 0.02
    #: Applying one captured state update to a standing plan's
    #: maintained result — charged once per update *per shared plan*,
    #: however many subscribers read it.
    standing_apply_ms: float = 0.002
    #: Routing one result delta to one subscriber (residual hash lookup
    #: plus queue append) — the per-subscriber cost that remains.
    router_entry_ms: float = 0.00005
    #: Default flush interval for ``tier="coalesced"`` subscriptions
    #: (pending deltas merge per result key until the flush).
    push_coalesce_interval_ms: float = 25.0
    #: ``tier="digest"`` period: at most one residual-filtered snapshot
    #: per interval while the result is dirty.
    push_digest_interval_ms: float = 200.0
    #: Bound on one subscriber's queued (pending) deltas; reaching it
    #: degrades the subscriber to a coalesced snapshot (slow-consumer
    #: ladder step 1) instead of growing the queue.
    push_max_pending_deltas: int = 1024
    #: A subscriber whose flow-control window stays full this long is
    #: evicted with a terminal ``BATCH_EVICTED`` batch (ladder step 2),
    #: so one dead client can't pin router state forever.
    push_evict_stalled_after_ms: float = 2000.0

    # --- TSpoon baseline ---------------------------------------------------
    #: TSpoon treats every query as a read-only transaction flowing
    #: through the operator chain: a fixed transactional overhead is paid
    #: before any key is read.
    tspoon_txn_overhead_ms: float = 0.119
    #: TSpoon per-key read cost (same state layout as S-QUERY).
    tspoon_key_ms: float = 0.084
    tspoon_batch_exponent: float = 0.76

    def validate(self) -> None:
        numeric_fields = [
            (name, getattr(self, name))
            for name in self.__dataclass_fields__
        ]
        for name, value in numeric_fields:
            if isinstance(value, (int, float)) and value < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.scan_chunk_entries < 1:
            raise ConfigurationError("scan_chunk_entries must be >= 1")
        if self.like_cache_max_patterns < 1:
            raise ConfigurationError("like_cache_max_patterns must be >= 1")
        if self.push_max_pending_deltas < 1:
            raise ConfigurationError(
                "push_max_pending_deltas must be >= 1"
            )
        if self.push_evict_stalled_after_ms <= 0:
            raise ConfigurationError(
                "push_evict_stalled_after_ms must be positive"
            )
        if not 0 < self.direct_batch_exponent <= 1:
            raise ConfigurationError(
                "direct_batch_exponent must be in (0, 1]"
            )


@dataclass(frozen=True)
class QueryRetryPolicy:
    """Failure handling for in-flight SQL queries (§IV interplay).

    When a node that a query's current attempt touched (a scan shard, a
    point lookup's owner, a join stage) dies before the results are all
    at the entry node, the query service starts the query over on the
    survivors after ``retry_backoff_ms``, up to ``max_retries``
    failure events per query.  Queries whose entry node dies, or that
    exhaust the budget, abort with :class:`~repro.errors.QueryAbortedError`;
    ``query_timeout_ms`` is the watchdog backstop guaranteeing that no
    handle ever hangs, whatever the failure interleaving.
    """

    max_retries: int = 2
    retry_backoff_ms: float = 5.0
    query_timeout_ms: float = 30_000.0

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.retry_backoff_ms < 0:
            raise ConfigurationError("retry_backoff_ms must be >= 0")
        if self.query_timeout_ms <= 0:
            raise ConfigurationError("query_timeout_ms must be positive")


@dataclass(frozen=True)
class IndexSpec:
    """Declarative secondary index on one stateful vertex's state table.

    ``vertex`` may name the vertex or its sanitised table name.  ``kind``
    is ``"hash"`` (equality/IN probes) or ``"sorted"`` (also ranges and
    LIKE-prefix probes).  ``live``/``snapshots`` choose which of the two
    table families carry the index.
    """

    vertex: str
    column: str
    kind: str = "hash"
    live: bool = True
    snapshots: bool = True

    def validate(self) -> None:
        from .kvstore.indexes import INDEX_KINDS, RESERVED_COLUMNS

        if not self.vertex:
            raise ConfigurationError("index vertex must be non-empty")
        if not self.column:
            raise ConfigurationError("index column must be non-empty")
        if self.column in RESERVED_COLUMNS:
            raise ConfigurationError(
                f"column {self.column!r} is reserved (key lookups already "
                "bypass scans)"
            )
        if self.kind not in INDEX_KINDS:
            raise ConfigurationError(
                f"index kind must be one of {INDEX_KINDS}, "
                f"got {self.kind!r}"
            )
        if not (self.live or self.snapshots):
            raise ConfigurationError(
                "index must target live tables, snapshot tables, or both"
            )


@dataclass(frozen=True)
class SketchSpec:
    """Declarative sketch on one stateful vertex's state table.

    ``vertex`` may name the vertex or its sanitised table name.
    ``kind`` is ``"countmin"`` (``APPROX COUNT(*) WHERE col = v``),
    ``"hll"`` (``APPROX COUNT(DISTINCT col)``), or ``"reservoir"``
    (``APPROX SUM/AVG(col)``).  ``live``/``snapshots`` choose which of
    the two table families carry the sketch.
    """

    vertex: str
    column: str
    kind: str
    live: bool = True
    snapshots: bool = True

    def validate(self) -> None:
        from .approx.registry import SKETCH_KINDS
        from .kvstore.indexes import RESERVED_COLUMNS

        if not self.vertex:
            raise ConfigurationError("sketch vertex must be non-empty")
        if not self.column:
            raise ConfigurationError("sketch column must be non-empty")
        if self.column in RESERVED_COLUMNS:
            raise ConfigurationError(
                f"column {self.column!r} is reserved (key lookups "
                "already bypass scans)"
            )
        if self.kind not in SKETCH_KINDS:
            raise ConfigurationError(
                f"sketch kind must be one of {SKETCH_KINDS}, "
                f"got {self.kind!r}"
            )
        if not (self.live or self.snapshots):
            raise ConfigurationError(
                "sketch must target live tables, snapshot tables, or both"
            )


#: The values of ``SQueryConfig.snapshot_backend``.
SNAPSHOT_BACKENDS = ("full", "chain", "lsm")


@dataclass(frozen=True)
class SQueryConfig:
    """Which S-QUERY features are enabled for a job.

    ``live_state`` mirrors every operator state update into a queryable
    live IMap (Table I schema).  ``snapshot_state`` exposes checkpoint
    snapshots as queryable rows (Table II schema).  Disabling both yields
    the vanilla engine ("Jet" in the figures).
    """

    live_state: bool = True
    snapshot_state: bool = True
    #: How many committed snapshot versions to retain (paper default: 2 —
    #: constant memory, one version always complete and queryable).
    retained_snapshots: int = 2
    #: How snapshot versions are kept (:mod:`repro.state.snapshots`):
    #: ``"full"`` copies per checkpoint; ``"chain"`` records only the
    #: changed keys, as per-checkpoint delta chains with backward
    #: reconstruction (the paper's IMDG implementation); ``"lsm"``
    #: records them as LSM runs whose compaction bounds read
    #: amplification (the RocksDB/Cassandra alternative of §VI-B).
    snapshot_backend: str = "full"
    #: Prune/compact chains after this many snapshots: the oldest
    #: deltas are folded into a new base so backward reconstruction
    #: stays bounded.
    prune_chain_length: int = 8
    #: Co-partition state and compute (paper's design decision; the
    #: ablation flips this to route mirror writes over the network).
    colocate_state: bool = True
    #: Active replication (§VII-B "read committed"): every state update
    #: is synchronously applied to a hot-standby replica on another
    #: node.  A failure then promotes the standby instead of rolling
    #: back to the last checkpoint, so committed live reads are never
    #: invalidated by rollback.  Costs an extra synchronous hop per
    #: update (``CostModel.replication_sync_ms``).
    active_replication: bool = False
    #: Secondary indexes to create on registration of the named
    #: vertices (DDL-at-deploy; ``StateStore.create_index`` is the
    #: runtime DDL equivalent).
    indexes: tuple[IndexSpec, ...] = ()
    #: Sketches to create on registration of the named vertices
    #: (DDL-at-deploy; ``StateStore.create_sketch`` is the runtime DDL
    #: equivalent).
    sketches: tuple[SketchSpec, ...] = ()

    def validate(self) -> None:
        for spec in self.indexes:
            spec.validate()
        for sketch_spec in self.sketches:
            sketch_spec.validate()
        if self.retained_snapshots < 1:
            raise ConfigurationError("must retain at least one snapshot")
        if self.prune_chain_length < 1:
            raise ConfigurationError("prune_chain_length must be >= 1")
        if self.active_replication and not self.live_state:
            raise ConfigurationError(
                "active replication requires live_state (the standby is "
                "maintained from the live update stream)"
            )
        if self.snapshot_backend not in SNAPSHOT_BACKENDS:
            raise ConfigurationError(
                "snapshot_backend must be 'full', 'chain' or 'lsm'"
            )


#: S-QUERY with everything off — the vanilla engine used as the "Jet"
#: baseline throughout the evaluation.
VANILLA = SQueryConfig(live_state=False, snapshot_state=False)


@dataclass(frozen=True)
class SanitizerConfig:
    """Runtime invariant sanitizers (``repro.analysis.sanitizers``).

    When ``enabled``, constructing an :class:`~repro.env.Environment`
    installs detection wrappers around the state store, every query
    service, and every node's worker pools and store servers.  The
    individual flags arm one detector each; all are cheap guards except
    ``snapshot_fingerprints``, which hashes committed snapshot contents
    to catch in-place mutation that bypasses the store API (O(state)
    per verification — leave it to targeted tests and the CI smoke).

    ``fail_fast`` raises :class:`~repro.errors.SanitizerError` at the
    violation site; otherwise violations accumulate on the runtime for
    later inspection via :meth:`SanitizerRuntime.verify`.
    """

    enabled: bool = False
    #: Writes/drops against an already-committed snapshot version.
    snapshot_immutability: bool = True
    #: Content hashes of committed snapshots, re-checked at verify().
    snapshot_fingerprints: bool = False
    #: Key locks still held by a query after it completed.
    lock_leaks: bool = True
    #: Isolation/billing misclassification and unbilled shipments.
    billing: bool = True
    #: Pool/server submissions on nodes that are not alive.
    dead_node_scheduling: bool = True
    #: Secondary-index/store coherence: every index must agree with its
    #: backing partitions at verify(), committed snapshot versions must
    #: have frozen indexes, and frozen registries reject mutation.
    index_coherence: bool = True
    #: Sketch/store coherence: every sketch must agree with its backing
    #: partitions at verify(), committed snapshot versions must have
    #: frozen sketches, and frozen sketch registries reject mutation.
    sketch_coherence: bool = True
    #: Runtime lockdep: record the acquisition order of every
    #: (held class, acquired class) lock pair and report — with both
    #: stacks — the first pair observed in both orders (a potential
    #: deadlock even if this run got lucky with timing).
    lockdep: bool = True
    fail_fast: bool = True

    def validate(self) -> None:
        if self.snapshot_fingerprints and not self.snapshot_immutability:
            raise ConfigurationError(
                "snapshot_fingerprints requires snapshot_immutability "
                "(the fingerprint hooks ride on the immutability wraps)"
            )


@dataclass(frozen=True)
class JobConfig:
    """Execution parameters of one streaming job."""

    #: Checkpoint interval in virtual milliseconds (paper default: 1 s).
    checkpoint_interval_ms: float = 1000.0
    #: Default vertex parallelism; ``None`` means one instance per
    #: processing worker (the Jet default).
    parallelism: int | None = None
    #: Deterministic seed for all randomised arrival processes.
    seed: int = 7

    def validate(self) -> None:
        if self.checkpoint_interval_ms <= 0:
            raise ConfigurationError("checkpoint interval must be positive")
        if self.parallelism is not None and self.parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
