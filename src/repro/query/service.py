"""The SQL query service.

A query runs as a small simulated workflow:

1. fixed parse/plan cost on the entry node's query worker pool;
2. snapshot-id retrieval (atomic committed-pointer read) when any
   snapshot table is referenced and no explicit id was given;
3. per-node chunked scans of every referenced table on the store
   partition servers — queries release the partition between chunks, so
   concurrent checkpoint writes interleave instead of starving
   (`CostModel.scan_chunk_entries`);
4. result shipping to the entry node over the network;
5. a merge/join/aggregate step on the entry node, after which the real
   SQL executor produces the actual rows.

Live rows are materialised per node at that node's scan completion time
(a fuzzy, read-uncommitted view); snapshot rows are immutable per id, so
they are consistent regardless of timing (§VII).

The whole workflow is **failure-aware** (§IV interplay): the service
registers a cluster failure listener and tracks which nodes every
in-flight execution depends on.  Every deferred piece of a query's
work is scheduled through its one :class:`_Attempt`; the death of a node
the attempt dispatched to, before its results are all at the entry
node, voids the attempt — none of its callbacks runs any more — and the
whole query is either re-dispatched onto the survivors after
``QueryRetryPolicy.retry_backoff_ms`` (live tables re-scan the
reassigned partitions, snapshot tables re-read from the promoted
replicas) or aborted with :class:`~repro.errors.QueryAbortedError` when
the entry node itself died or the retry budget ran out.  A watchdog
timeout (``query_timeout_ms``) backstops every query, so a handle never
hangs regardless of the failure interleaving.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import Callable, Sequence

from ..approx.planning import analyze_approx_select
from ..config import QueryRetryPolicy
from ..errors import (
    NoCommittedSnapshotError,
    QueryAbortedError,
    QueryError,
    QueryTimeoutError,
    SnapshotNotFoundError,
)
from ..simtime import EventHandle
from ..sql import EvalContext
from ..sql.ast import Expr, Select, Union
from ..sql.batch import (
    WHERE,
    CompiledFragment,
    compile_fragment,
    finish_groups,
    sweep_shard,
)
from ..sql.executor import (
    QueryResult,
    execute_select,
    output_column_name,
)
from ..sql.access import (
    AccessPath,
    SketchCandidate,
    choose_access_path,
    index_path,
    merge_ms,
    point_read_ms,
    pushed_stage,
    shard_read_ms,
    shipped_bytes,
    sketch_path,
    snapshot_id_read_ms,
    statement_ms,
)
from ..sql.fragments import (
    DistributedPlan,
    KeySet,
    PartialGroups,
    ScanFragment,
    extract_key_filter,
    merge_partial_groups,
    split_select,
)
from ..sql.lru import LruCache
from ..sql.planner import (
    BatchCatalog,
    column_equality,
    split_conjuncts,
    validate_select,
)
from ..sql.statements import parse_cached
from ..state.isolation import IsolationLevel, isolation_of_query
from ..state.rows import ColumnBatch
from ..state.view import TableView
from .joins import (
    JOIN_COUNTERS,
    JoinPlan,
    plan_distributed_joins,
    start_join_pipeline,
)

#: Beyond this many pinned keys a multi-point get degenerates into a
#: scan (pruned by partition instead of fetched key-by-key).
MAX_POINT_KEYS = 64

_IMMUTABLE = attrgetter("immutable")

#: The per-query counters every service also totals over its finished
#: queries (``QueryService.totals``).  What each one counts is the help
#: text of the ``ClusterReport`` field that reads the total.
COUNTERS = (
    "rows_shipped", "bytes_shipped", "partitions_pruned",
    "index_probes", "index_rows_read", "rows_skipped_by_index",
    "sketch_probes", "approx_answered",
    "predicates_compiled", "batches_evaluated", "compile_cache_hits",
    "joins_copartitioned", "joins_broadcast", "joins_shuffle",
    "joins_index_nested", "joins_central",
    "join_build_rows", "join_bytes_broadcast", "join_bytes_shuffled",
)


class QueryExecution:
    """Handle for one in-flight or completed query.

    Each name in :data:`COUNTERS` reads the class-level zero until the
    query first counts it, so constructing a handle pays nothing for
    them.  ``approx_answered`` becomes ``True`` when the result came
    from sketches: the answer carries ``error_bound`` / ``confidence``
    columns instead of touching any rows.
    """

    def __init__(self, sql: str, submitted_ms: float,
                 isolation: IsolationLevel, qid: int) -> None:
        self.sql = sql
        #: Unique in its environment — unlike ``id(self)``, never
        #: recycled, so the network channels of two queries can't
        #: collide, whichever of the environment's services ran them.
        self.qid = qid
        self.submitted_ms = submitted_ms
        self.isolation = isolation
        self.snapshot_id: int | None = None
        self.completed_ms: float | None = None
        self.result: QueryResult | None = None
        self.error: Exception | None = None
        #: Chosen strategy per join step (empty until planned;
        #: ``["central", ...]`` when the statement runs centrally).
        self.join_strategies: list[str] = []
        #: Simulated milliseconds billed to store servers for this
        #: query's scan chunks — the scan-path latency the ablation
        #: benchmarks compare.
        self.scan_ms_billed = 0.0
        self.entries_scanned = 0
        #: Entries billed to store scan servers (== entries_scanned for
        #: scan queries; point lookups bill a fixed seek instead).
        self.entries_billed = 0
        self.materialize = True
        self.all_versions = False
        self.snapshot_versions: list[int] | None = None
        #: Node coordinating this query (plan, merge, result delivery).
        self.entry_node: int | None = None
        #: True when a live (non-snapshot) query was in flight across a
        #: rollback recovery: its fuzzy view may span an epoch boundary,
        #: not just pre-failure fuzziness (the Fig. 5 dirty-read case).
        self.observed_rollback = False
        #: Failure events this query survived via rescheduling.
        self.retries = 0
        #: FIFO network channels opened for this query; closed on finish.
        self.channels: set = set()
        #: The pinned keys of a (multi-)point get (``None`` if none).
        self.point_keys: tuple | None = None
        self.on_done: Callable[["QueryExecution"], None] | None = None
        #: The timeout backstop, cancelled when the query finishes so
        #: the event queue lets go of a finished execution.
        self.watchdog: EventHandle | None = None

    @property
    def done(self) -> bool:
        return self.completed_ms is not None

    @property
    def latency_ms(self) -> float:
        if self.completed_ms is None:
            raise QueryError("query still running")
        return self.completed_ms - self.submitted_ms

    def _finish(self, now: float, result: QueryResult | None,
                error: Exception | None) -> None:
        self.completed_ms = now
        self.result = result
        self.error = error
        if self.on_done is not None:
            self.on_done(self)


for _name in COUNTERS:
    setattr(QueryExecution, _name, 0)


@dataclass
class _ShardPlan:
    """How one node's shard of one table will be read
    (``QueryService._scan_selection``).

    ``path`` is the priced choice — a point get, a sketch probe, a scan
    or an index read: the store servers bill it (a scan's or index
    read's ``candidates`` in chunks, after its ``probes``), and
    ``fetch`` materialises exactly those rows at completion time.
    """

    path: AccessPath
    fetch: Callable[[], ColumnBatch] | None
    pruned: int
    fragment: ScanFragment | None
    #: Why no index was priced against the scan (``None``: one was, or
    #: the read is no scan).
    veto: str | None
    #: The node's row count, what a pure-load read ships: counted once
    #: for a snapshot plan (``None``: counted when the read completes).
    rows: int | None = None


class _ShardError:
    """A shard's least error, shipped like a payload (on the attempt,
    so retry-compatible) instead of raised in a store server's callback.
    Its ``rank`` is ``(phase, table's FROM position, node id, entry)``
    (a failed fetch ranks before the shard's rows); the entry node
    raises the least (:meth:`QueryService._first_error`), as the
    contract in :mod:`repro.sql.batch` orders errors."""

    __slots__ = ("rank", "error")

    def __init__(self, record: "_InFlight", table_name: str, node_id: int,
                 error: Exception, phase: int = WHERE,
                 entry: int = -1) -> None:
        self.rank = (phase,
                     record.plan.select.table_names().index(table_name),
                     node_id, entry)
        self.error = error


@dataclass(frozen=True)
class _SketchAnswer:
    """A sketch-answered APPROX aggregate, computed at plan time.

    Live sketches give a fuzzy read-uncommitted view — exactly the
    isolation a live scan already gives — and snapshot sketches are
    frozen at commit, so computing the merged estimate once up front is
    sound; the per-node shards then only bill probe costs and ship a
    marker payload through the normal scan machinery.
    """

    table: str
    #: The chooser's pick over the whole table, with what it rejected.
    path: AccessPath
    result: QueryResult


@dataclass(frozen=True)
class PhysicalPlan:
    """Everything a query decides before it reads, made once its
    snapshot versions are resolved (``QueryService._physical_plan``):
    what ``submit`` runs and ``explain`` renders."""

    select: Select | Union
    #: table -> its view (FROM order), bound to the resolved versions.
    views: dict[str, TableView]
    #: The keys a (multi-)point get fetches (``None``: it reads shards).
    point_keys: tuple | None
    #: Scan fragments + final fragment (``None``: pushdown is disabled
    #: or the statement is not eligible).
    pushdown: DistributedPlan | None
    #: An APPROX aggregate's sketch answer, or why the exact paths
    #: answer it (``None``: no APPROX aggregate).
    sketch: _SketchAnswer | str | None
    #: How the statement's joins run (``None``: it joins nothing).
    join: JoinPlan | None
    #: The reads dispatched first, in order: a point get per owner of
    #: the keys, or a shard per target node of every scanned table (an
    #: index-nested-loop build side is read mid-join).
    shards: tuple[tuple[str, int, _ShardPlan], ...]
    #: Partitions on the nodes no shard targets, all skipped.
    pruned: int

    def fragment(self, table_name: str) -> ScanFragment | None:
        """What the shards of ``table_name`` execute (``None``: nothing
        is pushed — they ship whole rows)."""
        return _pushed_fragment(self.pushdown, table_name)


class _Attempt:
    """A query's try at its distributed work, and its only door to the
    cluster.

    Every store-server job (:meth:`bill`, :meth:`scan`), entry-pool job
    (:meth:`pool`) and network message (:meth:`send`) of a query is
    scheduled here, and every fan-in is a :meth:`gather`.  Each checks
    :meth:`_run`'s guard before its continuation, dropping it once the
    execution is done or the attempt was voided — so no callback of a
    lost attempt can collect, count or ship anything, whoever wrote it.

    A query has one attempt object; :meth:`void` bumps its ``token``
    and drops what it collected, after which the query starts over on
    the survivors under the new token (``QueryService._restart``).
    """

    __slots__ = ("service", "execution", "nodes", "token", "rows",
                 "scanned", "stripe", "targets", "arrived", "landed",
                 "unlocked", "waiting", "advance")

    def __init__(self, service: "QueryService",
                 execution: QueryExecution, tables) -> None:
        self.service = service
        self.execution = execution
        self.nodes = service.cluster.nodes  # indexed by node id
        #: The chunk chains' callback, bound once: ``call_batched`` joins
        #: same-time steps by its identity.
        self.advance = self._advance
        #: The value that detects lost work: callbacks scheduled under
        #: an older token never run.
        self.token = 0
        #: table -> node -> shipped payload.  Per-node buckets keep the
        #: merge order canonical (sorted by node id) regardless of
        #: network arrival order, so pushdown on/off and retry
        #: interleavings all produce identical results.
        self.rows: dict[str, dict] = {name: {} for name in tables}
        #: Repeatable read: table -> its shards not locked yet, and the
        #: shards waiting for their table's turn to lock.
        self.unlocked: dict[str, int] = {}
        self.waiting: dict[str, list] = {}
        #: Entries scanned, over all attempts.
        self.scanned = 0
        #: table -> store-partition stripe base for chunk spreading.
        self.stripe: dict[str, int] = {}
        #: Nodes the current dispatch billed or shipped between.  A node
        #: stays a target after its work arrived: its death re-homes its
        #: partitions, and shards still running elsewhere read placement
        #: when they fetch — they would deliver its rows a second time.
        self.targets: set[int] = set()
        #: Scan-phase fan-in: every arriving shard reports here.
        self.arrived: Callable[[], None] | None = None
        #: True once everything the attempt produced is at the entry
        #: node; from then on no other node's death matters.
        self.landed = False

    def _run(self, token: int, then: Callable[..., None], *args) -> None:
        # On every deferred event of every query: ``completed_ms`` is
        # ``execution.done`` without the property call.
        if token != self.token or self.execution.completed_ms is not None:
            return  # a node death voided the work, or the query finished
        then(*args)

    def guard(self, then: Callable[..., None],
              *args) -> Callable[[], None]:
        """``then(*args)`` as a callable that only runs while this
        attempt stands — for continuations something other than the
        attempt defers (lock grants, timers)."""
        return partial(self._run, self.token, then, *args)

    def bill(self, node_id: int, stripe: int, duration: float,
             then: Callable[..., None], *args) -> None:
        """Occupy ``node_id``'s store server for partition ``stripe``
        for ``duration`` ms, then run ``then(*args)``."""
        self.targets.add(node_id)
        self.nodes[node_id].store_server(stripe).submit(
            duration, self._run, self.token, then, *args)

    def scan(self, node_id: int, stripe: int, chunks: int, first, full,
             last, then: Callable[..., None], *args) -> None:
        """Bill ``chunks`` chunks in turn on ``node_id``'s store servers,
        chunk ``remaining`` on partition ``stripe + remaining``, then run
        ``then(*args)``; ``first``, ``last`` and ``full`` (the others)
        are ``(entries, ms)``.

        The first chunk bills here.  The rest of the chain is one shard
        record, ``[remaining, token, servers, stripe, full, last, then,
        args]``, that :meth:`_advance` moves on a chunk at a time: the
        attempt's shards that finish a chunk at one time wait in one
        ``call_batched`` list and advance in one call, each at the point
        where its own event would have fired."""
        execution = self.execution
        servers = self.nodes[node_id].store_servers
        self.targets.add(node_id)  # cleared only under a new token
        entries, duration = first
        execution.entries_billed += entries
        execution.batches_evaluated += entries > 0  # probe-only: none
        execution.scan_ms_billed += duration
        self.service.sim.call_batched(
            servers[(stripe + chunks) % len(servers)].submit(duration),
            self.advance,
            [chunks - 1, self.token, servers, stripe, full, last, then,
             args],
        )

    def _advance(self, shards: list) -> None:
        """Move each of ``shards`` (:meth:`scan`) one step, in order:
        guarded as :meth:`_run` is, bill its next chunk and come back at
        that chunk's finish, or with none left run its ``then``."""
        execution = self.execution
        call_batched = self.service.sim.call_batched
        advance = self.advance
        for shard in shards:
            remaining, token, servers, stripe, full, last, then, args = shard
            if token != self.token or execution.completed_ms is not None:
                continue
            if remaining == 0:
                then(*args)
                continue
            entries, duration = last if remaining == 1 else full
            execution.entries_billed += entries
            execution.batches_evaluated += entries > 0
            execution.scan_ms_billed += duration
            shard[0] = remaining - 1
            call_batched(
                servers[(stripe + remaining) % len(servers)].submit(duration),
                advance, shard)

    def pool(self, duration: float, then: Callable[..., None],
             *args) -> None:
        """Occupy an entry-node query worker for ``duration`` ms, then
        run ``then(*args)``.  A query's pool jobs each start at the
        previous one's completion, so they need no ordering key."""
        pool = self.nodes[self.execution.entry_node].query_pool
        pool.submit(None, duration, self._run, self.token, then, *args)

    def send(self, src: int, dst: int, label, nbytes: int,
             then: Callable[..., None], *args) -> None:
        """Ship ``nbytes`` from ``src`` to ``dst``, then run
        ``then(*args)`` there.  ``label`` names what the stream carries;
        with the query, the endpoints and the token it is the FIFO
        channel, closed when the query finishes."""
        execution = self.execution
        channel = (label, execution.qid, src, dst, self.token)
        execution.channels.add(channel)
        self.targets.add(src)
        self.targets.add(dst)
        self.service.cluster.network.send(
            src, dst, self._run, self.token, then, *args,
            nbytes=nbytes, channel=channel,
        )

    def gather(self, count: int, done: Callable[..., None],
               *args) -> Callable[[], None] | None:
        """A fan-in over ``count`` completions: returns what each one
        calls; the last runs ``done(*args)`` (at once when there is
        nothing to wait for)."""
        if count == 0:
            done(*args)
            return None
        token = self.token
        execution = self.execution

        def one() -> None:  # guarded like :meth:`_run`, one frame less
            nonlocal count
            if token != self.token or execution.completed_ms is not None:
                return
            count -= 1
            if count == 0:
                done(*args)

        return one

    def merge(self, finalize: Callable[..., None], *args) -> None:
        """Everything is at the entry node: bill merging the shipped
        rows on its pool, then run ``finalize(*args)``."""
        execution = self.execution
        self.landed = True
        execution.entries_scanned = self.scanned
        self.pool(merge_ms(self.service.costs, execution.rows_shipped),
                  finalize, *args)

    def finish(self, result: QueryResult | None,
               error: Exception | None) -> None:
        """Complete the query with ``result`` or ``error``."""
        self.service._finish_execution(self.execution, result, error)

    def void(self) -> None:
        """Lose everything in flight and everything collected."""
        self.token += 1
        self.waiting.clear()
        for per_node in self.rows.values():
            per_node.clear()


def _pushed_fragment(plan: DistributedPlan | None,
                     table_name: str) -> ScanFragment | None:
    """What ``plan`` pushes to ``table_name``'s shards (``None``:
    nothing — they ship whole rows)."""
    fragment = None if plan is None else plan.fragments.get(table_name)
    if fragment is None or fragment.is_passthrough:
        return None
    return fragment


class _InFlight:
    """Service-side bookkeeping for one running query."""

    __slots__ = ("execution", "attempt", "plan")

    def __init__(self, execution: QueryExecution,
                 attempt: _Attempt) -> None:
        self.execution = execution
        self.attempt = attempt
        #: What the query runs (``None`` until its first dispatch).
        self.plan: PhysicalPlan | None = None


class QueryService:
    """Executes SQL against the state store of one environment."""

    def __init__(self, env, repeatable_read: bool = False,
                 ha_mode: bool = False,
                 retry_policy: QueryRetryPolicy | None = None,
                 pushdown: bool = True,
                 indexes: bool = True,
                 sketches: bool = True,
                 shared_plans: bool = True,
                 distributed_joins: bool = True) -> None:
        """``repeatable_read`` holds key locks for whole live queries;
        ``ha_mode`` declares that the job runs with active replication
        (§VII-B), upgrading live queries to read committed — state they
        observe is never rolled back.  ``retry_policy`` governs how
        in-flight queries react to node failures.  The five gates each
        switch one optimisation off for its ablation baseline, with
        bit-identical results: ``pushdown=False`` ships every raw row
        to the entry node instead of executing scan fragments (pushed
        predicates, projection, partial aggregation, top-k, partition
        pruning) on the storage nodes; ``indexes=False`` keeps secondary
        indexes maintained but never reads them; ``sketches=False`` keeps
        sketches maintained but answers APPROX aggregates on the exact
        paths; ``shared_plans=False`` gives every subscription a private
        standing plan instead of one shared, router-fanned instance per
        canonical plan; ``distributed_joins=False`` ships every joined
        table's rows to the entry node and joins centrally."""
        self.env = env
        self.sim = env.sim
        self.cluster = env.cluster
        self.store = env.store
        self.costs = env.costs
        self.repeatable_read = repeatable_read
        self.ha_mode = ha_mode
        self.retry_policy = retry_policy or QueryRetryPolicy()
        self.retry_policy.validate()
        self.pushdown_enabled = pushdown
        self.index_enabled = indexes
        self.sketch_enabled = sketches
        self.shared_plans_enabled = shared_plans
        self.distributed_joins_enabled = distributed_joins
        #: Compiled scan fragments, per service: a fresh environment
        #: always bills its first compilation of a fragment shape.
        self.compiled_fragments: LruCache = LruCache(256)
        #: Shard plans of committed snapshot versions, per service like
        #: the fragment cache (:meth:`_shard_planner` has the key).
        self.snapshot_plans: LruCache = LruCache(256)
        self.snapshot_plans_built = 0
        self.snapshot_plans_reused = 0
        #: Parsed statement shapes (``repro.sql.statements``), per
        #: service like the fragment cache; parsing is not billed.
        self.statement_cache: LruCache = LruCache(256)
        self._entry_rotation = 0
        self.queries_executed = 0
        #: Each of :data:`COUNTERS` summed over every finished query,
        #: failed ones included.
        self.totals = dict.fromkeys(COUNTERS, 0)
        #: Node deaths that started a query over on the survivors.
        self.query_retries = 0
        #: Queries failed fast (entry-node death, retry exhaustion,
        #: timeout) instead of completing.
        self.query_aborts = 0
        #: Subset of aborts caused by the watchdog timeout.
        self.query_timeouts = 0
        self._inflight: dict[int, _InFlight] = {}
        self.cluster.on_node_failure(self._on_node_failure)
        services = getattr(env, "query_services", None)
        if services is not None:
            services.append(self)

    # -- public API ------------------------------------------------------

    def submit(self, sql: str, snapshot_id: int | None = None,
               on_done: Callable[[QueryExecution], None] | None = None,
               materialize: bool = True,
               all_versions: bool = False) -> QueryExecution:
        """Start a query at the current virtual time; returns a handle
        that completes asynchronously as the simulation advances.

        ``materialize=False`` runs the query as pure load: every cost
        (scan, shipping, merge) is still simulated against the real
        state sizes, but no Python result rows are built — benchmarks
        use this to drive sustained query load cheaply while functional
        tests keep the default and check real results.
        """
        qid = next(self.env.query_ids)
        select = parse_cached(sql, self.statement_cache)
        views = self._bind(select, ())
        isolation = isolation_of_query(
            any(map(_IMMUTABLE, views.values())), self.repeatable_read,
            assume_no_failures=self.ha_mode,
        )
        execution = QueryExecution(sql, self.sim.now, isolation, qid)
        execution.materialize = materialize
        execution.all_versions = all_versions
        if snapshot_id is None and not all_versions:
            snapshot_id = _pinned_ssid(select)
        execution.on_done = on_done
        execution.entry_node = self._next_entry_node()
        record = _InFlight(execution, _Attempt(self, execution, views))
        self._inflight[qid] = record
        execution.watchdog = self.sim.schedule(
            self.retry_policy.query_timeout_ms, self._watchdog, execution)
        record.attempt.pool(statement_ms(self.costs), self._after_plan,
                            record, select, views, snapshot_id)
        return execution

    def subscribe(self, sql: str, **kwargs):
        """Register ``sql`` as a standing query pushed to a subscriber.

        Delegates to the environment's continuous-query service (created
        on first use); see
        :meth:`repro.continuous.ContinuousQueryService.subscribe` for
        the flow-control keyword arguments.  Returns a
        :class:`~repro.continuous.Subscription`.
        """
        return self._continuous().subscribe(sql, **kwargs)

    def explain_subscription(self, sql: str) -> str:
        """Which maintenance path ``subscribe(sql)`` would choose."""
        return self._continuous().explain_subscription(sql)

    def _continuous(self):
        if self.env.continuous is None:
            from ..continuous.service import ContinuousQueryService
            self.env.continuous = ContinuousQueryService(self.env, self)
        return self.env.continuous

    def explain(self, sql: str) -> str:
        """How this service would execute ``sql`` now: the physical plan
        ``submit`` would run — point get, pushdown plan, sketch answer,
        join strategies, every shard's read — over live tables as they
        are and snapshot tables at the pinned or latest committed
        snapshot.  Nothing runs or bills; snapshot plans it builds serve
        later ``submit``s."""
        from ..sql.explain import render_distributed

        select = parse_cached(sql, self.statement_cache)
        snapshot_id = _pinned_ssid(select)
        if snapshot_id is None:
            snapshot_id = self.store.committed_ssid
        plan = self._physical_plan(
            select, self._bind(select, ()),
            () if snapshot_id is None else (snapshot_id,))
        shards = plan.shards
        sketch = plan.sketch
        if plan.point_keys is not None:
            lines = [
                f"point lookup: {len(plan.point_keys)} key(s) on "
                f"{len(shards)} owner node(s) (est. "
                f"{sum(shard.path.cost_ms for *_, shard in shards):.3f} ms)"
            ]
        elif plan.pushdown is None:
            lines = ["distributed: ship all rows (" + (
                "pushdown disabled" if not self.pushdown_enabled
                else "UNION runs centrally") + ")"]
        else:
            lines = ["distributed: pushdown",
                     *render_distributed(select, plan.pushdown)]
        if plan.point_keys is None and \
                not isinstance(sketch, _SketchAnswer):
            lines += _explain_shards(shards)
        join = plan.join
        if join is not None:
            if join.central is not None:
                lines.append(f"  joins: central ({join.central})")
            for step, path in zip(join.steps, join.paths):
                lines.append(f"  join [{step.table}]: {path.describe()}")
                lines.extend(f"    rejected {reason}"
                             for reason in path.rejected)
        if isinstance(sketch, str):
            lines.append(f"  approx: exact fallback ({sketch})")
        elif sketch is not None:
            lines.append(f"  approx [{sketch.table}]: "
                         f"{sketch.path.describe()}")
            lines.extend(f"    rejected {reason}"
                         for reason in sketch.path.rejected)
        return "\n".join(lines)

    def execute(self, sql: str,
                snapshot_id: int | None = None) -> QueryExecution:
        """Submit and drive the simulation until the query completes.

        Only valid when the caller owns the simulation loop (examples,
        tests).  Benchmarks submit asynchronously instead.
        """
        execution = self.submit(sql, snapshot_id)
        guard = 0
        while not execution.done:
            if not self.sim.step():
                raise QueryError("simulation drained before query finished")
            guard += 1
            if guard > 10_000_000:
                raise QueryError("query did not terminate")
        if execution.error is not None:
            raise execution.error
        return execution

    @property
    def inflight_queries(self) -> int:
        return len(self._inflight)

    def on_rollback_recovery(self, committed_ssid: int | None) -> None:
        """Called by rollback recovery (§IV): flag every in-flight live
        query, whose fuzzy view now spans an epoch boundary."""
        del committed_ssid  # the flag, not the target, is what matters
        for record in self._inflight.values():
            execution = record.execution
            if execution.done:
                continue
            if not execution.isolation.at_least(IsolationLevel.SNAPSHOT):
                execution.observed_rollback = True

    # -- internals ------------------------------------------------------

    def _bind(self, select,
              versions: tuple[int, ...]) -> dict[str, TableView]:
        """The views a statement holds onto its tables, in FROM order:
        live state, or the snapshot ``versions`` it reads (which live
        tables ignore)."""
        views: dict[str, TableView] = {}
        for name in select.table_names():
            if self.store.has_snapshot_table(name):
                views[name] = TableView(
                    self.store.get_snapshot_table(name), versions
                )
            elif self.store.has_live_table(name):
                views[name] = TableView(self.store.get_live_table(name))
            else:
                raise QueryError(f"unknown state table {name!r}")
        return views

    def _next_entry_node(self) -> int:
        alive = self.cluster.surviving_node_ids()
        if not alive:
            raise QueryError("no surviving nodes")
        node = alive[self._entry_rotation % len(alive)]
        self._entry_rotation += 1
        return node

    # -- completion (the single exit path) --------------------------------

    def _finish_execution(self, execution: QueryExecution,
                          result: QueryResult | None,
                          error: Exception | None) -> None:
        """Complete ``execution`` exactly once: release its locks, close
        its network channels, and drop the in-flight record — on every
        path, success or failure.  The record drops its plan: the
        attempt's fan-in holds the record in a reference cycle, and the
        plan's shards would otherwise wait for the next collection."""
        if execution.completed_ms is not None:
            return
        if execution.watchdog is not None:
            execution.watchdog.cancel()
        if self.repeatable_read:
            self.store.locks.release_all(execution)
        network = self.cluster.network
        for channel in execution.channels:
            network.close_channel(channel)
        execution.channels.clear()
        record = self._inflight.pop(execution.qid, None)
        if record is not None:
            record.plan = None
        totals = self.totals
        for name in COUNTERS:
            totals[name] += getattr(execution, name)
        if error is None:
            self.queries_executed += 1
        execution._finish(self.sim.now, result, error)

    def _abort(self, execution: QueryExecution,
               error: QueryAbortedError) -> None:
        self.query_aborts += 1
        self._finish_execution(execution, None, error)

    def _watchdog(self, execution: QueryExecution) -> None:
        if execution.done:
            return
        self.query_timeouts += 1
        self._abort(execution, QueryTimeoutError(
            f"query exceeded {self.retry_policy.query_timeout_ms} ms "
            f"(submitted at {execution.submitted_ms} ms)"
        ))

    # -- failure handling ---------------------------------------------------

    def _on_node_failure(self, node_id: int) -> None:
        """Cluster failure listener: every in-flight execution that
        depends on the dead node either reschedules or fails fast."""
        for record in list(self._inflight.values()):
            execution = record.execution
            if execution.done:
                self._inflight.pop(execution.qid, None)
                continue
            if execution.entry_node == node_id:
                self._abort(execution, QueryAbortedError(
                    f"entry node {node_id} died while the query was in "
                    "flight"
                ))
                continue
            attempt = record.attempt
            if attempt.landed or node_id not in attempt.targets:
                # Nothing of this attempt is, or was, on the dead node
                # (planning and the snapshot-id read run on the entry
                # node only), or all of it already reached the entry.
                continue
            if execution.retries >= self.retry_policy.max_retries:
                self._abort(execution, QueryAbortedError(
                    f"node {node_id} died and the retry budget "
                    f"({self.retry_policy.max_retries}) is exhausted"
                ))
                continue
            execution.retries += 1
            self.query_retries += 1
            self._restart(record)

    def _restart(self, record: _InFlight) -> None:
        """Start the query over: void the attempt — scan chunks, join
        stages and shipments in flight are lost, collected rows dropped
        — and dispatch everything again onto the survivors after the
        retry backoff.  Nothing is resumed or patched: what arrived may
        describe partitions that have since moved.  Until the
        re-dispatch the old targets stand, so a further death among
        them voids (and counts) again."""
        attempt = record.attempt
        attempt.void()
        self.sim.schedule(self.retry_policy.retry_backoff_ms,
                          attempt.guard(self._dispatch, record))

    # -- plan / snapshot-id resolution ----------------------------------

    def _after_plan(self, record: _InFlight, select: Select | Union,
                    views: dict[str, TableView],
                    snapshot_id: int | None) -> None:
        execution = record.execution
        if execution.isolation is not IsolationLevel.SERIALIZABLE:
            self._dispatch(record, select, views)  # live tables only
        elif execution.all_versions:
            versions = self.store.available_ssids()
            if versions:
                execution.snapshot_versions = versions
                self._dispatch(record, select, views, tuple(versions))
            else:
                self._finish_execution(execution, None,
                                       NoCommittedSnapshotError(
                                           "no committed snapshot yet"))
        elif snapshot_id is not None:
            self._scan_snapshot(record, select, views, snapshot_id)
        else:  # atomic read of the committed-snapshot pointer
            record.attempt.bill(
                execution.entry_node, 0, snapshot_id_read_ms(self.costs),
                self._scan_snapshot, record, select, views, None,
            )

    def _scan_snapshot(self, record: _InFlight, select: Select | Union,
                       views: dict[str, TableView],
                       snapshot_id: int | None) -> None:
        """Scan the snapshot the query pins, if it is still available,
        or (``None``) the committed one."""
        execution = record.execution
        if snapshot_id is None:
            snapshot_id = self.store.committed_ssid
            if snapshot_id is None:
                self._finish_execution(execution, None,
                                       NoCommittedSnapshotError(
                                           "no committed snapshot yet"))
                return
        elif snapshot_id not in self.store.available_ssids():
            self._finish_execution(execution, None,
                                   SnapshotNotFoundError(snapshot_id))
            return
        execution.snapshot_id = snapshot_id
        self._dispatch(record, select, views, (snapshot_id,))

    # -- planning -----------------------------------------------------------

    def _physical_plan(self, select: Select | Union,
                       views: dict[str, TableView],
                       versions: tuple[int, ...] = (),
                       materialize: bool = True,
                       all_versions: bool = False,
                       decided: PhysicalPlan | None = None
                       ) -> PhysicalPlan:
        """What ``select`` runs over the current survivors, its ``views``
        rebound to the resolved ``versions`` (live tables ignore them):
        a point get, or the statement's pushdown, sketch and join plans
        and a shard per target node of every scanned table.  A shard of
        a committed version of a table that keeps its versions as
        written is planned once per key in ``snapshot_plans``: the
        table, its versions, the pushed fragment (equal fragments hold
        literals of one type: ``key = 1`` prunes other partitions than
        ``key = 1.0``), the placement and the DDL epoch.  A retry passes
        its first plan as ``decided``, and only the shards are placed
        again."""
        if decided is None:
            if versions:
                views = self._bind(select, versions)
            single = not isinstance(select, Union) and not all_versions
            keys = pushdown = sketch = join = None
            if single and len(views) == 1 and not select.joins:
                # Point-lookup pushdown: a single-table query pinned to
                # one or a few keys (Fig. 4's ``WHERE key = 1`` pattern,
                # plus ``key IN (...)`` / OR-of-equalities) fetches only
                # those keys from their owner nodes; the full statement
                # (with the key predicate) runs centrally.
                keys = _extract_key_filter(
                    select.where, select.table.binding or "",
                    views[select.table.name].immutable)
            if keys is None:
                if self.pushdown_enabled and materialize and single:
                    pushdown = split_select(select)
                sketch = self._sketch_plan(select, views, materialize)
                if materialize and not isinstance(sketch, _SketchAnswer):
                    join = plan_distributed_joins(self, select, pushdown,
                                                  views)
        else:
            select, views, keys, pushdown, sketch, join = (
                decided.select, decided.views, decided.point_keys,
                decided.pushdown, decided.sketch, decided.join)
        nodes = self.cluster.surviving_node_ids()
        shards = []
        pruned = 0
        if keys is not None:
            (table_name, view), = views.items()
            owners: dict[int, list] = {}
            for key in keys:
                owner = view.owner_node_of(key)
                if owner not in nodes:
                    owner = nodes[0]  # placement mid-recovery: any survivor
                owners.setdefault(owner, []).append(key)
            for owner in sorted(owners):
                count = len(owners[owner])
                cost = point_read_ms(self.costs, count)
                shards.append((table_name, owner, _ShardPlan(
                    AccessPath("point", None, None, count, count, count,
                               cost, cost),
                    partial(_point_rows, view, owners[owner]), 0, None, None,
                )))
        else:
            sketched = isinstance(sketch, _SketchAnswer)
            excluded = () if join is None else join.excluded
            for table_name in dict.fromkeys(select.table_names()):
                if table_name in excluded:
                    continue
                view = views[table_name]
                fragment = _pushed_fragment(pushdown, table_name)
                targets = self._scan_targets(view, fragment)
                table = view.table
                plans = None  # node -> plan, for every read of one key
                if view.immutable and table.stable_versions and not sketched:
                    key = (table, view.versions, fragment, table.placement(),
                           table.ddl_epoch)
                    if not _retired(key):  # else it fails as a fresh read
                        plans = self.snapshot_plans.get(key)
                        if plans is None:
                            # Plans of versions retention has dropped go
                            # before any new.
                            self.snapshot_plans.discard_if(_retired)
                            plans = {}
                            self.snapshot_plans.put(key, plans)
                for node_id in targets:
                    shard = None if plans is None else plans.get(node_id)
                    if shard is not None:
                        self.snapshot_plans_reused += 1
                    elif sketched:
                        shard = _ShardPlan(sketch_path(
                            self.costs, len(view.partitions_on_node(node_id))
                        ), None, 0, None, None)
                    else:
                        shard = self._scan_selection(view, fragment, node_id)
                        if plans is not None:
                            plans[node_id] = shard
                            shard.rows = view.row_count_on_node(node_id)
                            self.snapshot_plans_built += 1
                    shards.append((table_name, node_id, shard))
                pruned += sum(len(view.partitions_on_node(node_id))
                              for node_id in nodes if node_id not in targets)
        return PhysicalPlan(select, views, keys, pushdown, sketch, join,
                            tuple(shards), pruned)

    # -- read phase ---------------------------------------------------------

    def _dispatch(self, record: _InFlight,
                  select: Select | Union | None = None,
                  views: dict[str, TableView] | None = None,
                  versions: tuple[int, ...] = ()) -> None:
        """Plan the query and dispatch its reads onto the current
        survivors under the attempt's current token, each table on its
        own chunk stripe; with nothing to read the query moves straight
        on.  The first dispatch plans ``select`` over ``views`` at the
        resolved ``versions`` and counts the plan's decisions; a retry
        re-places that plan's shards and counts nothing again."""
        execution = record.execution
        attempt = record.attempt
        attempt.targets.clear()
        first = record.plan is None
        try:
            plan = record.plan = self._physical_plan(
                select, views, versions, execution.materialize,
                execution.all_versions, record.plan)
        except SnapshotNotFoundError as exc:
            self._finish_execution(execution, None, exc)
            return
        if first:
            execution.point_keys = plan.point_keys
            execution.partitions_pruned += plan.pruned
            if plan.join is not None:
                execution.join_strategies = list(plan.join.strategies)
                for strategy in plan.join.strategies:
                    name = JOIN_COUNTERS[strategy]
                    setattr(execution, name, getattr(execution, name) + 1)
        if plan.point_keys is None:
            names = plan.select.table_names()
            width = max(1, len(self.cluster.surviving_node_ids()))
            attempt.stripe = {name: names.index(name) * width
                              for name in names}
        self._read_shards(record, plan.shards, self._scans_landed, record)

    def _read_shards(self, record: _InFlight,
                     shards: Sequence[tuple[str, int, _ShardPlan]],
                     landed: Callable[..., None], *args) -> None:
        """Read ``shards`` (:meth:`_read`); once each has shipped, run
        ``landed(*args)``."""
        attempt = record.attempt
        attempt.arrived = attempt.gather(len(shards), landed, *args)
        if self.repeatable_read:
            attempt.unlocked = Counter(
                table_name for table_name, _node, _shard in shards
                if not record.plan.views[table_name].immutable
            )
        for table_name, node_id, shard in shards:
            self._read(record, table_name, node_id, shard)

    # -- approximate (sketch) answering -------------------------------------

    def _sketch_plan(self, select: Select | Union,
                     views: dict[str, TableView],
                     materialize: bool) -> _SketchAnswer | str | None:
        """Sketch answer for an APPROX aggregate, priced against the
        exact paths, or why it runs on one (always sound: whatever a
        sketch cannot answer within its bound runs as a scan/index
        query); ``None`` for any other statement."""
        if not materialize:
            return None  # pure-load runs exercise the scan path
        if not isinstance(select, Select) or not select.approx:
            return None
        if not self.sketch_enabled:
            return "sketches disabled"
        if len(views) != 1 or select.joins:
            return "multi-table queries are not sketch-answerable"
        aggregate = analyze_approx_select(select)
        if aggregate is None:
            return "shape not sketch-answerable"
        table_name = select.table.name
        view = views[table_name]
        if view.versions == ():
            return "no committed snapshot"
        if aggregate.ssid_eq is not None \
                and (aggregate.ssid_eq,) != view.versions:
            if view.immutable:
                return "ssid filter does not match the resolved snapshot"
            return "ssid filter on a live table"
        if not view.ready("sketch"):
            return ("no sketches (none declared, the version's not "
                    "frozen yet, or an all-versions read)")
        if not view.has_sketch(aggregate.column, aggregate.kind):
            return (f"no {aggregate.kind} sketch on "
                    f"{aggregate.column!r}")
        partitions, entries = view.partitions_and_entries(
            self.cluster.surviving_node_ids()
        )
        answer = view.approx_estimate(
            partitions, aggregate.mode, aggregate.column,
            aggregate.value,
        )
        if answer is None:
            return "sketch cannot answer soundly (degraded partitions)"
        # The exact alternative is the statement's scan fragment (with
        # pushdown off the scan is the same; what it ships is not priced).
        choice = choose_access_path(
            _pushed_fragment(split_select(select), table_name),
            view, partitions, entries, self.costs,
            sketch=SketchCandidate(
                label=f"{aggregate.kind}({aggregate.column!r})",
                probes=len(partitions),
            ),
            indexes=self.index_enabled,
        )
        if choice.kind != "sketch":
            return f"sketch priced out; exact {choice.describe()}"
        output = output_column_name(select.items[0], 0)
        columns = [output, "error_bound", "confidence"]
        return _SketchAnswer(table_name, choice, QueryResult(
            columns=columns, rows=[dict(zip(columns, answer))], scanned=0,
        ))

    # -- the shard read -----------------------------------------------------

    def _read(self, record: _InFlight, table_name: str, node_id: int,
              shard: _ShardPlan) -> None:
        """Read one node's shard as ``shard`` decided, as every shard is
        read: count it, bill it on the node's store servers — a point
        get's seeks on partition 0, a sketch probe on the table's stripe,
        a scan's chunks on successive partitions — then, at completion,
        fetch and ship it (:meth:`_shard_read`)."""
        execution = record.execution
        attempt = record.attempt
        path = shard.path
        kind = path.kind
        if kind == "point" or kind == "sketch":
            stripe = 0
            if kind == "sketch":
                execution.sketch_probes += path.probes
                stripe = attempt.stripe[table_name] + node_id
            attempt.bill(node_id, stripe, path.cost_ms, self._shard_read,
                         record, table_name, node_id, shard, None)
            return
        fragment = shard.fragment
        entries = path.candidates
        indexed = kind != "scan"
        execution.partitions_pruned += shard.pruned
        if indexed:
            execution.index_probes += path.probes
            execution.index_rows_read += entries
            execution.rows_skipped_by_index += path.scan_entries - entries
        if entries == 0 and path.probes == 0:
            # A provably-empty shard bills no chunk and completes at
            # once.  Its fragment compiles outside the service's cache:
            # what that cache holds decides what later shards are billed.
            self._shard_read(
                record, table_name, node_id, shard,
                None if fragment is None else CompiledFragment(fragment),
            )
            return
        compiled, compiles = None, False
        if fragment is not None:
            compiled, hit = compile_fragment(fragment,
                                             self.compiled_fragments)
            compiles = not hit
            if hit:
                execution.compile_cache_hits += 1
            else:
                execution.predicates_compiled += len(fragment.pushed)
        stage = pushed_stage(fragment, entries)
        chunk = self.costs.scan_chunk_entries
        chunks = max(1, -(-entries // chunk))
        head = min(chunk, entries)
        tail = entries - (chunks - 1) * chunk  # what the final chunk bills
        # Index probes and a compile-cache miss bill with the first chunk.
        attempt.scan(
            node_id, attempt.stripe[table_name] + node_id, chunks,
            (head, shard_read_ms(self.costs, head, stage, path.probes,
                                 indexed, compiles)),
            (chunk, shard_read_ms(self.costs, chunk, stage, indexed=indexed)),
            (tail, shard_read_ms(self.costs, tail, stage, indexed=indexed)),
            self._shard_read, record, table_name, node_id, shard, compiled,
        )

    def _shard_read(self, record: _InFlight, table_name: str,
                    node_id: int, shard: _ShardPlan,
                    compiled: CompiledFragment | None) -> None:
        """The shard's reads are billed: fetch its entries *now*, run the
        ``compiled`` fragment over their columns (``None``: every entry
        ships whole), and ship what survives with the keys of the rows
        it observed — a sketch read ships a marker, a pure-load scan its
        row count, a failed read its :class:`_ShardError`."""
        execution = record.execution
        view = record.plan.views[table_name]
        kind = shard.path.kind
        lock_keys: list | None = None
        if kind == "sketch":
            payload: ColumnBatch | int | PartialGroups | _ShardError = (
                ColumnBatch(view.table.column_reader,
                            [{"sketch": table_name, "node": node_id}])
            )
        elif not execution.materialize and kind != "point":
            payload = shard.rows
            if payload is None:
                payload = view.row_count_on_node(node_id)
        else:
            try:
                batch = shard.fetch()
                if compiled is not None:
                    # Repeatable read locks exactly the rows the query
                    # observes: the survivors of the pushed predicates
                    # (all of them — a row a top-k stage cuts still
                    # decided the answer).
                    lock_keys, swept, _batches = sweep_shard(
                        compiled, batch,
                        EvalContext(now_ms=self.sim.now),
                        self.costs.scan_chunk_entries,
                        compiled.fragment.top_k_keep(shard.path.candidates),
                    )
                    if swept.failed is None:
                        payload = swept.payload()
                    else:
                        phase, entry, error = swept.failed
                        payload = _ShardError(
                            record, table_name, node_id, error, phase, entry)
                        lock_keys = []
                else:
                    payload = batch  # every entry ships whole
                    lock_keys = batch.keys
                    if lock_keys is None:  # a point get's shaped rows
                        lock_keys = [row["partitionKey"]
                                     for row in batch.values]
            except Exception as exc:  # ship the error, don't crash
                payload = _ShardError(record, table_name, node_id, exc)
                lock_keys = []
        record.attempt.scanned += shard.path.candidates
        self._ship_when_locked(record, table_name, node_id, payload,
                               lock_keys)

    # -- shard selection ----------------------------------------------------

    def _scan_targets(self, view: TableView,
                      fragment: ScanFragment | None) -> list[int]:
        """Nodes whose shards a scan of ``view`` must visit.

        With an exact key-set filter and every owner node alive, only
        the owners are scanned; any doubt (range filters, dead owners
        mid-reassignment) falls back to all survivors — pruning must
        never lose rows, only skip provably-empty work."""
        alive = self.cluster.surviving_node_ids()
        if fragment is None or not isinstance(fragment.key_filter, KeySet):
            return list(alive)
        owners = sorted({
            view.owner_node_of(key) for key in fragment.key_filter.keys
        })
        if owners and all(owner in alive for owner in owners):
            return owners
        return list(alive)

    def _scan_selection(self, view: TableView,
                        fragment: ScanFragment | None, node_id: int,
                        lookup: tuple | None = None) -> _ShardPlan:
        """Decide how one node's shard of ``view`` is read, running
        ``fragment``: an index read with an index-nested-loop build
        side's ``lookup`` — ``(column, probe)`` — or else a scan of the
        partitions a key filter leaves, unless an index prices below
        sweeping them."""
        if lookup is not None:
            partitions = view.partitions_on_node(node_id)
            path = index_path(fragment, view, partitions,
                              view.entries_on_node(node_id), self.costs,
                              *lookup)
            if not isinstance(path, int):
                return _ShardPlan(path, partial(view.index_scan, partitions,
                                                *lookup), 0, fragment, None)
            # A partition the index cannot probe soundly: read the
            # shard as a scan would (what it ships still joins exactly).
        selection = None
        if fragment is not None and fragment.key_filter is not None:
            selection = self._select_partitions(
                view, node_id, fragment.key_filter
            )
        if selection is not None:
            entries, fetch, pruned, partitions = selection
        else:
            entries = view.entries_on_node(node_id)
            fetch = partial(view.scan_on_node, node_id)
            pruned = 0
            partitions = None
        if fragment is None or not fragment.pushed:
            veto = "no pushed predicate"
        elif not self.index_enabled:
            veto = "indexes disabled"
        elif view.versions == ():
            veto = "no committed snapshot"
        elif not view.ready("index"):
            # no indexes, an all-versions view, or the version is not
            # frozen yet
            veto = "no usable index"
        else:
            veto = None
            if partitions is None:
                partitions = view.partitions_on_node(node_id)
        path = choose_access_path(fragment, view, partitions or (),
                                  entries, self.costs,
                                  indexes=veto is None)
        if path.kind != "scan":
            fetch = partial(view.index_scan, list(partitions),
                            path.column, path.probe)
        return _ShardPlan(path, fetch, pruned, fragment, veto)

    def _select_partitions(self, view: TableView, node_id: int,
                           key_filter):
        """Partition-level pruning; ``None`` when the view or filter
        shape does not support it (whole-shard scan instead)."""
        if not view.single_version:
            return None
        partitions = view.partitions_on_node(node_id)
        if isinstance(key_filter, KeySet):
            # Exact key pinning is placement-stable: a key inserted
            # mid-scan still hashes into a selected partition.
            target = {
                view.partition_of_key(key) for key in key_filter.keys
            }
            selected = [p for p in partitions if p in target]
        elif view.immutable:
            # Zone-map range pruning: committed snapshots are immutable,
            # so per-partition (min, max) key bounds computed at scan
            # start stay valid for the whole scan.
            selected = []
            for partition in partitions:
                bounds = view.partition_key_bounds(partition)
                if bounds is None or key_filter.overlaps(*bounds):
                    selected.append(partition)
        else:
            # Live data moves under the scan: a range zone map computed
            # now could hide rows inserted later, so ranges don't prune.
            return None
        entries = sum(map(view.partition_entry_count, selected))
        return (entries, partial(view.scan_partitions, selected),
                len(partitions) - len(selected), selected)

    def _ship_when_locked(self, record: _InFlight, table_name: str,
                          node_id: int, payload,
                          lock_keys: list | None) -> None:
        """Ship a shard's payload, acquiring repeatable-read locks first.

        ``lock_keys`` are the keys of the rows the shard observed
        (``None``: it read none, or holds them already).  A query locks
        its tables in name order: a shard waits until every shard of the
        tables before its own is locked.  Every query then takes the
        tables (lockdep's lock classes) in one order, whatever order its
        shards land in."""
        if (
            self.repeatable_read
            # key locks guard live state; committed versions are immutable
            and not record.plan.views[table_name].immutable
            and lock_keys is not None
        ):
            record.attempt.waiting.setdefault(table_name, []).append(
                (node_id, payload, lock_keys)
            )
            self._lock_in_turn(record)
            return
        nbytes = self._payload_nbytes(record, table_name, payload)
        record.attempt.send(
            node_id, record.execution.entry_node,
            ("query-result", table_name), nbytes,
            self._shard_arrived, record, table_name, node_id, payload,
            nbytes,
        )

    def _lock_in_turn(self, record: _InFlight) -> None:
        """Lock the waiting shards of the first table, by name, that has
        shards left to lock."""
        attempt = record.attempt
        turn = min(attempt.unlocked, default=None)
        for node_id, payload, lock_keys in attempt.waiting.pop(turn, ()):
            self._lock_rows(record.execution, turn, lock_keys, attempt.guard(
                self._locked, record, turn, node_id, payload
            ))

    def _locked(self, record: _InFlight, table_name: str, node_id: int,
                payload) -> None:
        unlocked = record.attempt.unlocked
        unlocked[table_name] -= 1
        if not unlocked[table_name]:
            del unlocked[table_name]
            self._lock_in_turn(record)
        self._ship_when_locked(record, table_name, node_id, payload, None)

    def _payload_nbytes(self, record: _InFlight, table_name: str,
                        payload) -> int:
        """Shipping bytes for one shard's payload: whole rows bill a flat
        ``row_bytes`` each; pushdown bills the shape that survives —
        projected columns, or one state per partial group — the saving
        the distributed plan exists to create."""
        costs = self.costs
        plan = record.plan
        if isinstance(payload, int):
            return shipped_bytes(costs, payload)
        if isinstance(payload, _ShardError) or (
            plan.join is not None and table_name in plan.join.local
        ):
            # An error marker ships like one framed header-only row, and
            # so does the "shard done" frame of rows a join stage reads
            # on their node (they stay in-process, dropped with a voided
            # attempt, and none counts as shipped).
            return shipped_bytes(costs, 1, 0)
        if isinstance(payload, PartialGroups):
            return shipped_bytes(costs, len(payload),
                                 len(payload) * payload.width())
        if plan.fragment(table_name) is not None:
            return shipped_bytes(costs, len(payload), payload.width())
        return shipped_bytes(costs, len(payload))

    def _lock_rows(self, execution: QueryExecution, table_name: str,
                   keys: list, then: Callable[[], None]) -> None:
        """Repeatable read: hold the lock of every read row's key until
        the end.

        Contended keys *block* — queued FIFO behind the holder; ``then``
        runs once every key is granted — instead of being skipped, which
        would leave the read unprotected exactly when it matters.  A
        grant to a query that already finished releases itself at once.
        Requests go out in one canonical (sorted) key order, never in
        shipment order, so no two queries each hold keys while queued
        behind the other's (the cycle lockdep and the lock-order lint
        catch)."""
        locks = self.store.locks
        pending = {"n": 1}  # sentinel guards against sync completion

        def granted_one() -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                then()

        requested: set = set()
        for key in keys:
            key = (table_name, key)
            if key in requested or locks.holder_of(key) is execution:
                continue  # already held from an earlier attempt/shard
            requested.add(key)
        pending["n"] += len(requested)
        for key in sorted(requested, key=repr):
            locks.acquire(key, execution,
                          granted=_lock_grant(locks, key, execution,
                                              granted_one))
        granted_one()  # release the sentinel

    def _shard_arrived(self, record: _InFlight, table_name: str,
                       node_id: int, payload, nbytes: int) -> None:
        execution = record.execution
        attempt = record.attempt
        if isinstance(payload, int):
            execution.rows_shipped += payload
        else:
            attempt.rows[table_name][node_id] = payload
            join = record.plan.join
            if not isinstance(payload, _ShardError) and (
                join is None or table_name not in join.local
            ):
                execution.rows_shipped += len(payload)
        execution.bytes_shipped += nbytes
        attempt.arrived()

    def _scans_landed(self, record: _InFlight) -> None:
        """Every shard's payload is at the entry node: merge there, or
        run the join stages over the rows held on the nodes."""
        join = record.plan.join
        if join is None or join.central is not None:
            record.attempt.merge(self._finish, record)
            return
        error = self._first_error(record)
        if error is not None:
            self._finish_execution(record.execution, None, error)
            return
        start_join_pipeline(self, record)

    # -- merge phase ---------------------------------------------------------

    def _finish(self, record: _InFlight) -> None:
        execution = record.execution
        error = self._first_error(record)
        if error is not None:
            self._finish_execution(execution, None, error)
            return
        if not execution.materialize:
            self._finish_execution(execution, None, None)
            return
        sketch = record.plan.sketch
        if isinstance(sketch, _SketchAnswer):
            # Sketch-answered APPROX: the estimate was computed at plan
            # time (sound — see _SketchAnswer); the shards only billed
            # probe costs and shipped markers.
            execution.approx_answered = True
            self._finish_execution(execution, sketch.result, None)
            return
        plan = record.plan.pushdown
        collected = record.attempt.rows
        context = EvalContext(now_ms=self.sim.now)
        try:
            if plan is not None and plan.partial is not None:
                # Partial-aggregate merge: combine the per-node group
                # states (sorted by node id for determinism), then
                # finalise HAVING / ORDER BY / LIMIT centrally.
                table_name = plan.select.table.name
                per_node = collected[table_name]
                payloads = [per_node[n] for n in sorted(per_node)]
                groups = merge_partial_groups(
                    payloads, plan.partial, plan.select.table.binding
                )
                result = finish_groups(
                    plan.final_select, groups, context,
                    scanned=sum(len(p) for p in payloads),
                )
            else:
                statement = (plan.final_select if plan is not None
                             else record.plan.select)
                result = execute_select(statement, BatchCatalog(collected),
                                        context)
        except Exception as exc:  # surface SQL errors on the handle
            self._finish_execution(execution, None, exc)
            return
        self._finish_execution(execution, result, None)

    def _first_error(self, record: _InFlight) -> Exception | None:
        """What the landed shards leave to raise: a pushed statement's
        shape error (checked before any row, as central planning does),
        else the least-ranked :class:`_ShardError` — independent of
        shard completion timing."""
        pushdown = record.plan.pushdown
        if pushdown is not None:
            try:
                validate_select(pushdown.final_select)
            except Exception as exc:  # noqa: BLE001 — surfaced on the handle
                return exc
        first = None
        for per_node in record.attempt.rows.values():
            for payload in per_node.values():
                if isinstance(payload, _ShardError) and (
                        first is None or payload.rank < first.rank):
                    first = payload
        return None if first is None else first.error


def _retired(key: tuple) -> bool:
    """Whether a ``snapshot_plans`` key names a version retention has
    dropped."""
    table, versions = key[:2]
    return not all(map(table.has_snapshot, versions))


def _point_rows(view: TableView, keys: list) -> ColumnBatch:
    """The rows of those of ``keys`` that exist: a point get's fetch."""
    rows: list[dict] = []
    for key in keys:
        rows.extend(view.point_rows(key))
    return ColumnBatch(view.table.column_reader, rows)


def _explain_shards(shards: list[tuple[str, int, _ShardPlan]]
                    ) -> list[str]:
    """Per scanned table, how its shards are read: one line per choice,
    summed over the shards that made it, with why the first of them
    rejected the alternatives — or why no index was priced at all."""
    tables: dict[str, list[_ShardPlan]] = {}
    for table_name, _node, shard in shards:
        tables.setdefault(table_name, []).append(shard)
    lines: list[str] = []
    for table_name, plans in tables.items():
        prefix = f"  access path [{table_name}]: "
        if plans[0].veto is not None:  # the same for every shard
            lines.append(prefix + f"full scan ({plans[0].veto})")
            continue
        chosen: dict[tuple, list[AccessPath]] = {}
        for path in (plan.path for plan in plans):
            chosen.setdefault((path.kind, path.column), []).append(path)
        for same in chosen.values():
            total = replace(same[0], **{
                name: sum(getattr(path, name) for path in same)
                for name in ("probes", "candidates", "scan_entries",
                             "cost_ms", "scan_cost_ms")
            })
            lines.append(f"{prefix}{total.describe()} "
                         f"on {len(same)} shard(s)")
            lines.extend(f"    rejected (first shard) {reason}"
                         for reason in same[0].rejected)
    return lines


def _lock_grant(locks, key, execution: QueryExecution,
                granted_one: Callable[[], None]) -> Callable[[], None]:
    """Grant callback for one key: late grants to finished queries give
    the lock straight back instead of leaking it."""

    def granted() -> None:
        if execution.done:
            locks.release(key, execution)
            return
        granted_one()

    return granted


def _extract_key_filter(where: Expr | None, binding: str = "",
                        snapshot: bool = False) -> tuple | None:
    """Keys a single-table query is pinned to.

    Returns a non-empty tuple for ``key = <literal>``,
    ``key IN (<literals>)`` or an OR-of-equality conjunct (each becomes
    a multi-point get against the owners), or ``None`` when the query
    needs a scan.  ``partitionKey`` works the same way.

    Only the leading conjuncts pin keys
    (:func:`~repro.sql.fragments.extract_key_filter`): a row the get
    skips must leave before any conjunct that could raise on it.  On a
    ``snapshot`` table every row carries ``ssid`` and ``=`` never
    raises, so an ``ssid = <literal>`` conjunct (Fig. 4's ``WHERE
    ssid=9 AND key=2``) is passed over."""
    if where is None:
        return None
    conjuncts = split_conjuncts(where)
    if snapshot:
        conjuncts = [
            conjunct for conjunct in conjuncts
            if (parts := column_equality(conjunct)) is None
            or parts[0].name != "ssid" or parts[0].table not in (None, binding)
        ]
    for column in ("key", "partitionKey"):
        key_filter = extract_key_filter(conjuncts, column, binding)
        if isinstance(key_filter, KeySet):
            keys = tuple([key for key in key_filter.keys
                          if key is not None])
            if 0 < len(keys) <= MAX_POINT_KEYS:
                return keys
    return None


def _pinned_ssid(select: Select | Union) -> int | None:
    """The first top-level ``ssid = <literal>`` conjunct's snapshot id,
    as in the paper's ``WHERE ssid=9 AND key=2`` example (Fig. 4);
    ``None`` for a UNION."""
    if isinstance(select, Union):
        return None
    for conjunct in split_conjuncts(select.where):
        parts = column_equality(conjunct)
        if (parts is not None and parts[0].name == "ssid"
                and isinstance(parts[1].value, int)):
            return parts[1].value
    return None
