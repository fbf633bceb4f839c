"""Distributed multi-way join execution.

The query service executes eligible JOIN statements as a pipeline of
per-step build/probe *stages* instead of shipping every table's rows to
the entry node.  Each step's physical strategy is chosen up front by
:func:`repro.sql.access.choose_join_path` from CostModel-priced
candidates:

* **co-partitioned hash join** — the join key is the partition key on
  both sides and the tables share partition placement, so each node
  joins its local shards and no join input crosses the network;
* **broadcast hash join** — the build side is estimated small (sketch /
  zone-map estimates feed the chooser), built once and replicated to
  every node holding probe rows, which probe locally;
* **shuffle-hash join** — the general fallback: both sides repartition
  by join key across the surviving nodes, which build and probe their
  slice in parallel;
* **index-nested-loop join** — an index-assisted broadcast: the build
  side is resolved through a secondary index on the join column
  (probing only the keys the probe side actually contains) instead of
  being scanned at all.

Correctness never depends on the strategy: the coordinator manipulates
the actual rows in-process (the data plane) while the chosen strategy
decides *where* simulated time and network bytes are billed (the
billing plane) — the same split the scan machinery uses.  Every row
carries an *order tag* (a tuple of per-step ``(node, position)``
components; LEFT-join NULL padding appends ``()``), and the entry node
sorts merged rows by tag before finalizing, which reproduces the
central left-deep execution's row order bit for bit.  Error precedence
also mirrors central execution: scan-fragment errors (table FROM
order, node-sorted) outrank statement-shape validation, which outranks
the first build-key error (minimum right tag), which outranks the
first probe-key error (minimum left tag); residual/projection errors
surface naturally from the sorted merged rows.

Every stage bills, ships and fans in through the query's attempt
(``_Attempt`` in ``service.py``), so failure handling is the query
service's: the death of a node the attempt touched voids scans and
stages alike and the query starts over on the survivors — build/probe
stages are never resumed half-way, because a stage's inputs may have
lived on the dead node.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.partition import copartitioned_tables, stable_hash
from ..kvstore.indexes import EqProbe
from ..sql import EvalContext
from ..sql.access import (
    JoinCandidate,
    JoinPath,
    choose_join_path,
    join_stage_ms,
    pushed_stage,
    shard_read_ms,
)
from ..sql.ast import Binary, Column, Literal, Select
from ..sql.batch import compile_fragment, run_fragment_batches
from ..sql.executor import (
    bind_row,
    build_join_index,
    collect_right_columns,
    compile_join_key,
    execute_joined_select,
    probe_join_index,
    validate_joined_select,
)
from ..sql.fragments import JoinFragment, KeySet, join_fragments, partition_aligned_binding


class _JoinLocalAck:
    """Scan payload held on its node for a later join stage.

    The rows travel in-process (data plane) but the shipment bills only
    a framed control message (``row_overhead_bytes``): in join mode the
    node's shard output is a *join input kept local*, not a result
    shipped to the entry node.  ``__len__`` is 0 so the generic arrival
    path counts no shipped rows; the held rows are discarded with the
    payload buffer when a retry voids the attempt.
    """

    __slots__ = ("node_id", "rows")

    def __init__(self, node_id: int, rows: list) -> None:
        self.node_id = node_id
        self.rows = rows

    def __len__(self) -> int:
        return 0


@dataclass
class JoinPlan:
    """Chosen strategies and table roles for one join-mode query."""

    steps: tuple[JoinFragment, ...]
    paths: tuple[JoinPath, ...]
    final_select: Select
    base_table: str
    base_binding: str
    #: tables whose scan payload stays node-local (ack shipment).
    local: frozenset
    #: index-nested-loop build tables — never scanned at all.
    excluded: frozenset


# -- strategy selection ------------------------------------------------------


def _pushed_equality(conjunct) -> "tuple[str, object] | None":
    """``col = literal`` (either side) → ``(column name, value)``."""
    if not isinstance(conjunct, Binary) or conjunct.op != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, Column) and isinstance(right, Literal):
        return left.name, right.value
    if isinstance(right, Column) and isinstance(left, Literal):
        return right.name, left.value
    return None


def _estimate_rows(service, view, fragment) -> tuple[int, str]:
    """Estimated post-pushdown rows of one side, with its source."""
    partitions, entries = view.partitions_and_entries(
        service.cluster.surviving_node_ids()
    )
    if fragment is not None and isinstance(fragment.key_filter, KeySet):
        return min(entries, len(fragment.key_filter.keys)), "zone-map"
    if (
        fragment is not None
        and fragment.pushed
        and partitions
        and service.sketch_enabled
        and view.ready("sketch")
    ):
        for conjunct in fragment.pushed:
            equality = _pushed_equality(conjunct)
            if equality is None:
                continue
            column, value = equality
            if not view.has_sketch(column, "countmin"):
                continue
            answer = view.approx_estimate(
                partitions, "count_eq", column, value
            )
            if answer is not None:
                estimate = max(0, int(round(answer[0])))
                return min(entries, estimate), "sketch"
    return entries, "entries"


def _row_width_bytes(costs, fragment) -> int:
    if fragment is not None and fragment.projection is not None:
        return (costs.row_overhead_bytes
                + len(fragment.projection) * costs.column_bytes)
    return costs.row_bytes


def _index_kind_for(service, step: JoinFragment, view) -> str | None:
    """Index kind on the build column, for index-nested-loop pricing."""
    if not service.index_enabled:
        return None
    if step.using:
        column = step.using[0] if len(step.using) == 1 else None
    elif isinstance(step.build, Column):
        column = step.build.name
    else:
        column = None
    if column is None:
        return None
    if not view.ready("index"):
        return None
    return view.index_columns().get(column)


def choose_join_strategies(service, select: Select, plan, views):
    """Per-step strategy choices, or ``None`` when the statement must
    run its joins centrally (all-versions reads always do: they have no
    distributed plan).  ``views`` binds every table to the version it
    reads.  Shared by execution and ``explain``."""
    if not service.distributed_joins_enabled:
        return None
    if plan is None or plan.partial is not None:
        return None
    steps = join_fragments(select)
    if steps is None:
        return None
    nodes = service.cluster.surviving_node_ids()
    costs = service.costs
    base_name = select.table.name
    base_binding = select.table.binding
    base_fragment = plan.fragments.get(base_name)
    base_view = views[base_name]
    left_rows, _ = _estimate_rows(service, base_view, base_fragment)
    left_bytes = _row_width_bytes(costs, base_fragment)
    #: bindings whose rows still sit where their partition key placed
    #: them (base initially; a co-partitioned step keeps its right side
    #: aligned too, a shuffle step invalidates everything).
    aligned = {base_binding}
    binding_table = {base_binding: (base_view, base_name)}
    left_native = True
    paths: list[JoinPath] = []
    for step in steps:
        right_view = views[step.table]
        fragment = plan.fragments.get(step.table)
        right_rows, source = _estimate_rows(service, right_view,
                                            fragment)
        aligned_binding = partition_aligned_binding(step)
        probe_binding = (base_binding if aligned_binding == ""
                         else aligned_binding)
        partition_key_join = (aligned_binding is not None
                              and probe_binding in aligned)
        copartitioned = False
        if partition_key_join:
            left_ref = binding_table.get(probe_binding)
            copartitioned = left_ref is not None and copartitioned_tables(
                left_ref[0], right_view, nodes
            )
        candidate = JoinCandidate(
            table=step.table,
            kind=step.kind,
            left_rows=left_rows,
            right_rows=right_rows,
            left_row_bytes=left_bytes,
            right_row_bytes=_row_width_bytes(costs, fragment),
            node_count=len(nodes),
            partition_key_join=partition_key_join,
            copartitioned=copartitioned,
            left_native=left_native,
            index_kind=_index_kind_for(service, step, right_view),
            estimate_source=source,
        )
        path = choose_join_path(candidate, costs)
        paths.append(path)
        if path.strategy == "copartitioned":
            aligned.add(step.binding)
            binding_table[step.binding] = (right_view, step.table)
        elif path.strategy == "shuffle":
            left_native = False
            aligned.clear()
        left_rows = max(left_rows, right_rows)
        left_bytes += _row_width_bytes(costs, fragment)
    return steps, tuple(paths)


def plan_distributed_joins(service, record) -> JoinPlan | None:
    """Decide join mode for one query; updates the strategy counters."""
    execution = record.execution
    select = record.select
    if not isinstance(select, Select) or not select.joins:
        return None
    if not execution.materialize:
        return None
    chosen = choose_join_strategies(
        service, select, record.plan, record.views
    )
    if chosen is None or any(
        path.strategy == "central" for path in chosen[1]
    ):
        # One central step makes the whole statement central: the entry
        # node needs every table's rows anyway, so a mixed pipeline
        # would only add stages without saving shipping.
        execution.joins_central += len(select.joins)
        execution.join_strategies = ["central"] * len(select.joins)
        return None
    steps, paths = chosen
    execution.join_strategies = [path.strategy for path in paths]
    local = {select.table.name}
    excluded = set()
    for step, path in zip(steps, paths):
        if path.strategy == "copartitioned":
            execution.joins_copartitioned += 1
            local.add(step.table)
        elif path.strategy == "broadcast":
            execution.joins_broadcast += 1
        elif path.strategy == "shuffle":
            execution.joins_shuffle += 1
            local.add(step.table)
        elif path.strategy == "index-nested-loop":
            execution.joins_index_nested += 1
            excluded.add(step.table)
    return JoinPlan(
        steps=steps,
        paths=paths,
        final_select=record.plan.final_select,
        base_table=select.table.name,
        base_binding=select.table.binding,
        local=frozenset(local),
        excluded=frozenset(excluded),
    )


def explain_join_lines(service, select: Select, plan,
                       views) -> list[str]:
    """Per-step strategy lines for ``QueryService.explain``."""
    if not isinstance(select, Select) or not select.joins:
        return []
    if not service.distributed_joins_enabled:
        return ["  joins: central (distributed joins disabled)"]
    if any(view.versions == () for view in views.values()):
        return ["  joins: central (no committed snapshot to price "
                "against)"]
    chosen = choose_join_strategies(service, select, plan, views)
    if chosen is None:
        return ["  joins: central (statement not eligible for "
                "distributed join execution)"]
    steps, paths = chosen
    lines: list[str] = []
    central = any(path.strategy == "central" for path in paths)
    if central:
        lines.append("  joins: central (a step priced central, so the "
                     "entry node needs every table anyway)")
    for step, path in zip(steps, paths):
        lines.append(f"  join [{step.table}]: {path.describe()}")
        lines.extend(f"    rejected {reason}" for reason in path.rejected)
    return lines


# -- the stage pipeline ------------------------------------------------------


def start_join_pipeline(service, record) -> None:
    """All scans landed without a scan-side error: validate the
    statement shape, then run the per-step stages."""
    try:
        validate_joined_select(record.join.final_select)
    except Exception as exc:  # same errors central plan_select raises
        record.attempt.finish(None, exc)
        return
    _PipelineRunner(service, record).run()


class _PipelineRunner:
    """Executes one query's join stages; one instance per (re)start.

    Stages run as continuations of the attempt's ``bill`` / ``send`` /
    ``pool`` / ``gather``, so none of them outlives the attempt."""

    def __init__(self, service, record) -> None:
        self.service = service
        self.record = record
        self.join = record.join
        self.execution = record.execution
        self.attempt = record.attempt
        self.costs = service.costs
        self.context = EvalContext(now_ms=service.sim.now)
        #: holder node -> [(tag, bound row), ...] in tag order.
        self.left: dict[int, list] = {}
        self.scanned = 0

    # -- plumbing -------------------------------------------------------

    def _payload_rows(self, table: str) -> dict[int, list]:
        per_node = self.attempt.rows[table]
        return {
            node_id: (payload.rows
                      if isinstance(payload, _JoinLocalAck) else payload)
            for node_id, payload in per_node.items()
        }

    def _raw_bytes(self, raws) -> int:
        costs = self.costs
        return sum(
            costs.row_overhead_bytes + len(raw) * costs.column_bytes
            for raw in raws
        )

    def _bound_bytes(self, tagged) -> int:
        costs = self.costs
        total = 0
        for _tag, row in tagged:
            width = sum(1 for name in row if "." not in name)
            total += costs.row_overhead_bytes + width * costs.column_bytes
        return total

    def _tagged_rights(self, step: JoinFragment,
                       raw_by_node: dict[int, list]) -> list:
        return [
            ((node_id, position), bind_row(raw, step.binding))
            for node_id in sorted(raw_by_node)
            for position, raw in enumerate(raw_by_node[node_id])
        ]

    # -- pipeline -------------------------------------------------------

    def run(self) -> None:
        base_rows = self._payload_rows(self.join.base_table)
        binding = self.join.base_binding
        for node_id in sorted(base_rows):
            self.left[node_id] = [
                (((node_id, position),), bind_row(raw, binding))
                for position, raw in enumerate(base_rows[node_id])
            ]
        self.scanned = sum(len(rows) for rows in base_rows.values())
        self._step(0)

    def _step(self, index: int) -> None:
        if index >= len(self.join.steps):
            self._final_ship()
            return
        step = self.join.steps[index]
        strategy = self.join.paths[index].strategy
        if strategy == "index-nested-loop":
            self._run_index_nested(index, step)
            return
        raw_by_node = self._payload_rows(step.table)
        rights = self._tagged_rights(step, raw_by_node)
        self.scanned += len(rights)
        self.execution.join_build_rows += len(rights)
        right_columns = collect_right_columns(
            [row for _tag, row in rights]
        )
        build_index, build_error = build_join_index(
            rights, step.using, step.build, self.context
        )
        if strategy == "copartitioned":
            self._run_copartitioned(index, step, raw_by_node,
                                    build_index, build_error,
                                    right_columns)
        elif strategy == "broadcast":
            self._run_broadcast(index, step, raw_by_node, build_index,
                                build_error, right_columns, len(rights))
        else:
            self._run_shuffle(index, step, raw_by_node, rights,
                              build_index, build_error, right_columns)

    # A build-key error outranks every probe error (central evaluates
    # the whole build side before probing), so stages check it after
    # their build billing and before any probe work.

    def _probe_all(self, step: JoinFragment, build_index: dict,
                   right_columns: set,
                   lefts: dict[int, list]) -> tuple[dict, object]:
        """Probe every holder's rows; returns (results per holder,
        minimum-tag probe error)."""
        results: dict[int, list] = {}
        probe_error = None
        for node_id in sorted(lefts):
            rows, error = probe_join_index(
                lefts[node_id], build_index, step.using, step.probe,
                step.kind, right_columns, self.context,
            )
            if rows:
                results[node_id] = rows
            if error is not None and (
                probe_error is None or error[0] < probe_error[0]
            ):
                probe_error = error
        return results, probe_error

    def _advance(self, index: int, results: dict[int, list],
                 probe_error) -> None:
        if probe_error is not None:
            self.attempt.finish(None, probe_error[1])
            return
        self.left = results
        self._step(index + 1)

    # -- co-partitioned -------------------------------------------------

    def _run_copartitioned(self, index: int, step: JoinFragment,
                           raw_by_node: dict, build_index: dict,
                           build_error, right_columns: set) -> None:
        # Build and probe are local to every node; matching rows are
        # co-located by the partition key, so probing the global index
        # returns exactly the local matches.  Nothing crosses the wire.
        holders = sorted(set(self.left) | set(raw_by_node))

        def stages_done() -> None:
            if build_error is not None:
                self.attempt.finish(None, build_error[1])
                return
            results, probe_error = self._probe_all(
                step, build_index, right_columns, self.left
            )
            self._advance(index, results, probe_error)

        staged = self.attempt.gather(len(holders), stages_done)
        for node_id in holders:
            duration = join_stage_ms(
                self.costs, len(raw_by_node.get(node_id, ())),
                len(self.left.get(node_id, ())),
            )
            self.attempt.bill(node_id, node_id + index, duration, staged)

    # -- broadcast ------------------------------------------------------

    def _run_broadcast(self, index: int, step: JoinFragment,
                       raw_by_node: dict, build_index: dict,
                       build_error, right_columns: set,
                       build_rows: int) -> None:
        execution = self.execution
        build_bytes = sum(
            self._raw_bytes(raw_by_node[node_id])
            for node_id in raw_by_node
        )
        results: dict[int, list] = {}
        errors: list = []

        def probes_done() -> None:
            probe_error = None
            for error in errors:
                if probe_error is None or error[0] < probe_error[0]:
                    probe_error = error
            self._advance(index, results, probe_error)

        def built() -> None:
            if build_error is not None:
                self.attempt.finish(None, build_error[1])
                return
            holders = sorted(self.left)
            probed = self.attempt.gather(len(holders), probes_done)
            for node_id in holders:
                execution.join_bytes_broadcast += build_bytes
                execution.bytes_shipped += build_bytes
                self.attempt.send(
                    execution.entry_node, node_id, ("join-bcast", index),
                    build_bytes, self._broadcast_arrived, index, step,
                    node_id, build_index, right_columns, results, errors,
                    probed,
                )

        # The build side reached the entry node through the normal scan
        # shipment; it is built once there, then replicated.
        self.attempt.pool(join_stage_ms(self.costs, build_rows, 0), built)

    def _broadcast_arrived(self, index: int, step: JoinFragment,
                           node_id: int, build_index: dict,
                           right_columns: set, results: dict,
                           errors: list, probed) -> None:
        lefts = self.left.get(node_id, [])
        duration = join_stage_ms(self.costs, 0, len(lefts))

        def probe() -> None:
            rows, error = probe_join_index(
                lefts, build_index, step.using, step.probe,
                step.kind, right_columns, self.context,
            )
            if rows:
                results[node_id] = rows
            if error is not None:
                errors.append(error)
            probed()

        self.attempt.bill(node_id, node_id + index, duration, probe)

    # -- shuffle-hash ---------------------------------------------------

    def _run_shuffle(self, index: int, step: JoinFragment,
                     raw_by_node: dict, rights: list, build_index: dict,
                     build_error, right_columns: set) -> None:
        if build_error is not None:
            # Central raises while building, before anything probes —
            # and before this step would have shipped anything.
            self.attempt.finish(None, build_error[1])
            return
        costs = self.costs
        execution = self.execution
        workers = sorted(self.service.cluster.surviving_node_ids())
        count = max(1, len(workers))

        def worker_of(key) -> int:
            return workers[stable_hash(key) % count]

        build_key = compile_join_key(step.using, step.build)
        probe_key = compile_join_key(step.using, step.probe)
        # Route the build side: one slice per worker, keyed exactly
        # like the index (NULL keys never ship — they cannot match).
        transfer: dict[tuple[int, int], int] = {}
        build_counts: dict[int, int] = {}
        position = 0
        for node_id in sorted(raw_by_node):
            for raw in raw_by_node[node_id]:
                _tag, row = rights[position]
                position += 1
                key = _shuffle_key(build_key, row, self.context)
                if key is None:
                    continue
                worker = worker_of(key)
                nbytes = (costs.row_overhead_bytes
                          + len(raw) * costs.column_bytes)
                transfer[node_id, worker] = (
                    transfer.get((node_id, worker), 0) + nbytes
                )
                build_counts[worker] = build_counts.get(worker, 0) + 1
        # Route the probe side; erroring/NULL keys go to the first
        # worker, where the probe re-raises or pads deterministically.
        lefts_by_worker: dict[int, list] = {}
        probe_counts: dict[int, int] = {}
        for node_id in sorted(self.left):
            for tag, row in self.left[node_id]:
                key = _shuffle_key(probe_key, row, self.context)
                worker = workers[0] if key is None else worker_of(key)
                lefts_by_worker.setdefault(worker, []).append((tag, row))
                probe_counts[worker] = probe_counts.get(worker, 0) + 1
                transfer[node_id, worker] = (
                    transfer.get((node_id, worker), 0)
                    + self._bound_bytes([(tag, row)])
                )

        def workers_done() -> None:
            results, probe_error = self._probe_all(
                step, build_index, right_columns,
                {w: sorted(lefts_by_worker[w]) for w in lefts_by_worker},
            )
            self._advance(index, results, probe_error)

        def all_arrived() -> None:
            busy = sorted(set(build_counts) | set(probe_counts))
            worked = self.attempt.gather(len(busy), workers_done)
            for worker in busy:
                duration = join_stage_ms(
                    costs, build_counts.get(worker, 0),
                    probe_counts.get(worker, 0),
                )
                self.attempt.bill(worker, worker + index, duration,
                                  worked)

        pairs = sorted(transfer)
        arrived = self.attempt.gather(len(pairs), all_arrived)
        for sender, worker in pairs:
            nbytes = transfer[sender, worker]
            execution.join_bytes_shuffled += nbytes
            execution.bytes_shipped += nbytes
            self.attempt.send(sender, worker, ("join-shuffle", index),
                              nbytes, arrived)

    # -- index-nested-loop ----------------------------------------------

    def _run_index_nested(self, index: int, step: JoinFragment) -> None:
        """Index-assisted broadcast: resolve the build side through the
        index on the join column (only the probe side's keys), filter
        the candidates through the table's scan fragment, then run the
        broadcast tail.  INNER-only — the chooser rejects LEFT."""
        service = self.service
        execution = self.execution
        costs = self.costs
        view = self.record.views[step.table]
        column = step.using[0] if step.using else step.build.name
        probe_key = compile_join_key(step.using, step.probe)
        keys: list = []
        seen: set = set()
        for node_id in sorted(self.left):
            for _tag, row in self.left[node_id]:
                key = _shuffle_key(probe_key, row, self.context)
                if key is None:
                    continue  # NULL / erroring keys cannot match
                if step.using:
                    key = key[0]
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        probe = EqProbe(values=tuple(keys))
        fragment = self.record.fragment(step.table)
        if fragment is not None:
            compiled, _hit = compile_fragment(
                fragment, service.compiled_fragments
            )
        nodes = sorted(service.cluster.surviving_node_ids())
        surviving: dict[int, list] = {}
        fetched = self.attempt.gather(
            len(nodes), self._index_build_and_broadcast, index, step,
            surviving,
        )
        for node_id in nodes:
            partitions = view.partitions_on_node(node_id)
            candidates = view.index_scan(partitions, column, probe)
            execution.index_probes += len(partitions)
            execution.index_rows_read += len(candidates)
            if fragment is not None:
                try:
                    lock_keys, payload, _batches = run_fragment_batches(
                        compiled, candidates, self.context,
                        costs.scan_chunk_entries,
                    )
                except Exception as exc:  # noqa: BLE001 — ship as the error
                    self.attempt.finish(None, exc)
                    return
            else:
                lock_keys, payload = candidates.keys, candidates.rows()
            if payload:
                surviving[node_id] = payload
            duration = shard_read_ms(
                costs, len(candidates),
                pushed_stage(fragment, len(candidates)),
                len(partitions), indexed=True,
            )

            if service.repeatable_read and not view.immutable:
                self.attempt.bill(
                    node_id, node_id + index, duration,
                    service._lock_rows, execution, step.table, lock_keys,
                    fetched,
                )
            else:
                self.attempt.bill(node_id, node_id + index, duration,
                                  fetched)

    def _index_build_and_broadcast(self, index: int, step: JoinFragment,
                                   surviving: dict[int, list]) -> None:
        execution = self.execution

        def assembled() -> None:
            rights = self._tagged_rights(step, surviving)
            self.scanned += len(rights)
            execution.join_build_rows += len(rights)
            right_columns = collect_right_columns(
                [row for _tag, row in rights]
            )
            build_index, build_error = build_join_index(
                rights, step.using, step.build, self.context
            )
            self._run_broadcast(index, step, surviving, build_index,
                                build_error, right_columns, len(rights))

        senders = sorted(surviving)
        arrived = self.attempt.gather(len(senders), assembled)
        for node_id in senders:
            nbytes = self._raw_bytes(surviving[node_id])
            execution.bytes_shipped += nbytes
            self.attempt.send(node_id, execution.entry_node,
                              ("join-inlj", index), nbytes, arrived)

    # -- finalization ---------------------------------------------------

    def _final_ship(self) -> None:
        execution = self.execution
        holders = sorted(self.left)
        shipped: list = []
        arrived = self.attempt.gather(
            len(holders), self.attempt.merge, self._finalize, shipped
        )
        for node_id in holders:
            rows = self.left[node_id]
            nbytes = self._bound_bytes(rows)
            execution.rows_shipped += len(rows)
            execution.bytes_shipped += nbytes
            self.attempt.send(node_id, execution.entry_node,
                              "join-result", nbytes, arrived)
            shipped.extend(rows)

    def _finalize(self, shipped: list) -> None:
        shipped.sort(key=lambda item: item[0])
        rows = [row for _tag, row in shipped]
        context = EvalContext(now_ms=self.service.sim.now)
        try:
            result = execute_joined_select(
                self.join.final_select, rows, context,
                scanned=self.scanned,
            )
        except Exception as exc:  # surface SQL errors on the handle
            self.attempt.finish(None, exc)
            return
        self.attempt.finish(result, None)


def _shuffle_key(key_of, row: dict, context: EvalContext):
    """A row's join key for routing — ``None`` for NULL components or
    evaluation errors (the worker-side probe re-raises those with the
    right tag, so routing never has to)."""
    try:
        return key_of(row, context)
    except Exception:  # noqa: BLE001 — surfaced by the worker's probe
        return None
