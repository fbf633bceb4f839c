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
billing plane) — the same split the scan machinery uses.

Join inputs stay in the column batches their shards shipped.  Each
table is one run of rows in canonical order (node id, then scan order),
and a row is its *position* in that run.  A build maps join keys to
positions and a probe emits *position tuples*, one position per table
joined so far (LEFT-join NULL padding appends ``-1``).  A tuple is also
the row's *order tag*: the entry node sorts the tags, which reproduces
the central left-deep execution's row order bit for bit, and only then
shapes each into one merged dict — the row central would have built,
down to its key order.  Error precedence also mirrors central
execution: scan-fragment errors (table FROM order, node-sorted) outrank
statement-shape validation, which outranks the first build-key error
(minimum right position), which outranks the first probe-key error
(minimum left tag); residual/projection errors surface naturally from
the sorted merged rows.

Every stage bills, ships and fans in through the query's attempt
(``_Attempt`` in ``service.py``), so failure handling is the query
service's: the death of a node the attempt touched voids scans and
stages alike and the query starts over on the survivors — build/probe
stages are never resumed half-way, because a stage's inputs may have
lived on the dead node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import gt, itemgetter

from ..cluster.partition import copartitioned_tables, stable_hashes
from ..errors import SqlExecutionError
from ..kvstore.indexes import MISSING, EqProbe
from ..sql import EvalContext
from ..sql.access import (
    JoinCandidate,
    JoinPath,
    choose_join_path,
    join_stage_ms,
    shipped_bytes,
)
from ..sql.ast import Binary, Column, Literal, Select
from ..sql.compiled import column_reads
from ..sql.executor import (
    execute_joined_select,
    join_key,
    join_keys,
    using_keys,
)
from ..sql.fragments import JoinFragment, KeySet, join_fragments, partition_aligned_binding
from ..sql.planner import validate_select
from ..state.rows import ColumnBatch, ColumnReader


@dataclass(frozen=True)
class JoinPlan:
    """Chosen strategies and table roles for one joining statement."""

    steps: tuple[JoinFragment, ...] = ()
    paths: tuple[JoinPath, ...] = ()
    #: Why the joins run on the entry node (``None``: they run as the
    #: distributed stages of ``paths``).
    central: str | None = None
    #: tables whose scan payload stays node-local (ack shipment).
    local: frozenset = frozenset()
    #: index-nested-loop build tables — read through the index mid-join
    #: instead of scanned.
    excluded: frozenset = frozenset()


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
        return shipped_bytes(costs, 1, len(fragment.projection))
    return shipped_bytes(costs, 1)


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
    if column is None or not view.ready("index"):
        return None
    return view.index_columns().get(column)


def choose_join_strategies(service, select: Select, plan, views):
    """Per-step strategy choices, or why the statement must run its
    joins centrally (all-versions reads always do: they have no
    distributed plan).  ``views`` binds every table to the version it
    reads."""
    if not service.distributed_joins_enabled:
        return "distributed joins disabled"
    steps = join_fragments(select)
    if plan is None or plan.partial is not None or steps is None:
        return "statement not eligible for distributed join execution"
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
    """Decide how a query's joins run — the plan its execution follows
    and ``explain`` prints — and update the strategy counters; ``None``
    when the statement joins nothing (or runs as pure load)."""
    execution = record.execution
    select = record.select
    if not isinstance(select, Select) or not select.joins:
        return None
    if not execution.materialize:
        return None
    chosen = choose_join_strategies(
        service, select, record.plan, record.views
    )
    if isinstance(chosen, str):
        plan = JoinPlan(central=chosen)
    elif any(path.strategy == "central" for path in chosen[1]):
        # One central step makes the whole statement central: the entry
        # node needs every table's rows anyway, so a mixed pipeline
        # would only add stages without saving shipping.
        plan = JoinPlan(*chosen, central="a step priced central, so the "
                        "entry node needs every table anyway")
    else:
        plan = None
    if plan is not None:
        execution.joins_central += len(select.joins)
        execution.join_strategies = ["central"] * len(select.joins)
        return plan
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
    return JoinPlan(steps, paths, local=frozenset(local),
                    excluded=frozenset(excluded))


# -- the stage pipeline ------------------------------------------------------


def start_join_pipeline(service, record) -> None:
    """All scans landed without a scan-side error: validate the
    statement shape, then run the per-step stages."""
    try:
        validate_select(record.plan.final_select)
    except Exception as exc:  # same errors central plan_select raises
        record.attempt.finish(None, exc)
        return
    _PipelineRunner(service, record).run()


class _Side:
    """One join input: the blocks its shards shipped, as one batch in
    canonical order (node id, then scan order)."""

    def __init__(self, binding: str, blocks: dict[int, ColumnBatch]) -> None:
        self.binding = binding
        self.rows = ColumnBatch(ColumnReader())
        #: node id -> the positions of its block's rows.
        self.spans: dict[int, range] = {}
        for node_id in sorted(blocks):
            start = len(self.rows)
            self.rows.extend(blocks[node_id])
            self.spans[node_id] = range(start, len(self.rows))
        #: The columns of every row, in row order (``None``: rows differ).
        self.layout = self.rows.layout()
        #: A LEFT-join probe padded some left row with this side.
        self.padded = False
        self._columns: dict = {}
        self._bound: tuple[list, list] | None = None
        self._pad: dict | None = None

    def column(self, name) -> list:
        """A stored column, or (for a :class:`Column`) the column as the
        rows' bound form reads it; :data:`MISSING` where a row has none."""
        if name not in self._columns:
            if isinstance(name, str):
                self._columns[name] = self.rows.column(name)
            else:  # the first of the names it reads that a row has
                first, *fallback = column_reads(name, self.binding)
                values = self.column(first)
                if fallback and MISSING in values:
                    values = [found if value is MISSING else value for
                              value, found in zip(values,
                                                  self.column(fallback[0]))]
                self._columns[name] = values
        return self._columns[name]

    def bound(self) -> tuple[list, list]:
        """Each row as ``dict(zip(names, values))`` binds it: its
        columns, then the same qualified with the binding."""
        if self._bound is None:
            layouts, rows = self.rows.tuples()
            self._bound = ([self.qualified(names) for names in layouts],
                           [row + row for row in rows])
        return self._bound

    def qualified(self, names: tuple[str, ...]) -> tuple[str, ...]:
        return names + tuple(f"{self.binding}.{name}" for name in names)

    def pad(self) -> dict:
        """LEFT-join NULL padding: every bound column, in the order the
        central join's right-column set, built row by row, holds them."""
        if self._pad is None:
            columns: set = set()
            for names in dict.fromkeys(self.bound()[0]):
                columns.update(names)
            self._pad = dict.fromkeys(columns)
        return self._pad


def _step_keys(using: tuple[str, ...], expr: Column | None, read,
               order) -> tuple[list, list, tuple | None]:
    """One side of a join step, per row in ``order``: the routing key
    (``None``: the row cannot match), the hash key, and the first key
    error as ``((rank, tag), error)`` — an unknown column ranks 0, a
    value no hash join can key its key column's place (from 1).
    ``read`` reads a :class:`Column` of the rows; a ``USING`` column a
    row lacks reads as NULL."""
    if using:
        parts = [[None if value is MISSING else value
                  for value in read(Column(name))] for name in using]
        routes = [None if None in key else key for key in zip(*parts)]
    else:
        parts = [read(expr)]
        routes = parts[0]
        if MISSING in routes:
            error = SqlExecutionError(f"unknown column {expr.display()!r}")
            tag = min(tag for tag, value in zip(order, routes)
                      if value is MISSING)
            return [None if value is MISSING else value for value in routes], \
                [None] * len(routes), ((0, tag), error)
    try:
        return routes, using_keys(parts) if using else join_keys(parts[0]), \
            None
    except SqlExecutionError:
        pass
    for rank, values in enumerate(parts, start=1):
        for tag, value in sorted(zip(order, values), key=itemgetter(0)):
            try:
                join_key(value)
            except SqlExecutionError as exc:
                return routes, [None] * len(routes), ((rank, tag), exc)


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
        #: The base table, then each step's right side; a left row's
        #: order tag holds one position in each.
        self.sides: list[_Side] = []
        #: holder node -> order tags of the left rows it holds, in order.
        self.left: dict[int, list[tuple]] = {}
        self.scanned = 0

    # -- plumbing -------------------------------------------------------

    def _side(self, binding: str, blocks: dict[int, ColumnBatch]) -> _Side:
        side = _Side(binding, blocks)
        self.sides.append(side)
        self.scanned += len(side.rows)
        return side

    def _left_values(self, tags: list, column: Column) -> list:
        """``column`` as each left row's merged row reads it: from the
        first side, left to right, whose row has it (a padded side has
        every column it pads, as NULL); :data:`MISSING` where none has."""
        values: list = []
        for index, side in enumerate(self.sides[:len(tags[0])] if tags
                                     else ()):
            found = side.column(column)
            if side.padded:  # position -1 reads the padding
                found = found + [None if column_reads(column, None)[0]
                                 in side.pad() else MISSING]
            read = list(map(found.__getitem__, map(itemgetter(index), tags)))
            values = read if not values else [
                other if value is MISSING else value
                for value, other in zip(values, read)
            ]
            if MISSING not in values:
                break
        return values

    def _probe_keys(self, step: JoinFragment, tags: list) -> tuple:
        return _step_keys(step.using, step.probe,
                          partial(self._left_values, tags), tags)

    def _widths(self, tags: list) -> list[int]:
        """Each left row's unqualified column count: the columns a
        shipped merged row bills."""
        sides = self.sides[:len(tags[0])] if tags else []
        if all(side.layout is not None for side in sides):
            names = {name for side in sides for name in side.layout
                     if "." not in name}
            return [len(names)] * len(tags)
        return [sum("." not in name for name in self._merged(tag, len(tag)))
                for tag in tags]

    # -- pipeline -------------------------------------------------------

    def run(self) -> None:
        table = self.record.select.table
        base = self._side(table.binding, self.attempt.rows[table.name])
        for node_id, span in base.spans.items():
            self.left[node_id] = list(zip(span))
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
        right = self._side(step.binding, self.attempt.rows[step.table])
        routes, build, build_error = self._build(step, right)
        if strategy == "copartitioned":
            self._run_copartitioned(index, step, right, build,
                                    build_error)
        elif strategy == "broadcast":
            self._run_broadcast(index, step, right, build, build_error)
        else:
            self._run_shuffle(index, step, right, routes, build,
                              build_error)

    def _build(self, step: JoinFragment, right: _Side) -> tuple:
        """Each right row's routing key, the map from join key to row
        positions (NULL keys cannot match and never enter), and the
        first key error."""
        self.execution.join_build_rows += len(right.rows)
        routes, keys, error = _step_keys(
            step.using, step.build, right.column, range(len(right.rows))
        )
        build: dict = {}
        for position, key in enumerate(keys):
            if key is not None:
                build.setdefault(key, []).append((position,))
        return routes, build, error

    # A build-key error outranks every probe error (central evaluates
    # the whole build side before probing), so stages check it after
    # their build billing and before any probe work.

    def _match(self, index: int, step: JoinFragment, build: dict,
               tags, keys) -> list:
        """Each left row's tag extended with every matching position —
        or, LEFT, with ``-1``, which sorts before any match but only ever
        meets tags of the same left row."""
        pad = ((-1,),) if step.kind == "LEFT" else ()
        get = build.get
        matched = [tag + position for tag, key in zip(tags, keys)
                   for position in get(key) or pad]
        if pad and any(tag[-1] < 0 for tag in matched):
            self.sides[index + 1].padded = True
        return matched

    def _probe_all(self, index: int, step: JoinFragment, build: dict,
                   keyed: dict | None = None) -> None:
        """Probe every holder's rows — ``keyed`` holds them with their
        keys when routing read those — then advance, or finish with the
        minimum-tag probe error."""
        results: dict[int, list] = {}
        probe_error = None
        if keyed is None:
            keyed = {node_id: (tags, None)
                     for node_id, tags in self.left.items()}
        for node_id in sorted(keyed):
            tags, keys = keyed[node_id]
            if keys is None:
                _routes, keys, error = self._probe_keys(step, tags)
                if error is not None and (
                    probe_error is None or error[0] < probe_error[0]
                ):
                    probe_error = error
            matched = self._match(index, step, build, tags, keys)
            if matched:
                results[node_id] = matched
        if probe_error is not None:
            self.attempt.finish(None, probe_error[1])
            return
        self.left = results
        self._step(index + 1)

    # -- co-partitioned -------------------------------------------------

    def _run_copartitioned(self, index: int, step: JoinFragment,
                           right: _Side, build: dict, build_error) -> None:
        # Build and probe are local to every node; matching rows are
        # co-located by the partition key, so probing the global map
        # returns exactly the local matches.  Nothing crosses the wire.
        holders = sorted(set(self.left) | set(right.spans))

        def stages_done() -> None:
            if build_error is not None:
                self.attempt.finish(None, build_error[1])
                return
            self._probe_all(index, step, build)

        staged = self.attempt.gather(len(holders), stages_done)
        for node_id in holders:
            duration = join_stage_ms(
                self.costs, len(right.spans.get(node_id, ())),
                len(self.left.get(node_id, ())),
            )
            self.attempt.bill(node_id, node_id + index, duration, staged)

    # -- broadcast ------------------------------------------------------

    def _run_broadcast(self, index: int, step: JoinFragment,
                       right: _Side, build: dict, build_error) -> None:
        execution = self.execution
        build_bytes = shipped_bytes(self.costs, len(right.rows),
                                    right.rows.width())

        def built() -> None:
            if build_error is not None:
                self.attempt.finish(None, build_error[1])
                return
            holders = sorted(self.left)
            probed = self.attempt.gather(len(holders), self._probe_all,
                                         index, step, build)
            for node_id in holders:
                execution.join_bytes_broadcast += build_bytes
                execution.bytes_shipped += build_bytes
                # Each holder probes its rows once the build arrives.
                self.attempt.send(
                    execution.entry_node, node_id, ("join-bcast", index),
                    build_bytes, self.attempt.bill, node_id, node_id + index,
                    join_stage_ms(self.costs, 0, len(self.left[node_id])),
                    probed,
                )

        # The build side reached the entry node through the normal scan
        # shipment; it is built once there, then replicated.
        self.attempt.pool(join_stage_ms(self.costs, len(right.rows), 0),
                          built)

    # -- shuffle-hash ---------------------------------------------------

    def _run_shuffle(self, index: int, step: JoinFragment, right: _Side,
                     routes: list, build: dict, build_error) -> None:
        if build_error is not None:
            # Central raises while building, before anything probes —
            # and before this step would have shipped anything.
            self.attempt.finish(None, build_error[1])
            return
        costs = self.costs
        execution = self.execution
        workers = sorted(self.service.cluster.surviving_node_ids())
        count = max(1, len(workers))
        transfer: Counter = Counter()
        counts = {"build": Counter(), "probe": Counter()}

        def route(sender: int, keys, widths, side: str,
                  fallback: int | None) -> list:
            """Each row's worker — its key's, ``fallback`` for a NULL
            key — billing the trip of every row that goes somewhere."""
            went = [fallback if hashed is None else workers[hashed % count]
                    for hashed in stable_hashes(keys)]
            tally = (Counter(zip(went, widths)) if len(set(widths)) > 1
                     else {(worker, widths[0]): rows
                           for worker, rows in Counter(went).items()})
            for (worker, width), rows in tally.items():
                if worker is not None:
                    counts[side][worker] += rows
                    transfer[sender, worker] += shipped_bytes(
                        costs, rows, rows * width)
            return went

        # Route the build side: one slice per worker, keyed exactly like
        # the map (NULL keys never ship — they cannot match).
        widths = ([len(right.layout)] * len(right.rows)
                  if right.layout is not None
                  else [len(names) // 2 for names in right.bound()[0]])
        for node_id, span in right.spans.items():
            route(node_id, routes[span.start:span.stop],
                  widths[span.start:span.stop], "build", None)
        # Route the probe side; erroring/NULL keys go to the first
        # worker, where the probe re-raises or pads deterministically.
        held = {worker: ([], []) for worker in workers}  # tags, keys
        errors = []
        for node_id in sorted(self.left):
            tags = self.left[node_id]
            keyed, keys, error = self._probe_keys(step, tags)
            errors += [error] if error is not None else []
            went = route(node_id, keyed, self._widths(tags), "probe",
                         workers[0])
            for worker, tag, key in zip(went, tags, keys):
                worker_tags, worker_keys = held[worker]
                worker_tags.append(tag)
                worker_keys.append(key)

        def workers_done() -> None:
            if errors:
                self.attempt.finish(None, min(errors, key=itemgetter(0))[1])
                return
            for worker, (tags, keys) in held.items():
                if any(map(gt, tags, tags[1:])):  # into tag order
                    order = sorted(range(len(tags)), key=tags.__getitem__)
                    held[worker] = ([tags[i] for i in order],
                                    [keys[i] for i in order])
            self._probe_all(index, step, build, held)

        def all_arrived() -> None:
            busy = sorted(set(counts["build"]) | set(counts["probe"]))
            worked = self.attempt.gather(len(busy), workers_done)
            for worker in busy:
                duration = join_stage_ms(costs, counts["build"][worker],
                                         counts["probe"][worker])
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
        """Index-assisted broadcast: read the build side as index-scan
        shards of the query over just the keys the probe side holds
        (``QueryService._scan_selection`` with a lookup), then run the
        broadcast tail over what they ship.  INNER-only — the chooser
        rejects LEFT."""
        service = self.service
        keys: list = []
        seen: set = set()
        for node_id in sorted(self.left):
            routes, hashed, _error = self._probe_keys(
                step, self.left[node_id]
            )
            for key, marker in zip(routes, hashed):
                if key is None:
                    continue  # NULL / erroring keys cannot match
                if step.using:
                    key = key[0]
                # A NaN equals nothing, itself included: dedupe it by
                # identity, as a set of raw keys does.
                marker = id(key) if marker is None else marker
                if marker not in seen:
                    seen.add(marker)
                    keys.append(key)
        lookup = (step.using[0] if step.using else step.build.name,
                  EqProbe(values=tuple(keys)))
        # Known only now, these rows lock after the scanned tables'.
        service._read_shards(self.record, [
            (step.table, node_id, service._scan_selection(
                self.record, step.table, node_id, lookup=lookup))
            for node_id in sorted(service.cluster.surviving_node_ids())
        ], self._index_read, index, step)

    def _index_read(self, index: int, step: JoinFragment) -> None:
        error = self.service._first_shard_error(self.record)
        if error is not None:
            self.attempt.finish(None, error)
            return
        right = self._side(step.binding, self.attempt.rows[step.table])
        _routes, build, build_error = self._build(step, right)
        self._run_broadcast(index, step, right, build, build_error)

    # -- finalization ---------------------------------------------------

    def _final_ship(self) -> None:
        execution = self.execution
        holders = sorted(self.left)
        shipped: list = []
        arrived = self.attempt.gather(
            len(holders), self.attempt.merge, self._finalize, shipped
        )
        for node_id in holders:
            tags = self.left[node_id]
            nbytes = shipped_bytes(self.costs, len(tags),
                                   sum(self._widths(tags)))
            execution.rows_shipped += len(tags)
            execution.bytes_shipped += nbytes
            self.attempt.send(node_id, execution.entry_node,
                              "join-result", nbytes, arrived)
            shipped.extend(tags)

    def _finalize(self, shipped: list) -> None:
        shipped.sort()
        context = EvalContext(now_ms=self.service.sim.now)
        try:
            result = execute_joined_select(
                self.record.plan.final_select, self._gather(shipped), context,
                scanned=self.scanned,
            )
        except Exception as exc:  # surface SQL errors on the handle
            self.attempt.finish(None, exc)
            return
        self.attempt.finish(result, None)

    def _gather(self, tags: list) -> list[dict]:
        """One merged bound row per order tag, the dict central's
        left-deep join builds: the right-most table's columns first,
        each earlier table's values winning."""
        sides = self.sides
        if not tags or len(sides) != 2 or any(
            side.padded or side.layout is None for side in sides
        ):
            return [self._merged(tag, len(tag)) for tag in tags]
        names: tuple = ()
        columns: list = []
        for index in (1, 0):  # a column gather, right side first
            side = sides[index]
            positions = list(map(itemgetter(index), tags))
            columns += 2 * [list(map(side.column(name).__getitem__, positions))
                            for name in side.layout]
            names += side.qualified(side.layout)
        return list(map(dict, map(zip, repeat(names), zip(*columns))))

    def _merged(self, tag: tuple, upto: int) -> dict:
        """The merged bound row of ``tag``'s first ``upto`` sides; a
        padded side's NULLs follow the row it pads."""
        names: tuple = ()
        values: tuple = ()
        for index in reversed(range(upto)):
            position = tag[index]
            if position < 0:
                inner = self._merged(tag, index)
                padded = dict(inner)
                padded.update(self.sides[index].pad())
                padded.update(inner)
                row = dict(zip(names, values))
                row.update(padded)
                return row
            bound_names, bound_values = self.sides[index].bound()
            names += bound_names[position]
            values += bound_values[position]
        return dict(zip(names, values))
