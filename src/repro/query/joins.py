"""Distributed multi-way join execution.

The query service executes eligible JOIN statements as a pipeline of
per-step build/probe *stages* instead of shipping every table's rows to
the entry node.  :func:`repro.sql.access.choose_join_path` picks each
step's strategy up front from CostModel-priced candidates, and the
strategy only decides the stage's *placement* — where its work runs:

* **co-partitioned** — the join key is the partition key on both sides
  and the tables share placement: every node builds and probes its own
  rows, and nothing crosses the network;
* **broadcast** — a small build side is built once on the entry node
  and sent to every node holding probe rows, which probes its own;
* **shuffle-hash** — the fallback: both sides repartition by join key
  over the survivors, and each builds and probes its slice;
* **index-nested-loop** — a broadcast whose build side is read through
  a secondary index over just the keys the probe side holds.

One stage runner executes every placement: it pools the entry build,
sends the transfers, bills each worker once its own inbound transfers
have landed, and fans in.  The rows themselves are joined in-process by
:mod:`repro.sql.join` — the position join the entry node runs for a
central join, on one worker — so correctness never depends on the
strategy; the placement only decides where simulated time and network
bytes are billed, the split the scan machinery uses.  Which error a
statement raises is the contract of :mod:`repro.sql.batch`.

Everything bills, ships and fans in through the query's attempt
(``_Attempt`` in ``service.py``): the death of a node the attempt
touched voids scans and stages alike and the query starts over on the
survivors — a stage is never resumed half-way, because its inputs may
have lived on the dead node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import gt
from typing import Callable

from ..cluster.partition import copartitioned_tables, stable_hashes
from ..kvstore.indexes import EqProbe
from ..sql import EvalContext
from ..sql.access import (
    JoinCandidate,
    JoinPath,
    choose_join_path,
    join_stage_ms,
    shipped_bytes,
)
from ..sql.ast import Column, Select
from ..sql.batch import finish
from ..sql.fragments import JoinFragment, KeySet, join_fragments, partition_aligned_binding
from ..sql.join import Joined, JoinedRows, Side, first_error, step_keys
from ..sql.planner import column_equality


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
    #: What each join of the statement runs as (``"central"`` for every
    #: one when the statement joins centrally).
    strategies: tuple[str, ...] = ()


#: The ``QueryExecution`` counter of each strategy in
#: ``JoinPlan.strategies``.
JOIN_COUNTERS = {
    "copartitioned": "joins_copartitioned",
    "broadcast": "joins_broadcast",
    "shuffle": "joins_shuffle",
    "index-nested-loop": "joins_index_nested",
    "central": "joins_central",
}


# -- strategy selection ------------------------------------------------------


def _estimate_rows(service, view, fragment) -> tuple[int, str]:
    """Estimated post-pushdown rows of one side, with its source."""
    partitions, entries = view.partitions_and_entries(
        service.cluster.surviving_node_ids()
    )
    if fragment is not None and isinstance(fragment.key_filter, KeySet):
        return min(entries, len(fragment.key_filter.keys)), "zone-map"
    if (fragment is not None and fragment.pushed and partitions
            and service.sketch_enabled and view.ready("sketch")):
        for conjunct in fragment.pushed:
            equality = column_equality(conjunct)
            if equality is None or not view.has_sketch(equality[0].name,
                                                       "countmin"):
                continue
            answer = view.approx_estimate(partitions, "count_eq",
                                          equality[0].name,
                                          equality[1].value)
            if answer is not None:
                estimate = max(0, int(round(answer[0])))
                return min(entries, estimate), "sketch"
    return entries, "entries"


def _row_width_bytes(costs, fragment) -> int:
    if fragment is not None and fragment.projection is not None:
        return shipped_bytes(costs, 1, len(fragment.projection))
    return shipped_bytes(costs, 1)


def _index_kind_for(service, step: JoinFragment, view,
                    fragment) -> str | None:
    """Index kind on the build column, for index-nested-loop pricing —
    none when the build side pushes conjuncts: they must see its every
    row, and the index reads only those the probe keys match."""
    if not service.index_enabled or (fragment is not None
                                     and fragment.pushed):
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


def plan_distributed_joins(service, select, pushdown,
                           views) -> JoinPlan | None:
    """Decide how a statement's joins run — the plan its execution
    follows and ``explain`` prints: per-step strategy choices, or why
    the joins run centrally (all-versions reads always do: they have no
    ``pushdown`` plan); ``None`` when it joins nothing.  ``views`` bind
    every table to the version it reads."""
    if not isinstance(select, Select) or not select.joins:
        return None
    central = ("central",) * len(select.joins)
    if not service.distributed_joins_enabled:
        return JoinPlan(central="distributed joins disabled",
                        strategies=central)
    steps = join_fragments(select)
    if pushdown is None or pushdown.partial is not None or steps is None:
        return JoinPlan(central="statement not eligible for distributed "
                        "join execution", strategies=central)
    nodes = service.cluster.surviving_node_ids()
    costs = service.costs
    base_name = select.table.name
    base_binding = select.table.binding
    base_fragment = pushdown.fragments.get(base_name)
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
        fragment = pushdown.fragments.get(step.table)
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
            index_kind=_index_kind_for(service, step, right_view,
                                       fragment),
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
    paths = tuple(paths)
    strategies = tuple(path.strategy for path in paths)
    if "central" in strategies:
        # One central step makes the whole statement central: the entry
        # node needs every table's rows anyway, so a mixed pipeline
        # would only add stages without saving shipping.
        return JoinPlan(steps, paths, central="a step priced central, so "
                        "the entry node needs every table anyway",
                        strategies=central)

    def tables(*strategies: str) -> frozenset:
        return frozenset(step.table for step, path in zip(steps, paths)
                         if path.strategy in strategies)

    return JoinPlan(steps, paths, excluded=tables("index-nested-loop"),
                    local=tables("copartitioned", "shuffle")
                    | {select.table.name}, strategies=strategies)


# -- the stage pipeline ------------------------------------------------------


def start_join_pipeline(service, record) -> None:
    """All scans landed, and nothing they shipped raises: run the
    per-step stages."""
    _PipelineRunner(service, record).run()


@dataclass
class _Placement:
    """Where one join stage runs: all its strategy decides.

    The entry node first builds ``entry`` rows (``None``: nothing); each
    of the ``transfers`` ``(src, dst) -> bytes`` then crosses the
    network, billed to the execution's ``counter``; each worker of
    ``work`` bills the stage time of its ``(build rows, probe rows)``
    once its own inbound transfers have landed, and probes
    ``held[worker]``: its left rows' order tags and hash keys, in tag
    order."""

    work: dict[int, tuple[int, int]]
    held: dict[int, tuple[list, list]]
    transfers: dict[tuple[int, int], int] = field(default_factory=dict)
    counter: str = "join_bytes_broadcast"
    entry: int | None = None


class _PipelineRunner:
    """Executes one query's join stages; one instance per (re)start.

    A step keys its left rows once (:meth:`_step`), its strategy places
    its work (:attr:`PLACEMENTS`), one :meth:`_stage` bills, ships and
    fans it in, and :meth:`_probe` surfaces the step's first key error
    or matches.  Everything runs as continuations of the attempt's
    ``bill`` / ``send`` / ``pool`` / ``gather``, so none of it outlives
    the attempt."""

    def __init__(self, service, record) -> None:
        self.service = service
        self.record = record
        self.plan = record.plan
        self.join = record.plan.join
        self.execution = record.execution
        self.attempt = record.attempt
        self.costs = service.costs
        #: The base table, then each step's right side.
        self.joined = JoinedRows()
        #: holder node -> order tags of the left rows it holds, in order.
        self.left: dict[int, list[tuple]] = {}

    # -- pipeline -------------------------------------------------------

    def run(self) -> None:
        table = self.plan.select.table
        base = self.joined.side(table.binding, self.attempt.rows[table.name])
        for node_id, span in base.spans.items():
            self.left[node_id] = list(zip(span))
        self._step(0)

    def _step(self, index: int) -> None:
        """Key every holder's left rows for step ``index`` — routing, an
        index-nested-loop lookup and the probe all read these — and
        place the step, an index-nested-loop one once its build side is
        read."""
        if index >= len(self.join.steps):
            self._final_ship()
            return
        step = self.join.steps[index]
        probe = {node_id: step_keys(step.using, step.probe,
                                    partial(self.joined.left_values, tags),
                                    tags, 1)
                 for node_id, tags in sorted(self.left.items())}
        if self.join.paths[index].strategy != "index-nested-loop":
            self._place(index, step, probe)
            return
        # INNER-only (the chooser rejects LEFT): read the build side as
        # index-scan shards over just the probe side's keys.  A NULL or
        # erroring key cannot match; a NaN, which equals nothing, dedupes
        # by identity, as a set of raw keys does.
        keys: dict = {}
        for routes, hashed, _error in probe.values():
            for key, marker in zip(routes, hashed):
                if key is not None:
                    key = key[0] if step.using else key
                    keys.setdefault(id(key) if marker is None else marker,
                                    key)
        lookup = (step.using[0] if step.using else step.build.name,
                  EqProbe(values=tuple(keys.values())))
        service = self.service
        view = self.plan.views[step.table]
        fragment = self.plan.fragment(step.table)
        # Known only now, these rows lock after the scanned tables'.
        service._read_shards(self.record, [
            (step.table, node_id, service._scan_selection(
                view, fragment, node_id, lookup=lookup))
            for node_id in sorted(service.cluster.surviving_node_ids())
        ], self._index_read, index, step, probe)

    def _index_read(self, index: int, step: JoinFragment,
                    probe: dict) -> None:
        error = self.service._first_error(self.record)
        if error is not None:
            self.attempt.finish(None, error)
            return
        self._place(index, step, probe)

    def _place(self, index: int, step: JoinFragment, probe: dict) -> None:
        """Key the step's right side, place the step by its strategy,
        pick its first key error — one ``min`` over both sides — and run
        the stage."""
        right = self.joined.side(step.binding, self.attempt.rows[step.table])
        self.execution.join_build_rows += len(right.rows)
        routes, keys, error = step_keys(step.using, step.build, right.column,
                                        range(len(right.rows)), 0)
        placement = self.PLACEMENTS[self.join.paths[index].strategy](
            self, right, routes, probe)
        errors = [error, *(error for *_, error in probe.values())]
        self._stage(index, placement, partial(
            self._probe, index, step, keys, placement.held,
            first_error(errors),
        ))

    def _stage(self, index: int, placement: _Placement,
               done: Callable[[], None], built: bool = False) -> None:
        """Run stage ``index`` where ``placement`` put it: pool the entry
        build, send the transfers in ``(src, dst)`` order, bill each
        worker on stripe ``worker + index`` once its own transfers have
        landed (at once when none go to it), and fan in to ``done``."""
        attempt = self.attempt
        if placement.entry is not None and not built:
            attempt.pool(join_stage_ms(self.costs, placement.entry, 0),
                         self._stage, index, placement, done, True)
            return
        worked = attempt.gather(len(placement.work), done)
        inbound = Counter(dst for _src, dst in placement.transfers)
        landed = {worker: attempt.gather(
            inbound[worker], attempt.bill, worker, worker + index,
            join_stage_ms(self.costs, *rows), worked,
        ) for worker, rows in sorted(placement.work.items())}
        execution = self.execution
        shipped = sum(placement.transfers.values())
        execution.bytes_shipped += shipped
        setattr(execution, placement.counter,
                getattr(execution, placement.counter) + shipped)
        for (src, dst), nbytes in sorted(placement.transfers.items()):
            attempt.send(src, dst, ("join", index), nbytes, landed[dst])

    def _probe(self, index: int, step: JoinFragment, keys: list,
               held: dict, error: Exception | None) -> None:
        """Every worker is done: fail with the step's first key error, or
        match each worker's held tags against the build keys and go on."""
        if error is not None:
            self.attempt.finish(None, error)
            return
        self.left = self.joined.match(keys, held, step.kind)
        self._step(index + 1)

    # -- placements -----------------------------------------------------

    def _held(self, probe: dict) -> dict[int, tuple[list, list]]:
        """Every holder probes its own left rows."""
        return {node_id: (self.left[node_id], keys)
                for node_id, (_routes, keys, _error) in probe.items()}

    def _copartitioned(self, right: Side, routes: list,
                       probe: dict) -> _Placement:
        """Build and probe on every node where the rows are: matching
        rows are co-located by the partition key, so probing the global
        map returns exactly the local matches."""
        return _Placement(
            work={node_id: (len(right.spans.get(node_id, ())),
                            len(self.left.get(node_id, ())))
                  for node_id in set(self.left) | set(right.spans)},
            held=self._held(probe),
        )

    def _broadcast(self, right: Side, routes: list,
                   probe: dict) -> _Placement:
        """Build once on the entry node, which the build side reached
        through its shards' shipment, and replicate it to every holder
        of left rows, which probes its own."""
        nbytes = shipped_bytes(self.costs, len(right.rows),
                               right.rows.width())
        entry = self.execution.entry_node
        return _Placement(
            work={node_id: (0, len(self.left[node_id])) for node_id in probe},
            held=self._held(probe),
            transfers={(entry, node_id): nbytes for node_id in probe},
            entry=len(right.rows),
        )

    def _shuffle(self, right: Side, routes: list,
                 probe: dict) -> _Placement:
        """Repartition both sides by join key over the survivors; each
        worker builds and probes its slice."""
        costs = self.costs
        workers = sorted(self.service.cluster.surviving_node_ids())
        count = max(1, len(workers))
        transfers: Counter = Counter()
        work: dict = {}  # worker -> [build rows, probe rows]

        def route(sender: int, keys, widths, side: int,
                  fallback: int | None) -> list:
            """Each row's worker — its key's, ``fallback`` for a NULL
            key — billing the trip of every row that goes somewhere to
            ``side`` (0 builds, 1 probes) of that worker's work."""
            went = [fallback if hashed is None else workers[hashed % count]
                    for hashed in stable_hashes(keys)]
            tally = (Counter(zip(went, widths)) if len(set(widths)) > 1
                     else {(worker, widths[0]): rows
                           for worker, rows in Counter(went).items()})
            for (worker, width), rows in tally.items():
                if worker is not None:
                    work.setdefault(worker, [0, 0])[side] += rows
                    transfers[sender, worker] += shipped_bytes(
                        costs, rows, rows * width)
            return went

        # The build side ships one slice per worker, keyed exactly like
        # the map (NULL keys never ship — they cannot match).
        widths = ([len(right.layout)] * len(right.rows)
                  if right.layout is not None
                  else [len(names) // 2 for names in right.bound()[0]])
        for node_id, span in right.spans.items():
            route(node_id, routes[span.start:span.stop],
                  widths[span.start:span.stop], 0, None)
        # NULL probe keys go to the first worker, which pads or drops
        # them deterministically.
        held = {worker: ([], []) for worker in workers}  # tags, keys
        for node_id, (keyed, keys, _error) in probe.items():
            tags = self.left[node_id]
            went = route(node_id, keyed, self.joined.widths(tags), 1,
                         workers[0])
            for worker, tag, key in zip(went, tags, keys):
                held[worker][0].append(tag)
                held[worker][1].append(key)
        for worker, (tags, keys) in held.items():
            if any(map(gt, tags, tags[1:])):  # into tag order
                order = sorted(range(len(tags)), key=tags.__getitem__)
                held[worker] = ([tags[i] for i in order],
                                [keys[i] for i in order])
        return _Placement(work, held, transfers, "join_bytes_shuffled")

    #: Each strategy's placement; an index-nested-loop step's build
    #: side, read through the index, is broadcast.
    PLACEMENTS = {"copartitioned": _copartitioned, "broadcast": _broadcast,
                  "shuffle": _shuffle, "index-nested-loop": _broadcast}

    # -- finalization ---------------------------------------------------

    def _final_ship(self) -> None:
        execution = self.execution
        holders = sorted(self.left)
        shipped: list = []
        arrived = self.attempt.gather(len(holders), self.attempt.merge,
                                      self._finalize, shipped)
        for node_id in holders:
            tags = self.left[node_id]
            nbytes = shipped_bytes(self.costs, len(tags),
                                   sum(self.joined.widths(tags)))
            execution.rows_shipped += len(tags)
            execution.bytes_shipped += nbytes
            self.attempt.send(node_id, execution.entry_node,
                              "join-result", nbytes, arrived)
            shipped.extend(tags)

    def _finalize(self, shipped: list) -> None:
        """Run the statement's final stage over the shipped order tags,
        sorted into statement order."""
        shipped.sort()
        select = self.plan.pushdown.final_select
        context = EvalContext(now_ms=self.service.sim.now)
        try:
            result = finish(select, Joined(self.joined, shipped),
                            select.aggregates(), context,
                            self.joined.scanned)
        except Exception as exc:  # surface SQL errors on the handle
            self.attempt.finish(None, exc)
            return
        self.attempt.finish(result, None)
