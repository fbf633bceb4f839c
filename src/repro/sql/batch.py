"""Columnar batch execution: scan fragments on the shards, and the
statement's final stage at the entry node.

The scan path compiles a :class:`~repro.sql.fragments.ScanFragment`
once into :class:`CompiledFragment` — the columns it reads and one
term per group key, aggregate feed and order key — and then streams a
shard's :class:`~repro.state.rows.ColumnBatch` through
:class:`BatchAccumulator` chunk by chunk.  A chunk is a struct of
arrays: one value list per declared column.  A term that is a bare
column reference reads its list; every other expression is its
:func:`~repro.sql.compiled.compile_expr` closure called on a row
holding the declared columns only, so there is still one evaluator.
What ships is the survivors' column batch, not rows: rows are shaped
where they are merged.

Three column kernels do per chunk, in a few C-level calls, what that
per-row code does per row, and hand the chunk back to it whenever they
cannot give exactly what it gives:

* a pushed ``column <op> literal`` conjunct is its
  :func:`~repro.sql.compiled.compile_column_test` over the column's
  list;
* each group's slice of the chunk folds with one
  :meth:`~repro.sql.functions.Aggregate.fold` per accumulator (all of
  the chunk's folds or none);
* once the top-k stage holds ``keep`` rows, a chunk keeps only the rows
  whose first ORDER BY value can still rank before the last of them;
  what ships besides them is, per term, a value of each type its
  survivors held, so the entry node's ORDER BY type check meets every
  survivor's type.

Results are what a row-major sweep (row by row, conjunct by conjunct)
produces: the same surviving rows in the same order, the same
partial-group insertion order and equal accumulator states, the
same first rows under a pushed ORDER BY, and — when a pushed
expression fails — the same first error, whatever the chunk size.

The entry node's final stage (:func:`finish`) is the shard's finish
run once more, over the joined or shipped rows' columns: residual WHERE
conjuncts as the sweep's, groups as an accumulator over a fragment that
reads bound rows (``binding=None``), then projection, DISTINCT and ORDER
BY over column lists (:func:`_output`).  It shapes a dict per output
row only — and per merged row for ``SELECT *``, whose output that is.

The contract every path runs
----------------------------

*The WHERE rule.*  A WHERE is its top-level conjuncts.  Each conjunct
over one table's columns alone (:func:`~repro.sql.fragments.split_where`
says which) runs on that table's rows before any join; the remaining
conjuncts run the same way over the joined rows; each part in written
order.  A row leaves at its first conjunct that is not TRUE, so a row
NULL on one conjunct never evaluates a later one.  A row passes iff
every conjunct is TRUE, so only errors follow from the rule; ``AND``
inside an expression stays three-valued.

*The error order.*  A statement raises its least error by (phase, row
position).  The phases, in order: each table's conjuncts, in FROM
order; each join step's keys, in step order, build before probe
(:func:`~repro.sql.join.step_keys`); the remaining WHERE; grouping (key
and aggregate feeds and adds, row by row); the aggregate results (a
MIN / MAX over types that do not order, call by call, then group by
group in first-seen order); HAVING; projection; ORDER BY.  A row's
position is (node, entry) in the order a scan without pushdown reads
it.  A statement whose shape is invalid raises that before any row is
read.  What an aggregate raises, and what it answers, is the contract
of :mod:`repro.sql.functions`: its states are exact, so neither a
shard split nor chunking changes a result or an error.

*One code path.*  A shard (:func:`sweep_shard`) records its least
``(phase, entry, error)`` instead of raising, and after a failure in a
phase later chunks run only the phases before it; the entry node raises
the least its shards ship, then runs the rest.  Without pushdown, and
for ``execute_select`` over a catalog, the entry node runs the same
per-table sweep over whole rows, a shard per node (:func:`sweep_tables`).
Filters that skip rows unread derive from leading conjuncts only
(:func:`~repro.sql.fragments.extract_key_filter`), so they are exact
too.

Compiled fragments are cached in an LRU keyed by the frozen fragment
itself, so a query shape recurring across shards, retries, and
submissions compiles exactly once.  The cache belongs to the caller
(each ``QueryService`` owns one): whether a compilation is billed must
not depend on what another environment in the same process ran before.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from itertools import chain, compress, repeat

from ..kvstore.indexes import MISSING
from ..state.rows import ColumnBatch, ColumnReader
from .ast import (
    AGGREGATE_FUNCTIONS,
    Binary,
    Column,
    Expr,
    FuncCall,
    Select,
    output_column_name,
)
from .compiled import (
    ColumnTest,
    CompiledExpr,
    EvalContext,
    column_reads,
    compile_column_test,
    compile_expr,
    truthy,
)
from .executor import (
    QueryResult,
    agg_feed_exprs,
    group_keys,
    incomparable,
    keys_until_error,
    new_group_accs,
    order_keyed,
    order_keys,
)
from .fragments import (
    PartialGroups,
    ScanFragment,
    partial_aggregate,
    split_where,
)
from .functions import hashable_key
from .lru import LruCache
from .planner import BatchTable, Plan, collect_columns, conjoin


#: A shard's phases (see the contract above): its table's conjuncts,
#: then grouping.
WHERE, GROUPING = 0, 1

#: The fewest rows a chunk's groups may average for their slices to fold:
#: below it, one :meth:`~repro.sql.functions.Aggregate.fold` per group and
#: accumulator costs about what the ``add`` calls it saves (measured on
#: 512-row chunks folding a COUNT(*) and a SUM).
FOLD_GROUP_ROWS = 6


class _Term:
    """One per-row value a fold, a top-k selection or the final stage's
    projection and ORDER BY reads."""

    __slots__ = ("expr", "fn", "column")

    def __init__(self, expr: Expr, binding: str) -> None:
        self.expr = expr
        self.fn: CompiledExpr = compile_expr(expr, binding)
        #: Set for a bare column reference: the column whose list is
        #: the term's values wherever every row has it — or, for an
        #: aggregate call, the call, under which its results are listed.
        self.column: str | FuncCall | None = (
            column_reads(expr, binding)[0] if isinstance(expr, Column)
            else expr if isinstance(expr, FuncCall)
            and expr.name in AGGREGATE_FUNCTIONS else None
        )


class CompiledFragment:
    """A scan fragment's closures, compiled once and reused per chunk."""

    __slots__ = (
        "fragment", "columns", "predicates", "tests", "group_terms",
        "feed_terms", "calls", "rep_columns", "order_terms", "shipped",
    )

    def __init__(self, fragment: ScanFragment) -> None:
        binding = fragment.binding
        partial = fragment.partial
        top_k = fragment.top_k

        def terms(exprs) -> "tuple[_Term | None, ...]":
            return tuple(
                None if expr is None else _Term(expr, binding)
                for expr in exprs
            )

        self.fragment = fragment
        self.predicates: tuple[CompiledExpr, ...] = tuple(
            compile_expr(conjunct, binding) for conjunct in fragment.pushed
        )
        #: Per pushed conjunct, its test over a column list, if any.
        self.tests = tuple(
            compile_column_test(conjunct, binding)
            for conjunct in fragment.pushed
        )
        self.group_terms = terms(partial.group_by if partial else ())
        #: One per aggregate call; ``None`` feeds 1 per row (COUNT(*)).
        self.feed_terms = terms(
            agg_feed_exprs(partial.calls) if partial else ()
        )
        self.calls = list(partial.calls) if partial else []
        self.rep_columns = partial.rep_columns if partial else ()
        self.order_terms = terms(
            order.expr for order in (top_k.order_by if top_k else ())
        )
        references: list[Column] = []
        for expr in fragment.pushed:
            collect_columns(expr, references)
        for term in self.group_terms + self.feed_terms + self.order_terms:
            if term is not None:
                collect_columns(term.expr, references)
        #: The stored columns a chunk's sweep reads, one list each (the
        #: projection is read where shipped rows are shaped).
        self.columns: tuple[str, ...] = tuple(dict.fromkeys(
            [name for column in references
             for name in column_reads(column, binding)]
            + list(self.rep_columns)
        ))
        #: The columns a shipped survivor shows: the projection's, under
        #: every name a reference to one may read it by.
        self.shipped: tuple[str, ...] | None = None if (
            fragment.projection is None
        ) else tuple(dict.fromkeys(
            name for column in fragment.projection
            for reference in (Column(column), Column(column, binding))
            for name in column_reads(reference, binding)
        ))


def compile_fragment(
    fragment: ScanFragment,
    cache: LruCache[ScanFragment, CompiledFragment],
) -> tuple[CompiledFragment, bool]:
    """The fragment's compiled form (compiled into ``cache`` on a miss)
    and whether it was a cache hit.  Frozen fragments hash by value, so
    structurally identical fragments share one compilation."""
    compiled = cache.get(fragment)
    if compiled is not None:
        return compiled, True
    compiled = CompiledFragment(fragment)
    cache.put(fragment, compiled)
    return compiled, False


class _TopKAbandoned(Exception):
    """An order key failed to evaluate or compare on this shard."""


class _Sweep:
    """One chunk under evaluation: its column lists, the rows closures
    see, and the rows still in play.

    ``survivors`` are chunk-relative row indexes in row order.  Within
    a phase the chunk's least-row error wins, so a term that fails at a
    row takes that row and every later one out of play (``failed``
    keeps the row, the term and the error): terms evaluated afterwards
    only see the rows before it.
    """

    __slots__ = ("columns", "count", "context", "survivors", "dense",
                 "failed", "_rows")

    def __init__(self, columns: dict[str, list], count: int,
                 context: EvalContext) -> None:
        self.columns = columns
        self.count = count
        self.context = context
        self.survivors = list(range(count))
        #: ``survivors`` is still ``range(len(survivors))``.
        self.dense = True
        self.failed: tuple[int, _Term, Exception] | None = None
        self._rows: list | None = None

    @property
    def rows(self) -> list:
        """The rows as closures read them, by chunk index: the declared
        columns only, ``MISSING`` where a row lacks one (that reads as
        absent).  Built on first use for the rows in play then (later
        ones are among them), ``None`` for the others."""
        rows = self._rows
        if rows is None:
            survivors = self.survivors
            rows = self._rows = [None] * self.count
            for index in survivors:
                rows[index] = {}
            for name, values in self.columns.items():
                for index in survivors:
                    rows[index][name] = values[index]
        return rows

    def column(self, name: str) -> list:
        """Column ``name`` over the rows in play, in row order."""
        values = self.columns[name]
        survivors = self.survivors
        if self.dense:
            return values[:len(survivors)]
        return list(map(values.__getitem__, survivors))

    def keep(self, predicate: "CompiledExpr | Expr",
             test: "tuple[str, ColumnTest] | None",
             errors: dict[int, Exception]) -> None:
        """Drop the rows ``predicate`` (an expression's closure) is not
        TRUE on — with its column ``test`` over the column's list when
        it has one and that can tell; a row the predicate fails on is
        dropped with its error recorded.  A predicate given as its
        expression compiles (for bound rows) only when the rows need
        it."""
        if test is not None:
            name, column_test = test
            passed = column_test(self.column(name))
            if passed is not None:
                self.survivors = list(compress(self.survivors, passed))
                self.dense = False
                return
        if isinstance(predicate, Expr):
            predicate = compile_expr(predicate)
        rows = self.rows
        context = self.context
        passed = []
        for index in self.survivors:
            try:
                value = predicate(rows[index], context)
            except Exception as exc:  # noqa: BLE001 — re-raised by caller
                errors[index] = exc
                continue
            if value is True or truthy(value):
                passed.append(index)
        self.survivors = passed
        self.dense = False

    def values(self, term: "_Term | None") -> list:
        """``term`` over the rows in play, in row order."""
        survivors = self.survivors
        if term is None:
            return [1] * len(survivors)
        if term.column in self.columns:
            values = self.column(term.column)
            if MISSING not in values:
                return values
        fn = term.fn
        rows = self.rows
        context = self.context
        values = []
        try:
            for index in survivors:
                values.append(fn(rows[index], context))
        except Exception as exc:  # noqa: BLE001 — re-raised by caller
            self.failed = (survivors[len(values)], term, exc)
            del survivors[len(values):]
        return values


class BatchAccumulator:
    """Per-(table, node, attempt) scan-side state, fed whole chunks.

    Predicates run conjunct-major over the chunk (each conjunct only
    over the rows still in play, so a row an earlier conjunct is not
    TRUE on never evaluates — or errors in — a later one), then
    survivors fold into groups or projected rows in row order, term by
    term.  Errors raised by compiled expressions are collected per row
    and the chunk's least-row error of its earliest failing phase is
    recorded in :attr:`failed` — the error a row-major sweep would
    surface first.

    With ``keep`` the fragment's top-k stage runs: of the survivors only
    the first ``keep`` in ORDER BY order are held, re-selected after
    every chunk from the held rows followed by the chunk's own first
    ``keep`` — held rows first, so rows that tie stay in scan order and
    the held set does not depend on the chunk size.

    Survivors that ship are kept as entry indexes into the one batch
    the chunks are runs of: the payload is its
    :meth:`~repro.state.rows.ColumnBatch.take` of them, so no row is
    shaped on the shard.
    """

    def __init__(self, compiled: CompiledFragment, context: EvalContext,
                 keep: int | None = None) -> None:
        self.compiled = compiled
        self.context = context
        self.keep = keep
        self.batch: ColumnBatch | None = None
        #: Entry indexes of the survivors that ship, in row order.
        self.kept: list[int] = []
        #: top-k stage: ``(order key, entry index)`` of the held rows, and
        #: per ORDER BY term a value of each type any survivor held.
        self.top: list[tuple[tuple, int]] = []
        self.order_types: list[dict] = [
            {} for _term in (compiled.fragment.top_k.order_by
                             if keep is not None else ())
        ]
        #: Per term, whether a survivor held a float that is not NaN.
        self.real_floats = [False] * len(self.order_types)
        self.groups: dict[tuple, list] = {}
        self.survived = 0
        #: The least failure so far: ``(phase, entry, error)``, phase
        #: :data:`WHERE` (a pushed conjunct) or :data:`GROUPING`.
        self.failed: tuple[int, int, Exception] | None = None

    def add_batch(self, batch: "ColumnBatch | list[dict]", start: int = 0,
                  stop: int | None = None) -> list:
        """Feed entries ``[start, stop)`` of ``batch`` (a list is taken
        as rows already shaped); returns what names the survivors, in
        row order: their keys, for repeatable-read lock acquisition."""
        if isinstance(batch, list):
            batch = ColumnBatch(ColumnReader(), batch)
        self.batch = batch
        if stop is None:
            stop = len(batch)
        sweep = _Sweep(
            {name: batch.column(name, start, stop)
             for name in self.compiled.columns},
            stop - start, self.context,
        )
        self.run(sweep, start)
        survivors = sweep.survivors
        ids = batch.ids
        if sweep.dense:
            return ids[start:start + len(survivors)]
        return list(map(ids.__getitem__, map(start.__add__, survivors)))

    def run(self, sweep: _Sweep, start: int = 0) -> None:
        """Sweep one chunk, entries ``start`` on, given as its column
        lists (every column of :attr:`CompiledFragment.columns`): the
        pushed conjuncts, then — unless an earlier chunk failed past
        them — the groups, the top-k stage or the kept survivors."""
        compiled = self.compiled
        errors: dict[int, Exception] = {}
        for predicate, test in zip(compiled.predicates, compiled.tests):
            if sweep.survivors:  # the WHERE rule: each over rows left
                sweep.keep(predicate, test, errors)
        phase = WHERE
        if not errors:
            if self.failed is not None:
                return  # only the phases before the failed one still run
            if compiled.fragment.partial is not None:
                phase = GROUPING
                self._fold_groups(sweep, errors)
            elif self.keep is not None:
                self._keep_top(sweep, start)
            else:
                self.kept.extend(map(start.__add__, sweep.survivors))
        if errors:
            # Ranks before any failure held: a later chunk's phase is
            # never later than the held one's.
            first = min(errors)
            self.failed = (phase, start + first, errors[first])
            return
        self.survived += len(sweep.survivors)

    def _group_of(self, sweep: _Sweep, index: int) -> list:
        """A new group whose representative is row ``index``."""
        columns = sweep.columns
        rep = {
            name: columns[name][index]
            for name in self.compiled.rep_columns
            if columns[name][index] is not MISSING
        }
        return [rep, new_group_accs(self.compiled.calls)]

    def _fold_groups(self, sweep: _Sweep,
                     errors: dict[int, Exception]) -> None:
        compiled = self.compiled
        key_lists = [sweep.values(term) for term in compiled.group_terms]
        feed_lists = [sweep.values(term) for term in compiled.feed_terms]
        survivors = sweep.survivors
        count = len(survivors)
        # The keys of the rows every term evaluated on, up to the first
        # whose key cannot be made: its error comes before a later row's.
        keys, stop = keys_until_error(
            [values[:count] for values in key_lists], count
        )
        if stop is None and sweep.failed is None and self._fold_slices(
            sweep, keys, feed_lists,
        ):
            return
        groups = self.groups
        position = 0
        try:
            for position, (key, values) in enumerate(zip(
                keys, zip(*feed_lists) if feed_lists else repeat(()),
            )):
                group = groups.get(key)
                if group is None:
                    group = groups[key] = self._group_of(
                        sweep, survivors[position]
                    )
                for acc, value in zip(group[1], values):
                    acc.add(value)
        except Exception as exc:  # noqa: BLE001 — re-raised by caller
            errors[survivors[position]] = exc
            return
        if stop is not None:
            errors[survivors[stop[0]]] = stop[1]
            return
        if sweep.failed is None:
            return
        index, term, exc = sweep.failed
        # What the failed row did before the term failed comes first,
        # and what it raises wins: the keys of the parts before a group
        # term; a feed's group lookup and the adds of the feeds before.
        try:
            if term in compiled.group_terms:
                for values in key_lists[:compiled.group_terms.index(term)]:
                    hashable_key(values[count])
            else:
                key, = group_keys(
                    [values[count:count + 1] for values in key_lists], 1
                )
                group = groups.get(key)
                if group is None:
                    group = groups[key] = self._group_of(sweep, index)
                for acc, values in zip(
                    group[1],
                    feed_lists[:compiled.feed_terms.index(term)],
                ):
                    acc.add(values[count])
        except Exception as earlier:  # noqa: BLE001
            exc = earlier
        errors[index] = exc

    def _fold_slices(self, sweep: _Sweep, keys: list[tuple],
                     feed_lists: list[list]) -> bool:
        """Fold each group's slice of the chunk — its rows in row order,
        so the states are the ones one ``add`` per row reaches — with
        one :meth:`~repro.sql.functions.Aggregate.fold` per accumulator,
        new groups taking their place in first-seen order.  ``False``,
        with nothing changed, when the per-row loop must run instead: an
        accumulator cannot fold, a fold raises (the loop finds the row
        and the error), or the chunk's groups average fewer than
        :data:`FOLD_GROUP_ROWS` rows each.  For a chunk whose every term
        evaluated, and every key was made, on every survivor only."""
        most = len(keys) // FOLD_GROUP_ROWS
        buckets: dict[tuple, list[int]] = {}
        for position, key in enumerate(keys):
            bucket = buckets.get(key)
            if bucket is not None:
                bucket.append(position)
            elif len(buckets) < most:
                buckets[key] = [position]
            else:
                return False
        groups = self.groups
        fresh = []
        updates = []
        try:
            for key, positions in buckets.items():
                group = groups.get(key)
                if group is None:
                    group = self._group_of(
                        sweep, sweep.survivors[positions[0]]
                    )
                    fresh.append((key, group))
                for acc, values in zip(group[1], feed_lists):
                    update = acc.fold(list(map(values.__getitem__,
                                               positions)))
                    if update is None:
                        return False
                    updates.append(update)
        except Exception:  # noqa: BLE001 — the per-row loop raises it
            return False
        groups.update(fresh)
        for update in updates:
            update()
        return True

    def _keep_top(self, sweep: _Sweep, start: int) -> None:
        compiled = self.compiled
        order_by = compiled.fragment.top_k.order_by
        try:
            columns = [sweep.values(term) for term in compiled.order_terms]
            clash = self.keep and incomparable(columns, self.order_types)
            if clash:
                raise clash
            if sweep.failed is not None:
                raise sweep.failed[2]
            for term, values in enumerate(columns):
                if float in self.order_types[term] and \
                        not self.real_floats[term]:
                    self.real_floats[term] = any(
                        value == value for value in values
                        if type(value) is float)
            indexes = map(start.__add__, sweep.survivors)
            entering = self._may_enter(columns[0])
            if entering is not None:
                columns = [list(compress(values, entering))
                           for values in columns]
                indexes = compress(indexes, entering)
            keys = order_keys(order_by, columns)
            # The chunk's own first rows against the held ones (every
            # survivor's types checked above).
            self.top = order_keyed(
                order_by,
                self.top + order_keyed(
                    order_by, list(zip(keys, indexes)),
                    self.keep, checked=True,
                ),
                self.keep, checked=True,
            )
        except Exception:  # noqa: BLE001 — the final ORDER BY raises it
            raise _TopKAbandoned from None

    def _may_enter(self, firsts: list) -> "list[bool] | None":
        """Once ``keep`` rows are held, the last with an ordinary first
        ORDER BY value, whether each of the chunk's ``firsts`` (first
        term values) can still rank before it: NULL, NaN, or not beyond
        that value in the term's direction.  ``None`` keeps every row
        (nothing held yet, or the values do not compare)."""
        top = self.top
        descending = self.compiled.fragment.top_k.order_by[0].descending
        if not self.keep or len(top) < self.keep:
            return None
        flag, bound = top[-1][0][:2]
        if flag != descending:
            return None  # NULL or NaN: nothing ordinary ranks after it
        beyond = operator.lt if descending else operator.gt
        try:
            return [value is None or not beyond(value, bound)
                    for value in firsts]
        except TypeError:
            return None

    def payload(self) -> "ColumnBatch | PartialGroups":
        if self.compiled.fragment.partial is not None:
            return PartialGroups(
                entries=[
                    (key, rep, accs)
                    for key, (rep, accs) in self.groups.items()
                ]
            )
        if self.keep is None:
            return self.batch.take(self.kept, self.compiled.shipped)
        shipped = self.batch.take([index for _key, index in self.top],
                                  self.compiled.shipped)
        # NaN is never compared: a float that is NaN brings no type.
        shipped.order_types = [
            {kind: value for kind, value in found.items()
             if kind is not float or real}
            for found, real in zip(self.order_types, self.real_floats)
        ]
        return shipped


def sweep_shard(
    compiled: CompiledFragment,
    batch: "ColumnBatch | list[dict]",
    context: EvalContext,
    chunk_entries: int,
    keep: int | None = None,
) -> "tuple[list, BatchAccumulator, int]":
    """Run a whole shard's entries through the fragment in
    ``chunk_entries``-sized chunks, until every chunk ran or one failed
    in the first phase.  ``keep`` runs the top-k stage, which never
    originates an error: a shard whose order keys fail to evaluate or
    compare is swept again without it, and ships every survivor.

    Returns ``(survivors, accumulator, batches)``: what names each
    survivor (:meth:`BatchAccumulator.add_batch`), the accumulator
    (its ``failed``, else its ``payload()``) and the chunks swept."""
    if isinstance(batch, list):
        batch = ColumnBatch(ColumnReader(), batch)
    accumulator = BatchAccumulator(compiled, context, keep)
    accumulator.batch = batch
    survivors: list = []
    chunk = max(1, chunk_entries)
    batches = 0
    try:
        for start in range(0, len(batch), chunk):
            survivors.extend(accumulator.add_batch(
                batch, start, min(start + chunk, len(batch))
            ))
            batches += 1
            failed = accumulator.failed
            if failed is not None and failed[0] == WHERE:
                break
    except _TopKAbandoned:
        return sweep_shard(compiled, batch, context, chunk_entries)
    return survivors, accumulator, batches


def run_fragment_batches(
    compiled: CompiledFragment,
    batch: "ColumnBatch | list[dict]",
    context: EvalContext,
    chunk_entries: int,
    keep: int | None = None,
) -> "tuple[list, ColumnBatch | PartialGroups, int]":
    """:func:`sweep_shard`, raising the shard's least error: returns
    ``(survivors, payload, batches)``."""
    survivors, accumulator, batches = sweep_shard(
        compiled, batch, context, chunk_entries, keep)
    if accumulator.failed is not None:
        raise accumulator.failed[2]
    return survivors, accumulator.payload(), batches


def sweep_tables(plan: Plan, context: EvalContext) -> Plan:
    """The WHERE rule's per-table part at the entry node, over whole
    rows: each table's conjuncts, in FROM order, over its blocks, each
    node's block swept as that node's shard sweeps it — the first table
    and node that fail raising their least error.  Returns ``plan`` over
    the survivors, its statement holding the remaining conjuncts."""
    pushed, rest = split_where(plan.select)
    if not any(pushed.values()):
        return plan

    def swept(source, binding: str):
        conjuncts = pushed.get(source.name)
        if not conjuncts:
            return source
        compiled = CompiledFragment(ScanFragment(
            table=source.name, binding=binding, pushed=tuple(conjuncts)))
        blocks = source.blocks
        return BatchTable(source.name, {
            node_id: run_fragment_batches(
                compiled, blocks[node_id], context, len(blocks[node_id]))[1]
            for node_id in sorted(blocks)
        })

    return replace(
        plan, select=replace(plan.select, where=conjoin(rest)),
        base_source=swept(plan.base_source, plan.base_binding),
        joins=tuple(replace(step, source=swept(step.source, step.binding))
                    for step in plan.joins),
    )


# -- the entry node's final stage --------------------------------------------

_EXPR = operator.attrgetter("expr")


def finish(select: Select, source, is_aggregate: bool,
           context: EvalContext, scanned: int,
           order_types: "list[dict] | None" = None) -> QueryResult:
    """A statement's final stage over its rows at the entry node:
    residual WHERE, aggregation, HAVING, projection, DISTINCT, ORDER BY
    and OFFSET / LIMIT.

    ``source`` holds ``source.count`` rows in statement order, read by
    column: ``source.column(column)`` is a :class:`Column` over every
    row as the row's bound form reads it (:data:`MISSING` where it has
    none), ``source.shaped(positions)`` those rows as dicts (``SELECT
    *`` only).  Each column the statement reads is read once.  The
    phases run one after the other over every row, as the contract
    orders them: the WHERE, each conjunct with its column test when it
    is a single comparison; the groups as a shard folds them, over
    bound rows (``binding=None``); the rest in :func:`_output`."""
    items = () if select.select_star else tuple(map(_EXPR, select.items))
    orders = tuple(map(_EXPR, select.order_by))
    sweep = _Sweep(_read(source, select.where, *select.group_by, *items,
                         select.having, *orders),
                   source.count, context)
    where = select.where
    # The WHERE's phases: the table's own conjuncts, then the rest (a
    # joined statement's tables swept theirs already).
    phases: "list | tuple" = () if where is None else ([where],)
    if isinstance(where, Binary) and where.op == "AND":
        pushed, rest = split_where(select)
        phases = [*pushed.values(), rest]
    for conjuncts in phases:
        errors: dict[int, Exception] = {}
        for conjunct in conjuncts:
            if sweep.survivors:
                sweep.keep(conjunct, compile_column_test(conjunct), errors)
        if errors:
            raise errors[min(errors)]
    if not is_aggregate:
        star = None
        if select.select_star:
            rows = source.shaped(sweep.survivors)
            names = _star_columns(rows)
            star = names, list(zip(*[list(map(row.get, names))
                                     for row in rows]))
        return _output(select, sweep, context, scanned, star, order_types)
    accumulator = BatchAccumulator(CompiledFragment(ScanFragment(
        table=select.table.name, binding=None,
        partial=partial_aggregate(select, None),
    )), context)
    accumulator.run(sweep)
    if accumulator.failed is not None:
        raise accumulator.failed[2]
    return finish_groups(select, accumulator.groups, context, scanned)


def finish_groups(select: Select, groups: dict, context: EvalContext,
                  scanned: int = 0) -> QueryResult:
    """The final stage of an aggregate statement from its groups: group
    key -> ``[representative bound row, accumulators]``, accumulators in
    :func:`~repro.sql.executor.unique_aggregates` order, in first-seen
    order — the entry's own or those merged from shards' partial
    groups.  HAVING, projection and ORDER BY read the representative's
    columns and each call's result, one list per name."""
    partial = partial_aggregate(select, None)
    if not select.group_by and not groups:
        # Aggregates over an empty input produce one row (COUNT = 0).
        groups = {(): [{}, new_group_accs(partial.calls)]}
    reps = [rep for rep, _accs in groups.values()]
    columns: dict = {name: [rep.get(name, MISSING) for rep in reps]
                     for name in partial.rep_columns}
    for index, call in enumerate(partial.calls):
        columns[call] = [accs[index].result() for _rep, accs in
                         groups.values()]
    return _output(select, _Sweep(columns, len(reps), context), context,
                   scanned)


def _read(source, *exprs: "Expr | None") -> dict[str, list]:
    """Every column ``exprs`` read, over all of ``source``'s rows, under
    the name a bound row holds it by."""
    references: list[Column] = []
    for expr in exprs:
        if expr is not None:
            collect_columns(expr, references)
    columns: dict[str, list] = {}
    for column in references:
        # Column.display(): the name a bound row holds the column by.
        name = (column.name if column.table is None
                else f"{column.table}.{column.name}")
        if name not in columns:
            columns[name] = source.column(column)
    return columns


def _star_columns(rows: list[dict]) -> list[str]:
    """Unqualified column names for ``SELECT *``, in first-seen order."""
    names = dict.fromkeys(chain.from_iterable(rows))
    return [name for name in names if "." not in name]


def _output(select: Select, sweep: _Sweep, context: EvalContext,
            scanned: int, star: "tuple[list, list] | None" = None,
            order_types: "list[dict] | None" = None) -> QueryResult:
    """HAVING, projection, DISTINCT, ORDER BY, OFFSET / LIMIT and the
    output rows, over the rows ``sweep`` holds in play, each phase's
    least-row error raising before the next phase runs: the items read
    the sweep's columns — or ``star`` holds the ``SELECT *`` names and
    their values — and the ORDER BY terms the same columns with the
    output columns in place of theirs (their types checked with
    ``order_types``: see :func:`_order`)."""
    if select.having is not None:
        errors: dict[int, Exception] = {}
        sweep.keep(select.having, None, errors)
        if errors:
            raise errors[min(errors)]
    if star is None:
        names = [output_column_name(item, position)
                 for position, item in enumerate(select.items)]
        outputs = [sweep.values(_Term(item.expr, None))
                   for item in select.items]
    else:
        names, outputs = star
    if sweep.failed is not None:
        raise sweep.failed[2]
    rows: "range | list[int]" = range(len(sweep.survivors))
    if select.distinct:
        first: dict = {}
        for index, key in enumerate(group_keys(outputs, len(rows))):
            first.setdefault(key, index)
        rows = list(first.values())
    if select.order_by:
        rows = _order(select, sweep, names, outputs, rows, context,
                      order_types)
    if select.offset:
        rows = rows[select.offset:]
    if select.limit is not None:
        rows = rows[:select.limit]
    if rows != range(len(sweep.survivors)):
        outputs = [list(map(output.__getitem__, rows)) for output in outputs]
    shaped = (list(map(dict, map(zip, repeat(names), zip(*outputs))))
              if outputs else list(map(dict, repeat((), len(rows)))))
    if select.approx:
        names = names + ["error_bound", "confidence"]
        for row in shaped:
            row.update(error_bound=0.0, confidence=1.0)
    return QueryResult(columns=names, rows=shaped, scanned=scanned)


def _order(select: Select, sweep: _Sweep, names: list, outputs: list,
           rows: "range | list[int]", context: EvalContext,
           order_types: "list[dict] | None" = None) -> "list[int]":
    """``rows`` (indexes of the output rows) in ORDER BY order, cut to
    those OFFSET / LIMIT can still reach.  A term reads the output
    columns over the columns the items read.  ``order_types`` holds,
    per term, a value of each type (NaN aside) that the shards of a
    pushed top-k met in rows they did not ship: the type check meets
    every row's type, as it does without the stage."""
    order_by = select.order_by
    survivors = sweep.survivors
    columns = {name: list(map(values.__getitem__, survivors))
               for name, values in sweep.columns.items()}
    columns.update((name, values) for name, values in zip(names, outputs)
                   if not name.startswith("__"))
    terms = _Sweep(columns, len(survivors), context)
    terms.survivors = list(rows)
    terms.dense = isinstance(rows, range)
    values = [terms.values(_Term(order.expr, None)) for order in order_by]
    if terms.failed is not None:
        raise terms.failed[2]
    limit = None
    if select.limit is not None:
        limit = select.limit + (select.offset or 0)
    return [row for _key, row in order_keyed(
        order_by, list(zip(order_keys(order_by, values), terms.survivors)),
        limit, samples=order_types,
    )]
