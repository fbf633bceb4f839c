"""Columnar batch execution of scan fragments.

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
  :meth:`~repro.sql.functions.Aggregate.fold` per accumulator, in row
  order (all of the chunk's folds or none);
* once the top-k stage holds ``keep`` rows, a chunk keeps only the rows
  whose first ORDER BY value can still rank before the last of them.

Results are what a row-major sweep (row by row, conjunct by conjunct)
produces: the same surviving rows in the same order, the same
partial-group insertion order and accumulator states (to the bit), the
same first rows under a pushed ORDER BY, and — when a pushed
expression fails — the same first error, whatever the chunk size.

Compiled fragments are cached in an LRU keyed by the frozen fragment
itself, so a query shape recurring across shards, retries, and
submissions compiles exactly once.  The cache belongs to the caller
(each ``QueryService`` owns one): whether a compilation is billed must
not depend on what another environment in the same process ran before.
"""

from __future__ import annotations

import operator
from itertools import compress, repeat
from math import isqrt

from ..kvstore.indexes import MISSING
from ..state.rows import ColumnBatch, ColumnReader
from .ast import Column, Expr
from .compiled import (
    ColumnTest,
    CompiledExpr,
    EvalContext,
    column_reads,
    compile_column_test,
    compile_expr,
    compile_predicate,
)
from .executor import (
    agg_feed_exprs,
    group_keys,
    new_group_accs,
    incomparable,
    order_keyed,
    order_keys,
)
from .fragments import PartialGroups, ScanFragment
from .lru import LruCache
from .planner import collect_columns


class _Term:
    """One per-row value a fold or a top-k selection reads."""

    __slots__ = ("expr", "fn", "column")

    def __init__(self, expr: Expr, binding: str) -> None:
        self.expr = expr
        self.fn: CompiledExpr = compile_expr(expr, binding)
        #: Set for a bare column reference: the column whose list is
        #: the term's values wherever every row has it.
        self.column: str | None = (
            column_reads(expr, binding)[0]
            if isinstance(expr, Column) else None
        )


class CompiledFragment:
    """A scan fragment's closures, compiled once and reused per chunk."""

    __slots__ = (
        "fragment", "columns", "predicates", "tests", "group_terms",
        "feed_terms", "calls", "rep_columns", "order_terms",
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
            compile_predicate(conjunct, binding)
            for conjunct in fragment.pushed
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

    ``survivors`` are chunk-relative row indexes in row order.  The
    chunk raises its minimum-row error, so a term that fails at a row
    takes that row and every later one out of play (``failed`` keeps
    the row, the term and the error): terms evaluated afterwards only
    see the rows before it.
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

    def keep(self, predicate: CompiledExpr,
             test: "tuple[str, ColumnTest] | None",
             errors: dict[int, Exception]) -> None:
        """Drop the rows ``predicate`` does not pass — with its column
        ``test`` over the column's list when it has one and that can
        tell; a row the predicate fails on is dropped with its error
        recorded."""
        if test is not None:
            name, column_test = test
            passed = column_test(self.column(name))
            if passed is not None:
                self.survivors = list(compress(self.survivors, passed))
                self.dense = False
                return
        rows = self.rows
        context = self.context
        passed = []
        for index in self.survivors:
            try:
                if predicate(rows[index], context):
                    passed.append(index)
            except Exception as exc:  # noqa: BLE001 — re-raised by caller
                errors[index] = exc
        self.survivors = passed
        self.dense = False

    def values(self, term: "_Term | None") -> list:
        """``term`` over the rows in play, in row order."""
        survivors = self.survivors
        if term is None:
            return [1] * len(survivors)
        if term.column is not None:
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
    over the survivors of the previous one, so a row eliminated early
    never evaluates — or errors in — a later conjunct), then survivors
    fold into groups or projected rows in row order, term by term.
    Errors raised by compiled expressions are collected per row and the
    minimal-row error is re-raised at the end of the chunk — the error
    a row-major sweep would surface first.

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
        self.groups: dict[tuple, list] = {}
        self.survived = 0

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
        compiled = self.compiled
        sweep = _Sweep(
            {name: batch.column(name, start, stop)
             for name in compiled.columns},
            stop - start, self.context,
        )
        errors: dict[int, Exception] = {}
        for predicate, test in zip(compiled.predicates, compiled.tests):
            if not sweep.survivors:
                break
            sweep.keep(predicate, test, errors)
        if compiled.fragment.partial is not None:
            self._fold_groups(sweep, errors)
        elif self.keep is not None:
            self._keep_top(sweep, start)
        else:
            self.kept.extend(map(start.__add__, sweep.survivors))
        if errors:
            # A row-major sweep stops at the first erroring row; the
            # batch reproduces exactly that error.
            raise errors[min(errors)]
        survivors = sweep.survivors
        self.survived += len(survivors)
        ids = batch.ids
        if sweep.dense:
            return ids[start:start + len(survivors)]
        return list(map(ids.__getitem__, map(start.__add__, survivors)))

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
        keys = group_keys(key_lists, count)
        groups = self.groups
        if sweep.failed is not None or not self._fold_slices(
            sweep, keys, feed_lists,
        ):
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
        if sweep.failed is None:
            return
        index, term, exc = sweep.failed
        if term in compiled.feed_terms:
            # A feed failed: the row's group lookup and the adds of the
            # feeds before it came first, and what they raise wins.
            try:
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
        and the error), or the chunk has more groups than its average
        group has rows, where bucketing costs more than it saves.  For
        a chunk whose every term evaluated on every survivor only."""
        most = isqrt(len(keys))  # groups no more than their mean size
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
        kept = (self.kept if self.keep is None
                else [index for _key, index in self.top])
        return self.batch.take(kept, self.compiled.fragment.projection)


def run_fragment_batches(
    compiled: CompiledFragment,
    batch: "ColumnBatch | list[dict]",
    context: EvalContext,
    chunk_entries: int,
    keep: int | None = None,
) -> "tuple[list, ColumnBatch | PartialGroups, int]":
    """Run a whole shard's entries through the fragment, streamed
    through :class:`BatchAccumulator` in ``chunk_entries``-sized chunks.

    ``keep`` runs the fragment's top-k stage.  The stage never
    originates an error: a shard whose order keys fail to evaluate or
    compare is swept again without it and ships every survivor, so the
    final ORDER BY raises what it raises without pushdown — after any
    WHERE error, as there.

    Returns ``(survivors, payload, batches)``; see
    :meth:`BatchAccumulator.add_batch` for what names a survivor.
    """
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
    except _TopKAbandoned:
        return run_fragment_batches(compiled, batch, context, chunk_entries)
    return survivors, accumulator.payload(), batches
