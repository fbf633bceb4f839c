"""Columnar batch execution of scan fragments.

The scan path compiles a :class:`~repro.sql.fragments.ScanFragment`
once into :class:`CompiledFragment` — specialized closures for its pushed
conjuncts, group keys, aggregate feeds, order key, and projection — and
then streams whole scan chunks through :class:`BatchAccumulator`.
Results are what a row-major sweep (row by row, conjunct by conjunct)
produces: the same surviving rows in the same order, the same
partial-group insertion order and accumulator states, the same first
rows under a pushed ORDER BY, and — when a pushed expression fails — the
same first error, whatever the chunk size.

Compiled fragments are cached in an LRU keyed by the frozen fragment
itself, so a query shape recurring across shards, retries, and
submissions compiles exactly once.  The cache belongs to the caller
(each ``QueryService`` owns one): whether a compilation is billed must
not depend on what another environment in the same process ran before.
"""

from __future__ import annotations

from .compiled import CompiledExpr, EvalContext, compile_predicate, compile_projection
from .executor import (
    compile_agg_feeds,
    compile_group_key,
    compile_order_key,
    new_group_accs,
    order_keyed,
)
from .fragments import PartialGroups, ScanFragment
from .lru import LruCache


class CompiledFragment:
    """A scan fragment's closures, compiled once and reused per chunk."""

    __slots__ = (
        "fragment", "predicates", "group_key", "agg_feeds", "calls",
        "rep_columns", "order_key", "project",
    )

    def __init__(self, fragment: ScanFragment) -> None:
        binding = fragment.binding
        self.fragment = fragment
        self.predicates: tuple[CompiledExpr, ...] = tuple(
            compile_predicate(conjunct, binding)
            for conjunct in fragment.pushed
        )
        partial = fragment.partial
        if partial is not None:
            self.group_key: CompiledExpr | None = compile_group_key(
                partial.group_by, binding
            )
            self.agg_feeds = compile_agg_feeds(partial.calls, binding)
            self.calls = list(partial.calls)
            self.rep_columns = partial.rep_columns
        else:
            self.group_key = None
            self.agg_feeds = ()
            self.calls = []
            self.rep_columns = ()
        self.order_key: CompiledExpr | None = (
            compile_order_key(fragment.top_k.order_by, binding)
            if fragment.top_k is not None else None
        )
        self.project = compile_projection(fragment.projection)

    @property
    def predicate_count(self) -> int:
        return len(self.predicates)


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


class BatchAccumulator:
    """Per-(table, node, attempt) scan-side state, fed whole chunks.

    Predicates run conjunct-major over the chunk (each conjunct only
    over the survivors of the previous one, so a row eliminated early
    never evaluates — or errors in — a later conjunct), then survivors
    fold into groups or projected rows in row order.  Errors raised by
    compiled expressions are collected per row and the minimal-row
    error is re-raised at the end of the chunk — the error a row-major
    sweep would surface first.

    With ``keep`` the fragment's top-k stage runs: of the survivors only
    the first ``keep`` in ORDER BY order are held, re-selected after
    every chunk from the held rows followed by the chunk's survivors —
    held rows first, so rows that tie stay in scan order and the held
    set does not depend on the chunk size.
    """

    def __init__(self, compiled: CompiledFragment, context: EvalContext,
                 keep: int | None = None) -> None:
        self.compiled = compiled
        self.context = context
        self.keep = keep
        self.rows: list[dict] = []
        #: top-k stage: ``(order key, raw row)`` of the held rows.
        self.top: list[tuple[tuple, dict]] = []
        self.groups: dict[tuple, list] = {}
        self.survived = 0

    def add_batch(self, raws: list[dict]) -> list[dict]:
        """Feed one chunk of raw rows; returns the surviving raws (in
        row order, for repeatable-read lock acquisition)."""
        compiled = self.compiled
        context = self.context
        errors: dict[int, Exception] = {}
        survivors = list(range(len(raws)))
        for predicate in compiled.predicates:
            if not survivors:
                break
            passed = []
            for index in survivors:
                try:
                    if predicate(raws[index], context):
                        passed.append(index)
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    errors[index] = exc
            survivors = passed
        surviving_raws: list[dict] = []
        if compiled.fragment.partial is not None:
            self._fold_groups(raws, survivors, errors, surviving_raws)
        else:
            surviving_raws = [raws[index] for index in survivors]
            self.survived += len(surviving_raws)
            if self.keep is None:
                self.rows.extend(map(compiled.project, surviving_raws))
            else:
                self._keep_top(surviving_raws)
        if errors:
            # A row-major sweep stops at the first erroring row; the
            # batch reproduces exactly that error.
            raise errors[min(errors)]
        return surviving_raws

    def _fold_groups(self, raws: list[dict], survivors: list[int],
                     errors: dict[int, Exception],
                     surviving_raws: list[dict]) -> None:
        compiled = self.compiled
        context = self.context
        group_key = compiled.group_key
        agg_feeds = compiled.agg_feeds
        rep_columns = compiled.rep_columns
        groups = self.groups
        for index in survivors:
            raw = raws[index]
            try:
                key = group_key(raw, context)
                group = groups.get(key)
                if group is None:
                    rep = {
                        name: raw[name]
                        for name in rep_columns
                        if name in raw
                    }
                    group = [rep, new_group_accs(compiled.calls)]
                    groups[key] = group
                for feed, acc in zip(agg_feeds, group[1]):
                    acc.add(1 if feed is None else feed(raw, context))
            except Exception as exc:  # noqa: BLE001 — re-raised by caller
                errors[index] = exc
                continue
            surviving_raws.append(raw)
            self.survived += 1

    def _keep_top(self, surviving_raws: list[dict]) -> None:
        compiled = self.compiled
        context = self.context
        order_key = compiled.order_key
        try:
            keyed = self.top + [
                (order_key(raw, context), raw) for raw in surviving_raws
            ]
            self.top = order_keyed(
                compiled.fragment.top_k.order_by, keyed, self.keep
            )
        except Exception:  # noqa: BLE001 — the final ORDER BY raises it
            raise _TopKAbandoned from None

    def payload(self) -> "list[dict] | PartialGroups":
        if self.compiled.fragment.partial is not None:
            return PartialGroups(
                entries=[
                    (key, rep, accs)
                    for key, (rep, accs) in self.groups.items()
                ]
            )
        if self.keep is not None:
            project = self.compiled.project
            return [project(raw) for _key, raw in self.top]
        return self.rows


def run_fragment_batches(
    compiled: CompiledFragment,
    raws: list[dict],
    context: EvalContext,
    chunk_entries: int,
    keep: int | None = None,
) -> tuple[list[dict], "list[dict] | PartialGroups", int]:
    """Run a whole shard's rows through the fragment, streamed through
    :class:`BatchAccumulator` in ``chunk_entries``-sized chunks.

    ``keep`` runs the fragment's top-k stage.  The stage never
    originates an error: a shard whose order keys fail to evaluate or
    compare is swept again without it and ships every survivor, so the
    final ORDER BY raises what it raises without pushdown — after any
    WHERE error, as there.

    Returns ``(surviving_raws, payload, batches)``.
    """
    accumulator = BatchAccumulator(compiled, context, keep)
    lock_rows: list[dict] = []
    chunk = max(1, chunk_entries)
    batches = 0
    try:
        for start in range(0, len(raws), chunk):
            lock_rows.extend(
                accumulator.add_batch(raws[start:start + chunk])
            )
            batches += 1
    except _TopKAbandoned:
        return run_fragment_batches(compiled, raws, context, chunk_entries)
    return lock_rows, accumulator.payload(), batches
