"""Columnar batch execution of scan fragments.

The vectorized scan path compiles a :class:`~repro.sql.fragments.ScanFragment`
once into :class:`CompiledFragment` — specialized closures for its pushed
conjuncts, group keys, aggregate feeds, and projection — and then streams
whole scan chunks through :class:`BatchAccumulator` instead of
interpreting the AST per row.  Results are bit-identical to the
interpreted :class:`~repro.sql.fragments.FragmentAccumulator`: the same
surviving rows in the same order, the same partial-group insertion order
and accumulator states, and — when a pushed expression fails — the same
first error the row-major interpreted sweep would have raised.

Compiled fragments are cached in an LRU keyed by the frozen fragment
itself, so a query shape recurring across shards, retries, and
submissions compiles exactly once.  The cache belongs to the caller
(each ``QueryService`` owns one): whether a compilation is billed must
not depend on what another environment in the same process ran before.
"""

from __future__ import annotations

from .ast import Star
from .compiled import CompiledExpr, compile_expr, compile_predicate, compile_projection
from .executor import EvalContext, hashable_key, new_group_accs
from .fragments import FragmentAccumulator, PartialGroups, ScanFragment
from .lru import LruCache


class CompiledFragment:
    """A scan fragment's closures, compiled once and reused per chunk."""

    __slots__ = (
        "fragment", "predicates", "group_keys", "agg_feeds", "calls",
        "rep_columns", "project",
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
            self.group_keys: tuple[CompiledExpr, ...] = tuple(
                compile_expr(expr, binding) for expr in partial.group_by
            )
            # One feed per aggregate call: a compiled argument closure,
            # or None for COUNT(*)-style calls that accumulate 1.
            self.agg_feeds: tuple[CompiledExpr | None, ...] = tuple(
                compile_expr(call.args[0], binding)
                if call.args and not isinstance(call.args[0], Star)
                else None
                for call in partial.calls
            )
            self.calls = list(partial.calls)
            self.rep_columns = partial.rep_columns
        else:
            self.group_keys = ()
            self.agg_feeds = ()
            self.calls = []
            self.rep_columns = ()
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


class BatchAccumulator:
    """Columnar counterpart of :class:`FragmentAccumulator`.

    Feeds whole chunks: predicates run conjunct-major over the chunk
    (each conjunct only over the survivors of the previous one, exactly
    like the interpreted early-exit), then survivors fold into groups or
    projected rows in row order.  Errors raised by compiled expressions
    are collected per row and the minimal-row error is re-raised at the
    end of the chunk — the same error the interpreted row-major sweep
    surfaces first.
    """

    def __init__(self, compiled: CompiledFragment,
                 context: EvalContext) -> None:
        self.compiled = compiled
        self.context = context
        self.rows: list[dict] = []
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
            project = compiled.project
            for index in survivors:
                raw = raws[index]
                self.rows.append(project(raw))
                surviving_raws.append(raw)
                self.survived += 1
        if errors:
            # The interpreted sweep stops at the first erroring row; the
            # batch path reproduces exactly that error.
            raise errors[min(errors)]
        return surviving_raws

    def _fold_groups(self, raws: list[dict], survivors: list[int],
                     errors: dict[int, Exception],
                     surviving_raws: list[dict]) -> None:
        compiled = self.compiled
        context = self.context
        group_keys = compiled.group_keys
        agg_feeds = compiled.agg_feeds
        rep_columns = compiled.rep_columns
        groups = self.groups
        for index in survivors:
            raw = raws[index]
            try:
                key = tuple(
                    hashable_key(fn(raw, context)) for fn in group_keys
                )
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

    def payload(self) -> "list[dict] | PartialGroups":
        if self.compiled.fragment.partial is not None:
            return PartialGroups(
                entries=[
                    (key, rep, accs)
                    for key, (rep, accs) in self.groups.items()
                ]
            )
        return self.rows


def run_fragment_batches(
    fragment: ScanFragment,
    compiled: CompiledFragment | None,
    raws: list[dict],
    context: EvalContext,
    chunk_entries: int,
) -> tuple[list[dict], "list[dict] | PartialGroups", int]:
    """Run a whole shard's rows through the fragment.

    Returns ``(surviving_raws, payload, batches)``.  With a compiled
    fragment the rows stream through :class:`BatchAccumulator` in
    ``chunk_entries``-sized chunks; otherwise the interpreted
    :class:`FragmentAccumulator` baseline runs row by row.  Both raise
    the same first error for the same rows.
    """
    if compiled is not None:
        accumulator = BatchAccumulator(compiled, context)
        lock_rows: list[dict] = []
        chunk = max(1, chunk_entries)
        batches = 0
        for start in range(0, len(raws), chunk):
            lock_rows.extend(accumulator.add_batch(raws[start:start + chunk]))
            batches += 1
        return lock_rows, accumulator.payload(), batches
    interpreted = FragmentAccumulator(fragment, context)
    lock_rows = [raw for raw in raws if interpreted.add(raw)]
    return lock_rows, interpreted.payload(), 0


# -- broadcast probe inside the vectorized sweep -----------------------------


def compile_probe_key(probe_expr, binding: str) -> CompiledExpr:
    """Compile a broadcast join's probe-key expression once per query.

    The closure evaluates against *raw* (projected, unbound) rows with
    the same binding-aware column resolution the compiled predicates
    use, so the key equals what the central path computes on the bound
    row — including the error it would raise.
    """
    return compile_expr(probe_expr, binding)


def run_broadcast_probe(
    payload: list[dict],
    node_tag: tuple,
    binding: str,
    using: tuple,
    compiled_probe: "CompiledExpr | None",
    kind: str,
    index: dict,
    right_columns: set,
    context: EvalContext,
) -> "tuple[list[tuple[tuple, dict]], tuple[tuple, Exception] | None]":
    """Probe a broadcast build index as the tail of the scan sweep.

    ``payload`` is the fragment's surviving projected rows in sweep
    order; each becomes a tagged bound row ``((node_tag + (position,)),
    merged)`` exactly as :func:`repro.sql.executor.probe_join_index`
    would emit it.  The probe key runs through the compiled closure —
    this is the "probed during the vectorized sweep" half of the
    broadcast strategy; the interpreted ablation takes the
    ``probe_join_index`` path in the coordinator instead.  Errors are
    captured with their row tag (not raised): scan errors of other
    tables and build errors outrank probe errors, and only the
    coordinator sees all of them.
    """
    from .executor import bind_row, merge_join_rows, null_extend_row

    result: "list[tuple[tuple, dict]]" = []
    error: "tuple[tuple, Exception] | None" = None
    for position, raw in enumerate(payload):
        tag = (node_tag + (position,),)
        left = bind_row(raw, binding)
        if using:
            key = tuple(left.get(col) for col in using)
            matches = index.get(key, []) if not any(
                part is None for part in key
            ) else []
        else:
            try:
                key = compiled_probe(raw, context)
            except Exception as exc:  # noqa: BLE001 — ranked by the coordinator
                if error is None:
                    error = (tag, exc)
                continue
            matches = index.get(key, []) if key is not None else []
        if matches:
            result.extend(
                (tag + (right_tag,), merge_join_rows(left, right))
                for right_tag, right in matches
            )
        elif kind == "LEFT":
            result.append((tag + ((),), null_extend_row(left, right_columns)))
    return result, error
