"""Distributed plan splitting: scan fragments vs. the final fragment.

The query service executes a SELECT in two tiers.  Each storage node
runs a :class:`ScanFragment` — the pushable WHERE conjuncts, the
required-column projection, and (when the whole query decomposes) a
partial-aggregation or top-k stage — and ships only the surviving
projected rows, per-group partial states, or each shard's first rows
under the ORDER BY to the entry node.  The entry node then
runs the *final* fragment: residual predicates, joins, merge/finalize
of partials, HAVING, ORDER BY and LIMIT, reusing the central executor
so both tiers share one set of SQL semantics.

Splitting rules (all safety-first; anything unclear stays central):

* A conjunct is pushed to a table iff every column it references
  belongs to that table unambiguously — any column in a single-table
  query, only binding-qualified columns once joins are involved
  (unqualified names resolve against the merged row, where the left
  side wins on collisions).
* Only the base table and INNER-joined tables accept pushdown; rows of
  a LEFT join's right side must reach the join un-filtered or the
  null-extension changes.
* ``LOCALTIMESTAMP`` pins a conjunct (or an aggregate) to the entry
  node: scan-side evaluation would read the virtual clock at a
  different instant.
* Partial aggregation applies when the query is single-table, fully
  pushed (no residual), uses only decomposable aggregates
  (COUNT/SUM/AVG/MIN/MAX without DISTINCT), and group keys are
  clock-free.
* ``ORDER BY ... LIMIT`` cuts each shard to its first ``LIMIT + OFFSET``
  rows when the query is single-table, fully pushed, neither aggregate
  nor DISTINCT nor ``SELECT *``, and every term — an output alias
  standing for its item's expression — reads stored columns only (see
  :func:`_top_k_for`); the final fragment sorts what ships.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat

from .ast import (
    Between,
    Binary,
    Column,
    Expr,
    FuncCall,
    InList,
    Like,
    Literal,
    OrderItem,
    Select,
    contains_aggregate,
)
from .compiled import like_literal_prefix
from .executor import (
    bind_row,
    new_group_accs,
    output_column_name,
    unique_aggregates,
)
from .planner import (
    collect_columns,
    column_equality,
    conjoin,
    contains_local_timestamp,
    extract_hash_keys,
    split_conjuncts,
)

# -- key filters (partition pruning) ----------------------------------------


@dataclass(frozen=True)
class KeySet:
    """The key column is restricted to an explicit set of values."""

    keys: tuple

    def contains(self, value: object) -> bool:
        return value in self.keys


@dataclass(frozen=True)
class KeyRange:
    """The key column is restricted to an interval (half-open allowed)."""

    low: object | None = None
    high: object | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def contains(self, value: object) -> bool:
        try:
            if self.low is not None:
                if self.low_inclusive:
                    if value < self.low:
                        return False
                elif value <= self.low:
                    return False
            if self.high is not None:
                if self.high_inclusive:
                    if value > self.high:
                        return False
                elif value >= self.high:
                    return False
        except TypeError:
            return True  # incomparable types never justify pruning
        return True

    def overlaps(self, lo: object, hi: object) -> bool:
        """Whether ``[lo, hi]`` (a partition's key span) intersects."""
        try:
            if self.low is not None:
                if self.low_inclusive:
                    if hi < self.low:
                        return False
                elif hi <= self.low:
                    return False
            if self.high is not None:
                if self.high_inclusive:
                    if lo > self.high:
                        return False
                elif lo >= self.high:
                    return False
        except TypeError:
            return True
        return True


KeyFilter = KeySet | KeyRange


def _is_key_column(expr: Expr, key_column: str, binding: str) -> bool:
    return (
        isinstance(expr, Column)
        and expr.name == key_column
        and expr.table in (None, binding)
    )


def _key_equality(expr: Expr, key_column: str, binding: str):
    """``key = literal`` (either side) → the literal, else None."""
    parts = column_equality(expr)
    if parts is not None and _is_key_column(parts[0], key_column, binding):
        return parts[1]
    return None


def _or_equality_keys(expr: Expr, key_column: str,
                      binding: str) -> list | None:
    """``key = a OR key = b OR ...`` → the key values, else None."""
    if isinstance(expr, Binary) and expr.op == "OR":
        left = _or_equality_keys(expr.left, key_column, binding)
        if left is None:
            return None
        right = _or_equality_keys(expr.right, key_column, binding)
        if right is None:
            return None
        return left + right
    literal = _key_equality(expr, key_column, binding)
    if literal is not None:
        return [literal.value]
    return None


def _distinct(values: list) -> tuple:
    """``values`` without repeats, in first-seen order (``1`` repeats
    ``TRUE``, as the predicate that re-filters the rows sees it)."""
    unique: list = []
    for value in values:
        if value not in unique:
            unique.append(value)
    return tuple(unique)


def _conjunct_key_filter(expr: Expr, key_column: str,
                         binding: str) -> KeyFilter | None:
    literal = _key_equality(expr, key_column, binding)
    if literal is not None:
        return KeySet((literal.value,))
    if (
        isinstance(expr, InList)
        and not expr.negated
        and _is_key_column(expr.operand, key_column, binding)
        and all(map(isinstance, expr.items, repeat(Literal)))
    ):
        return KeySet(_distinct([item.value for item in expr.items]))
    or_keys = _or_equality_keys(expr, key_column, binding)
    if or_keys is not None:
        return KeySet(_distinct(or_keys))
    if isinstance(expr, Binary) and expr.op in ("<", "<=", ">", ">="):
        left, right = expr.left, expr.right
        op = expr.op
        if _is_key_column(right, key_column, binding) and isinstance(
            left, Literal
        ):
            # literal OP key  ==  key FLIP(OP) literal
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        if _is_key_column(left, key_column, binding) and isinstance(
            right, Literal
        ):
            value = right.value
            if op == "<":
                return KeyRange(high=value, high_inclusive=False)
            if op == "<=":
                return KeyRange(high=value)
            if op == ">":
                return KeyRange(low=value, low_inclusive=False)
            return KeyRange(low=value)
    if (
        isinstance(expr, Between)
        and not expr.negated
        and _is_key_column(expr.operand, key_column, binding)
        and isinstance(expr.low, Literal)
        and isinstance(expr.high, Literal)
    ):
        return KeyRange(low=expr.low.value, high=expr.high.value)
    return None


def _intersect(first: KeyFilter | None,
               second: KeyFilter | None) -> KeyFilter | None:
    if first is None:
        return second
    if second is None:
        return first
    if isinstance(first, KeySet):
        return KeySet(
            tuple(key for key in first.keys if second.contains(key))
        )
    if isinstance(second, KeySet):
        return KeySet(
            tuple(key for key in second.keys if first.contains(key))
        )
    low, low_inc = first.low, first.low_inclusive
    high, high_inc = first.high, first.high_inclusive
    try:
        if second.low is not None and (
            low is None or second.low > low
            or (second.low == low and not second.low_inclusive)
        ):
            low, low_inc = second.low, second.low_inclusive
        if second.high is not None and (
            high is None or second.high < high
            or (second.high == high and not second.high_inclusive)
        ):
            high, high_inc = second.high, second.high_inclusive
    except TypeError:
        return first  # incomparable bounds: keep the looser filter
    return KeyRange(low, high, low_inc, high_inc)


_PINNING_TYPES = {int, str}


def extract_key_filter(conjuncts: list[Expr], key_column: str,
                       binding: str) -> KeyFilter | None:
    """The tightest key restriction implied by top-level conjuncts.

    Only conjuncts that will also be (re-)evaluated against the rows may
    contribute — the filter is a pruning aid, never the only filter.

    A key set names the partitions to read by hashing its keys, and
    ``stable_hash`` hashes by type: ``7.0`` and ``TRUE`` equal the key
    ``7`` / ``1`` but land elsewhere.  So only ``int`` and ``str``
    literals pin keys; any other equality scans.  Ranges compare and
    keep every literal."""
    combined: KeyFilter | None = None
    for conjunct in conjuncts:
        part = _conjunct_key_filter(conjunct, key_column, binding)
        if isinstance(part, KeySet) and \
                not set(map(type, part.keys)) <= _PINNING_TYPES:
            continue
        if part is not None:
            combined = _intersect(combined, part)
    return combined


def _prefix_upper_bound(prefix: str) -> str | None:
    """Smallest string above every string starting with ``prefix``.

    Increments the last incrementable code point; ``None`` when every
    character is U+10FFFF (no finite upper bound exists).  Incrementing
    must skip the UTF-16 surrogate block (U+D800–U+DFFF): a lone
    surrogate (e.g. ``chr(0xD7FF + 1)``) is not a valid character, is
    unencodable by any UTF-8 serialization of the plan/explain output,
    and compares inconsistently with real text.  ``chr(0xE000)`` — the
    first character after the block — is still above every surrogate
    and every character below it, so the bound stays correct."""
    for position in reversed(range(len(prefix))):
        point = ord(prefix[position])
        if point < 0x10FFFF:
            next_point = point + 1
            if 0xD800 <= next_point <= 0xDFFF:
                next_point = 0xE000
            return prefix[:position] + chr(next_point)
    return None


def _like_conjunct_filter(expr: Expr, column: str,
                          binding: str) -> KeyFilter | None:
    """``col LIKE 'prefix%'`` → the string range all matches fall in."""
    if not isinstance(expr, Like) or expr.negated:
        return None
    if not _is_key_column(expr.operand, column, binding):
        return None
    if not isinstance(expr.pattern, Literal) or not isinstance(
        expr.pattern.value, str
    ):
        return None
    prefix = like_literal_prefix(expr.pattern.value)
    if prefix is None:
        return None
    if prefix == expr.pattern.value:
        # Wildcard-free pattern: an exact string match.
        return KeySet((prefix,))
    upper = _prefix_upper_bound(prefix)
    if upper is None:
        return KeyRange(low=prefix)
    return KeyRange(low=prefix, high=upper, high_inclusive=False)


def extract_column_filter(conjuncts: list[Expr], column: str,
                          binding: str) -> tuple[KeyFilter, bool] | None:
    """Value restriction on ``column`` for index probing.

    Like :func:`extract_key_filter` plus LIKE-prefix ranges; returns
    ``(filter, needs_str)`` where ``needs_str`` marks that the bounds
    constrain ``str(value)`` (LIKE coerces), not the raw value — a
    sorted index may only serve such a probe when every indexed value
    already is a string.  LIKE conjuncts never feed *key* filters:
    partition routing and point lookups use raw keys, where the
    coercion would be unsound."""
    combined: KeyFilter | None = None
    needs_str = False
    for conjunct in conjuncts:
        part = _conjunct_key_filter(conjunct, column, binding)
        if part is None:
            part = _like_conjunct_filter(conjunct, column, binding)
            if part is not None:
                needs_str = True
        if part is not None:
            combined = _intersect(combined, part)
    if combined is None:
        return None
    return combined, needs_str


# -- fragments ---------------------------------------------------------------


@dataclass(frozen=True)
class PartialAggregate:
    """Scan-side partial-aggregation stage of a decomposed GROUP BY."""

    group_by: tuple[Expr, ...]
    #: aggregate calls in :func:`unique_aggregates` order.
    calls: tuple[FuncCall, ...]
    #: raw column names the finalize stage reads outside aggregate args
    #: (group-key columns, HAVING / ORDER BY references, ...).
    rep_columns: tuple[str, ...]


@dataclass(frozen=True)
class TopK:
    """Scan-side stage of a pushed ``ORDER BY ... LIMIT``: a shard ships
    only its first ``keep`` surviving rows in ORDER BY order."""

    #: the statement's ORDER BY, evaluated on the scanned row (an output
    #: alias replaced by its item's expression).
    order_by: tuple[OrderItem, ...]
    #: ``LIMIT + OFFSET``: no later row of a shard can reach the answer.
    keep: int


@dataclass(frozen=True)
class ScanFragment:
    """What one storage node executes against one table's shards."""

    table: str
    binding: str
    #: WHERE conjuncts evaluated scan-side (rows failing any are dropped).
    pushed: tuple[Expr, ...] = ()
    #: raw column names to ship; ``None`` ships every column.
    projection: tuple[str, ...] | None = None
    partial: PartialAggregate | None = None
    #: key restriction implied by ``pushed`` (drives partition pruning).
    key_filter: KeyFilter | None = None
    top_k: TopK | None = None

    @property
    def is_passthrough(self) -> bool:
        return (
            not self.pushed
            and self.projection is None
            and self.partial is None
            and self.top_k is None
        )

    def top_k_keep(self, entries: int) -> int | None:
        """Rows a shard of ``entries`` entries keeps, or ``None`` when
        it runs no top-k stage: there is none, or nothing to cut."""
        if self.top_k is None or entries <= self.top_k.keep:
            return None
        return self.top_k.keep


@dataclass(frozen=True)
class DistributedPlan:
    """A SELECT split into per-table scan fragments + a final fragment."""

    select: Select
    #: the entry-node statement: original SELECT with WHERE replaced by
    #: the residual conjuncts (joins/HAVING/ORDER/LIMIT untouched).
    final_select: Select
    fragments: dict[str, ScanFragment] = field(default_factory=dict)
    residual: Expr | None = None
    #: set iff the whole query runs as scan-side partial aggregation.
    partial: PartialAggregate | None = None

    def fragment(self, table: str) -> ScanFragment:
        return self.fragments[table]


#: Row fields that exist on every stored row.  They used to be
#: force-kept in every projection "just in case"; nothing downstream
#: reads them from *shipped* rows anymore (repeatable-read locking and
#: chaos audits both work from the raw rows on the scan node), so they
#: now ship only when the statement references them — the single
#: biggest per-row byte saving for joins, whose key columns are usually
#: the only overlap with this set.
ROW_IDENTITY_COLUMNS = ("key", "ssid", "partitionKey")


def _referenced_columns(select: Select, residual: Expr | None,
                        joins_central: bool) -> list[Column]:
    """Every column the final fragment can still read."""
    columns: list[Column] = []
    for item in select.items:
        collect_columns(item.expr, columns)
    collect_columns(residual, columns)
    for expr in select.group_by:
        collect_columns(expr, columns)
    collect_columns(select.having, columns)
    for order in select.order_by:
        collect_columns(order.expr, columns)
    if joins_central:
        for join in select.joins:
            for name in join.using:
                columns.append(Column(name))
            if join.on is not None:
                collect_columns(join.on, columns)
    return columns


def _projection_for(select: Select, binding: str,
                    referenced: list[Column]) -> tuple[str, ...] | None:
    """Raw columns table ``binding`` must ship, or None for all."""
    if select.select_star:
        return None
    names: list[str] = []
    for column in referenced:
        if column.table in (None, binding) and column.name not in names:
            names.append(column.name)
    return tuple(names)


def _partial_aggregate_for(select: Select, pushed: list[Expr],
                           residual: Expr | None) -> PartialAggregate | None:
    """Decide scan-side partial aggregation for a single-table SELECT."""
    if select.joins or residual is not None:
        return None
    if not select.aggregates() or select.select_star:
        return None
    calls = unique_aggregates(select)
    for call in calls:
        if call.distinct:
            return None
        if any(contains_local_timestamp(arg) for arg in call.args):
            return None
    for expr in select.group_by:
        if contains_local_timestamp(expr) or contains_aggregate(expr):
            return None
    rep: list[Column] = []
    for item in select.items:
        collect_columns(item.expr, rep, True)
    for expr in select.group_by:
        collect_columns(expr, rep, True)
    collect_columns(select.having, rep, True)
    for order in select.order_by:
        collect_columns(order.expr, rep, True)
    rep_columns: list[str] = []
    for column in rep:
        if column.name not in rep_columns:
            rep_columns.append(column.name)
    return PartialAggregate(
        group_by=tuple(select.group_by),
        calls=tuple(calls),
        rep_columns=tuple(rep_columns),
    )


def _top_k_for(select: Select, residual: Expr | None) -> TopK | None:
    """Decide the scan-side top-k stage of a single-table SELECT.

    A shard may cut to ``LIMIT + OFFSET`` rows only when the rows it
    ships are the rows the final ORDER BY ranks (no join, aggregation,
    DISTINCT or residual filter in between; ``SELECT *`` derives its
    columns from every shipped row) and each term evaluates on the
    scanned row to what it evaluates to centrally.  A term that is an
    output column's bare name ranks by that item's expression; the
    term (so substituted) must be clock- and aggregate-free, and every
    name it reads the stored column — an output column of that name
    must be that column unrenamed.
    """
    if (
        select.limit is None or not select.order_by or select.joins
        or residual is not None or select.distinct or select.select_star
        or select.aggregates()
    ):
        return None
    binding = select.table.binding
    outputs = {
        output_column_name(item, position): item.expr
        for position, item in enumerate(select.items)
    }
    order_by = []
    for order in select.order_by:
        expr = order.expr
        if isinstance(expr, Column) and expr.table is None:
            expr = outputs.get(expr.name, expr)
        if contains_local_timestamp(expr) or contains_aggregate(expr):
            return None
        columns: list[Column] = []
        collect_columns(expr, columns)
        for column in columns:
            if column.table not in (None, binding):
                return None
            shadow = outputs.get(column.display())
            if shadow is not None and not (
                isinstance(shadow, Column)
                and shadow.name == column.name
                and shadow.table in (None, binding)
            ):
                return None
        order_by.append(
            order if expr == order.expr
            else OrderItem(expr, order.descending)
        )
    return TopK(
        order_by=tuple(order_by),
        keep=select.limit + (select.offset or 0),
    )


def split_select(select: Select) -> DistributedPlan:
    """Split one SELECT into scan fragments and a final fragment."""
    base_binding = select.table.binding
    bindings: dict[str, str] = {select.table.name: base_binding}
    duplicated: set[str] = set()
    #: bindings whose scans may be filtered without changing semantics.
    pushable: dict[str, str] = {base_binding: select.table.name}
    for join in select.joins:
        name = join.table.name
        if name in bindings:
            duplicated.add(name)
        else:
            bindings[name] = join.table.binding
        if join.kind == "INNER":
            pushable[join.table.binding] = name

    single_table = not select.joins
    pushed_by_table: dict[str, list[Expr]] = {
        name: [] for name in bindings
    }
    residual_parts: list[Expr] = []
    for conjunct in split_conjuncts(select.where):
        if contains_local_timestamp(conjunct) or contains_aggregate(
            conjunct
        ):
            residual_parts.append(conjunct)
            continue
        columns: list[Column] = []
        collect_columns(conjunct, columns)
        if single_table:
            if all(
                column.table in (None, base_binding) for column in columns
            ):
                pushed_by_table[select.table.name].append(conjunct)
            else:
                residual_parts.append(conjunct)
            continue
        qualifiers = {column.table for column in columns}
        if len(qualifiers) == 1:
            qualifier = next(iter(qualifiers))
            if qualifier is not None and qualifier in pushable:
                target = pushable[qualifier]
                if target not in duplicated:
                    pushed_by_table[target].append(conjunct)
                    continue
        residual_parts.append(conjunct)

    residual = conjoin(residual_parts)
    partial = _partial_aggregate_for(
        select, pushed_by_table.get(select.table.name, []), residual
    )

    top_k = _top_k_for(select, residual)

    referenced = _referenced_columns(
        select, residual, joins_central=bool(select.joins)
    )
    fragments: dict[str, ScanFragment] = {}
    for name, binding in bindings.items():
        if name in duplicated:
            fragments[name] = ScanFragment(table=name, binding=binding)
            continue
        pushed = pushed_by_table[name]
        key_filter = extract_key_filter(pushed, "key", binding)
        fragments[name] = ScanFragment(
            table=name,
            binding=binding,
            pushed=tuple(pushed),
            projection=(
                None if partial is not None
                else _projection_for(select, binding, referenced)
            ),
            partial=partial if name == select.table.name else None,
            key_filter=key_filter,
            top_k=top_k if name == select.table.name else None,
        )

    final_select = replace(select, where=residual)
    return DistributedPlan(
        select=select,
        final_select=final_select,
        fragments=fragments,
        residual=residual,
        partial=partial,
    )


# -- distributed join planning -----------------------------------------------


@dataclass(frozen=True)
class JoinFragment:
    """One JOIN step as the distributed coordinator sees it.

    Steps execute in statement order (the same left-deep order the
    central executor uses), so "multi-way ordering" is a property the
    distributed path *preserves* rather than re-derives: strategy
    choice may change where each step runs, never the sequence of
    steps, and therefore never the row order the order tags encode.
    Either ``using`` is non-empty or ``probe``/``build`` are the two
    sides of an equi-``ON`` (build references this step's binding) —
    the same detection :func:`repro.sql.planner.extract_hash_keys`
    feeds the central hash join, so both layers agree on what hashes.
    """

    index: int
    table: str
    binding: str
    kind: str  # 'INNER' | 'LEFT'
    using: tuple[str, ...] = ()
    probe: Expr | None = None
    build: Expr | None = None


def join_fragments(select: Select) -> "tuple[JoinFragment, ...] | None":
    """Classify every JOIN step for distributed execution.

    Returns ``None`` when any step disqualifies the whole statement:
    a non-equi ``ON`` condition (the central nested loop is the only
    implementation of those semantics), or a table joined more than
    once (self-joins must read one consistent shipped copy centrally —
    two scans of a live table at different virtual times could
    disagree with themselves).
    """
    if not select.joins:
        return None
    seen = {select.table.name}
    bindings = {select.table.binding}
    steps: list[JoinFragment] = []
    for index, join in enumerate(select.joins):
        name = join.table.name
        if name in seen or join.table.binding in bindings:
            # Self-joins stay central; duplicate bindings must reach
            # the central planner so its error surfaces verbatim.
            return None
        seen.add(name)
        bindings.add(join.table.binding)
        if join.kind not in ("INNER", "LEFT"):
            return None
        if join.using:
            steps.append(JoinFragment(
                index=index, table=name, binding=join.table.binding,
                kind=join.kind, using=join.using,
            ))
            continue
        keys = extract_hash_keys(join.on, join.table.binding)
        if keys is None:
            return None
        probe, build = keys
        steps.append(JoinFragment(
            index=index, table=name, binding=join.table.binding,
            kind=join.kind, probe=probe, build=build,
        ))
    return tuple(steps)


#: Join-key column names that coincide with the store's partition key —
#: every stored row carries the map key under both names, so equality
#: on either co-locates matching rows when the two tables share a
#: partition function (see ``repro.cluster.partition``).
PARTITION_KEY_COLUMNS = frozenset({"key", "partitionKey"})


def partition_aligned_binding(step: JoinFragment) -> "str | None":
    """The earlier-table binding whose partition key this step probes.

    For ``USING`` the probe value resolves on the merged row where the
    leftmost (base) table wins collisions, so alignment is against the
    base table — returns ``""`` to say "base".  For an equi-``ON`` the
    probe side must be a binding-qualified partition-key column;
    returns that binding.  ``None`` means the step does not join on a
    partition key at all.
    """
    if step.using:
        if any(name in PARTITION_KEY_COLUMNS for name in step.using):
            return ""
        return None
    probe, build = step.probe, step.build
    if not isinstance(probe, Column) or not isinstance(build, Column):
        return None
    if probe.name not in PARTITION_KEY_COLUMNS:
        return None
    if build.name not in PARTITION_KEY_COLUMNS:
        return None
    return probe.table


# -- scan-side execution -----------------------------------------------------


@dataclass
class PartialGroups:
    """Shipped payload of one node's partial-aggregation scan.

    ``entries`` preserves group insertion order (first-seen row order on
    that node), which the merge relies on to reproduce the central
    executor's group ordering."""

    entries: list  # of (group_key, representative_raw, accs)

    def __len__(self) -> int:
        return len(self.entries)

    def width(self) -> int:
        """Shipped 'columns' per group (key + accumulators + rep)."""
        if not self.entries:
            return 0
        key, rep, accs = self.entries[0]
        return len(key) + len(accs) + len(rep)


def merge_partial_groups(payloads: list[PartialGroups],
                         partial: PartialAggregate,
                         binding: str) -> dict:
    """Merge per-node partial groups into the central group structure.

    ``payloads`` must arrive in canonical (node-id-sorted) order so the
    merged insertion order — and each group's representative row —
    matches what the central executor would have produced from the same
    canonical row order.  Fresh accumulators are created here; shipped
    ones are never mutated, so re-merging a payload after a retry of a
    *different* node cannot corrupt state.
    """
    calls = list(partial.calls)
    groups: dict[tuple, dict] = {}
    for payload in payloads:
        for key, rep, accs in payload.entries:
            group = groups.get(key)
            if group is None:
                group = {
                    "row": bind_row(rep, binding),
                    "accs": new_group_accs(calls),
                }
                groups[key] = group
            for mine, theirs in zip(group["accs"], accs):
                mine.merge(theirs)
    return groups
