"""The one join implementation: left-deep joins over column batches, by
row position.

A :class:`Side` is one table's shipped column batches as one batch in
node order, and a row is its *position* there.  A joined row is an
*order tag*: one position per table joined so far, ``-1`` where a LEFT
join padded it with NULLs; sorted tags are the statement's row order.
A hash step keys both sides column-wise (:func:`step_keys`; the first
error of either fails it, :func:`first_error`) and
:meth:`JoinedRows.match` extends each left tag with its matches; a
non-equi ``ON`` runs :meth:`JoinedRows.nested` instead.  The final
tags, sorted, are what the statement's final stage reads
(:class:`Joined`): a column by :meth:`JoinedRows.left_values` — the
left-most side with a name gives its value, and a padded side's columns
read NULL — and, for ``SELECT *`` only, :meth:`JoinedRows.gather`'s
merged bound rows, a padded side's columns in :meth:`Side.pad`'s order.
A single table's final stage reads its :class:`Side` the same way.

The entry node runs every step here on one worker holding every tag
(:func:`join_plan`); the distributed pipeline (:mod:`repro.query.joins`)
runs the same steps with their work placed on the nodes.
"""

from __future__ import annotations

from functools import cached_property, partial
from operator import itemgetter

from ..errors import SqlExecutionError
from ..kvstore.indexes import MISSING
from ..state.rows import ColumnBatch, ColumnReader
from .ast import Column
from .compiled import EvalContext, column_reads, compile_predicate
from .functions import hashable_key
from .planner import Plan

#: Value types that are their own join key.
_PLAIN = frozenset({int, str, bool, type(None)})


def join_key(value: object) -> object:
    """The hash-join key of one join column value: two keys are equal
    exactly when SQL ``=`` holds between the values, and ``None`` means
    nothing can match (NULL, and NaN, which equals nothing)."""
    if isinstance(value, float) and value != value:
        return None
    return hashable_key(value, "join on")


def join_keys(values: list) -> list:
    """:func:`join_key` of each value (the same list when every value
    is its own key); the first value no hash join can key raises."""
    if set(map(type, values)) <= _PLAIN:
        return values
    return list(map(join_key, values))


def using_keys(parts: "list[list]") -> list:
    """``USING`` keys from one value list per column: the tuple of the
    join keys, ``None`` when any is.  Columns convert in turn, so the
    first column holding a value no hash join can key raises."""
    return [None if None in key else key
            for key in zip(*map(join_keys, parts))]


class Side:
    """One join input: ``blocks`` (node id -> batch) as one batch in
    node order."""

    def __init__(self, binding: str, blocks: dict[int, ColumnBatch]) -> None:
        self.binding = binding
        ordered = sorted(blocks)
        #: node id -> the positions of its block's rows.
        self.spans: dict[int, range] = {}
        if len(ordered) == 1:  # read as it is, never extended
            self.rows = blocks[ordered[0]]
            self.count = len(self.rows.values)
            self.spans[ordered[0]] = range(self.count)
        else:
            # A batch of shaped rows (a catalog table's) has no keys;
            # every block of a table reads through the table's reader.
            first = blocks[ordered[0]] if ordered else None
            self.rows = ColumnBatch(
                ColumnReader() if first is None else first.reader,
                [] if first is not None and first.keys is None else None,
            )
            values = self.rows.values
            for node_id in ordered:
                start = len(values)
                self.rows.extend(blocks[node_id])
                self.spans[node_id] = range(start, len(values))
            self.count = len(values)
        #: A LEFT join padded some left row with this side.
        self.padded = False
        self._columns: dict = {}
        self._bound: tuple[list, list] | None = None
        self._pad: dict | None = None

    @cached_property
    def layout(self) -> tuple[str, ...] | None:
        """The columns of every row, in row order (``None``: rows
        differ)."""
        return self.rows.layout()

    def column(self, name) -> list:
        """A stored column, or (for a :class:`Column`) the column as the
        rows' bound form reads it — the first of the names it reads that
        a row has; :data:`MISSING` where a row has none."""
        names = ((name,) if isinstance(name, str)
                 else column_reads(name, self.binding))
        values = self._columns.get(names)
        if values is None:
            values = self.rows.column(names[0])
            if len(names) > 1 and MISSING in values:
                values = [found if value is MISSING else value for
                          value, found in zip(values,
                                              self.rows.column(names[1]))]
            self._columns[names] = values
        return values

    def shaped(self, positions) -> list[dict]:
        """The rows at ``positions`` as they were stored: what ``SELECT
        *`` over the table shows (its bound aliases are all dotted)."""
        rows = self.rows.rows()
        return list(map(rows.__getitem__, positions))

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
        """LEFT-join NULL padding, the one definition of its column
        order: every bound column of the side, in the order its rows
        first show them."""
        if self._pad is None:
            self._pad = dict.fromkeys(
                name for names in dict.fromkeys(self.bound()[0])
                for name in names
            )
        return self._pad


def step_keys(using: tuple[str, ...], expr: Column | None, read,
              order, side: int) -> tuple[list, list, tuple | None]:
    """One side of a join step, per row in ``order``: the routing key
    (``None``: the row cannot match), the hash key, and the key error
    of its least tag as ``((side, tag), error)`` — ``side`` 0 builds and
    1 probes, so a build error comes first.  ``read`` reads a
    :class:`Column` of the rows; a ``USING`` column a row lacks reads
    as NULL, an ``ON`` column as an unknown column."""
    if using:
        parts = [[None if value is MISSING else value
                  for value in read(Column(name))] for name in using]
        routes = [None if None in key else key for key in zip(*parts)]
    else:
        parts = [read(expr)]
        routes = parts[0]
        if MISSING in routes:
            routes = [None if value is MISSING else value for value in routes]
    if using or routes is parts[0]:  # no ON key column is missing
        try:
            return routes, using_keys(parts) if using else join_keys(routes), \
                None
        except SqlExecutionError:
            pass
    for tag, row in sorted(zip(order, zip(*parts)), key=itemgetter(0)):
        try:
            for value in row:
                if value is MISSING:
                    raise SqlExecutionError(
                        f"unknown column {expr.display()!r}")
                join_key(value)
        except SqlExecutionError as exc:
            return routes, [None] * len(routes), ((side, tag), exc)


def first_error(errors: list) -> Exception | None:
    """A step's first key error: the least of its sides' and holders'
    :func:`step_keys` errors (``None`` where there is none)."""
    found = min(filter(None, errors), key=itemgetter(0), default=None)
    return None if found is None else found[1]


class JoinedRows:
    """The sides of one left-deep join, in join order; an order tag
    holds one position in each side joined so far."""

    def __init__(self) -> None:
        self.sides: list[Side] = []

    def side(self, binding: str, blocks: dict[int, ColumnBatch]) -> Side:
        """Join one more input, the next step's right side."""
        side = Side(binding, blocks)
        self.sides.append(side)
        return side

    @property
    def scanned(self) -> int:
        """Rows read across every side."""
        return sum(len(side.rows) for side in self.sides)

    def left_values(self, tags: list, column: Column) -> list:
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
            elif found and found[0] is MISSING and \
                    found.count(MISSING) == len(found):
                continue  # no row of this side has it
            read = list(map(found.__getitem__, map(itemgetter(index), tags)))
            values = read if not values else [
                other if value is MISSING else value
                for value, other in zip(values, read)
            ]
            if MISSING not in values:
                break
        return values or [MISSING] * len(tags)

    def widths(self, tags: list) -> list[int]:
        """Each left row's unqualified column count: the columns a
        shipped merged row bills."""
        sides = self.sides[:len(tags[0])] if tags else []
        if all(side.layout is not None for side in sides):
            names = {name for side in sides for name in side.layout
                     if "." not in name}
            return [len(names)] * len(tags)
        return [sum("." not in name for name in self._merged(tag, len(tag)))
                for tag in tags]

    def match(self, keys: list, held: dict, kind: str) -> dict[int, list]:
        """Build and probe: map the newest side's hash ``keys`` to its
        positions (a NULL key never enters) and extend each tag of
        ``held`` (worker -> its tags and their hash keys) with every
        matching position — or, LEFT, with ``-1``, which sorts before
        any match but only ever meets tags of the same left row.
        Returns worker -> its joined tags, for workers that have any."""
        build: dict = {}
        for position, key in enumerate(keys):
            if key is not None:
                build.setdefault(key, []).append((position,))
        pad = ((-1,),) if kind == "LEFT" else ()
        get = build.get
        joined = {}
        for worker in sorted(held):
            tags, hashed = held[worker]
            matched = [tag + position for tag, key in zip(tags, hashed)
                       for position in get(key) or pad]
            if matched:
                joined[worker] = matched
                if pad and any(tag[-1] < 0 for tag in matched):
                    self.sides[-1].padded = True
        return joined

    def nested(self, tags: list, on, kind: str,
               context: EvalContext) -> list:
        """A non-equi ``ON``: each tag with every newest-side position
        whose merged row ``on`` holds for, left row by left row — or,
        LEFT, with ``-1`` when it holds for none."""
        right = self.sides[-1]
        names, values = right.bound()
        positions = range(len(values))
        joined: list = []
        for tag in tags:
            left = self._merged(tag, len(tag))
            before = len(joined)
            for position in positions:
                row = dict(zip(names[position], values[position]))
                row.update(left)
                if on(row, context):
                    joined.append(tag + (position,))
            if len(joined) == before and kind == "LEFT":
                joined.append(tag + (-1,))
                right.padded = True
        return joined

    def gather(self, tags: list) -> list[dict]:
        """One merged bound row per order tag: the right-most table's
        columns first, each earlier table's values winning."""
        return [self._merged(tag, len(tag)) for tag in tags]

    def _merged(self, tag: tuple, upto: int) -> dict:
        """The merged bound row of ``tag``'s first ``upto`` sides; a
        padded side's NULLs follow the row it pads."""
        names: tuple = ()
        values: tuple = ()
        for index in reversed(range(upto)):
            position = tag[index]
            if position < 0:
                inner = self._merged(tag, index)
                return {**dict(zip(names, values)), **inner,
                        **self.sides[index].pad(), **inner}
            bound_names, bound_values = self.sides[index].bound()
            names += bound_names[position]
            values += bound_values[position]
        return dict(zip(names, values))


class Joined:
    """The joined rows of sorted order ``tags`` as a statement's final
    stage reads them (:func:`repro.sql.batch.finish`): a column by
    :meth:`JoinedRows.left_values`, the merged rows only for ``SELECT
    *``, whose output they are."""

    def __init__(self, joined: JoinedRows, tags: list) -> None:
        self.joined = joined
        self.tags = tags
        self.count = len(tags)

    def column(self, column: Column) -> list:
        return self.joined.left_values(self.tags, column)

    def shaped(self, positions) -> list[dict]:
        return self.joined.gather(list(map(self.tags.__getitem__,
                                           positions)))


def join_plan(plan: Plan, context: EvalContext) -> tuple[Joined, int]:
    """Run ``plan``'s joins on one worker that holds every tag: the
    joined rows in statement order, and the rows read."""
    joined = JoinedRows()
    base = joined.side(plan.base_binding, plan.base_source.blocks)
    tags = list(zip(range(len(base.rows))))
    for step in plan.joins:
        right = joined.side(step.binding, step.source.blocks)
        if not step.using and step.hash_on is None:
            tags = joined.nested(tags, compile_predicate(step.on), step.kind,
                                 context)
            continue
        probe, build = step.hash_on or (None, None)
        _routes, keys, build_error = step_keys(
            step.using, build, right.column, range(len(right.rows)), 0)
        _routes, hashed, probe_error = step_keys(
            step.using, probe, partial(joined.left_values, tags), tags, 1)
        error = first_error([build_error, probe_error])
        if error is not None:
            raise error
        tags = joined.match(keys, {0: (tags, hashed)}, step.kind).get(0, [])
    return Joined(joined, tags), joined.scanned
