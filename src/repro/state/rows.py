"""Row shaping: turning state objects into queryable SQL rows.

State values are arbitrary Python objects (the paper: "the value can be
any object").  The SQL layer sees them as rows: a dataclass exposes its
fields as columns, a namedtuple its ``_fields``, a mapping its items
(whatever keys that one value has); any other object is a single
``value`` column.  Every row carries the partition key under both
``partitionKey`` (the name used by the paper's queries) and ``key``
(Fig. 4's header), a snapshot row its ``ssid`` — after the value's
columns and over any value column of the same name.

:class:`ColumnReader` is the one definition of that mapping: whole
rows, single columns (what an index or sketch maintains) and the
column lists of a :class:`ColumnBatch` all come from the shape it
resolves once per value type.  A reader belongs to the table (or
registry, or arrangement) that reads through it.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Callable, Hashable

from ..kvstore.indexes import MISSING

#: Entry-identity columns in the order a row carries them (then ``ssid``).
KEY_COLUMNS = ("partitionKey", "key")
#: A batch's layout not worked out yet.
_UNKNOWN = object()


class _FieldShape:
    """A type with fixed columns: dataclass fields or namedtuple
    ``_fields``, read as attributes."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names

    def columns(self, value: object) -> dict:
        return {name: getattr(value, name) for name in self.names}

    def get(self, value: object, name: str) -> object:
        return getattr(value, name) if name in self.names else MISSING

    def column(self, name: str, values: list) -> list:
        if name not in self.names:
            return [MISSING] * len(values)
        return list(map(attrgetter(name), values))

    def projector(self, keep: frozenset) -> Callable[[object], dict]:
        return _FieldShape(
            tuple(name for name in self.names if name in keep)
        ).columns

    def layout(self, values: list) -> tuple[str, ...]:
        return self.names


class _MappingShape:
    """A ``dict`` (or subclass): each value brings its own columns, in
    its own order."""

    __slots__ = ()

    columns = staticmethod(dict)

    def get(self, value: dict, name: str) -> object:
        return value.get(name, MISSING)

    def column(self, name: str, values: list) -> list:
        return [value.get(name, MISSING) for value in values]

    def projector(self, keep: frozenset) -> Callable[[dict], dict]:
        return lambda value: {
            name: column for name, column in value.items() if name in keep
        }

    def layout(self, values: list) -> tuple[str, ...] | None:
        """The column names of ``values`` when they all have the same
        ones in the same order (``None`` otherwise)."""
        layouts = list(map(tuple, values))
        first = layouts[0]
        return first if layouts.count(first) == len(layouts) else None


class _ScalarShape:
    """Any other object: one ``value`` column holding the object."""

    __slots__ = ()

    def columns(self, value: object) -> dict:
        return {"value": value}

    def get(self, value: object, name: str) -> object:
        return value if name == "value" else MISSING

    def column(self, name: str, values: list) -> list:
        return list(values) if name == "value" else [MISSING] * len(values)

    def projector(self, keep: frozenset) -> Callable[[object], dict]:
        return self.columns if "value" in keep else lambda value: {}

    def layout(self, values: list) -> tuple[str, ...]:
        return ("value",)


_Shape = _FieldShape | _MappingShape | _ScalarShape


def _shape_of(cls: type) -> _Shape:
    if dataclasses.is_dataclass(cls):
        return _FieldShape(tuple(
            field.name for field in dataclasses.fields(cls)
        ))
    if issubclass(cls, dict):
        return _MappingShape()
    if hasattr(cls, "_asdict"):  # the namedtuple protocol
        return _FieldShape(tuple(cls._fields))
    return _ScalarShape()


class ColumnReader:
    """What the columns of a state object are, resolved per value type
    on first sight and remembered for the reader's lifetime."""

    __slots__ = ("_shapes",)

    def __init__(self) -> None:
        self._shapes: dict[type, _Shape] = {}

    def shape(self, cls: type) -> _Shape:
        shape = self._shapes.get(cls)
        if shape is None:
            shape = self._shapes[cls] = _shape_of(cls)
        return shape

    def columns(self, value: object) -> dict:
        """Flatten a state object into column name → value."""
        return self.shape(type(value)).columns(value)

    def get(self, value: object, name: str) -> object:
        """One value column of a state object, or :data:`MISSING` —
        the row has that column exactly when this is not ``MISSING``
        (identity columns aside: they come from the entry)."""
        return self.shape(type(value)).get(value, name)

    def row(self, key: Hashable, value: object,
            ssid: int | None = None) -> dict:
        """Table I ``| Key | State object |``; with ``ssid`` Table II
        ``| Key | Snapshot ID | State object |``."""
        row = self.shape(type(value)).columns(value)
        row["partitionKey"] = key
        row["key"] = key
        if ssid is not None:
            row["ssid"] = ssid
        return row


class ColumnBatch:
    """A run of stored entries of one table, read column by column.

    ``keys`` / ``values`` / ``ssids`` are parallel lists (``ssids`` is
    ``None`` on live state); entries append in scan order.  A batch
    made of ``rows`` holds rows that are already shaped and has no
    ``keys``: their columns are their items and they identify themselves.

    What a shard ships is such a batch too (:meth:`take`): its
    survivors, showing only the projected columns.  Rows are shaped
    from it where they are needed, or never — a join reads its columns.

    A batch read by more than one scan (a live table's node batch, once
    a second scan reuses it) is marked by :meth:`share`; from then on it
    reads a value column over every entry on its first read and
    remembers it until :meth:`load` or :meth:`extend` appends more, so
    it reads each column once.  A batch read once reads only the chunks
    asked for, as they are asked for.
    """

    __slots__ = ("reader", "keys", "values", "ssids", "keep", "_layout",
                 "_columns", "order_types")

    def __init__(self, reader: ColumnReader,
                 rows: list[dict] | None = None) -> None:
        self.reader = reader
        self.keys: list | None = [] if rows is None else None
        self.values: list = [] if rows is None else rows
        self.ssids: list | None = None
        #: The only columns an entry shows (``None``: all it has).
        self.keep: frozenset | None = None
        self._layout: tuple[str, ...] | None | object = _UNKNOWN
        #: Value column name -> that column over every entry (``None``:
        #: not shared, nothing is remembered).
        self._columns: dict[str, list] | None = None
        #: A pushed top-k's shipped survivors: per ORDER BY term, a value
        #: of each type (NaN aside) the shard's survivors held, shipped
        #: or not (:func:`repro.sql.batch.finish` checks them).
        self.order_types: list[dict] | None = None

    def take(self, indexes: list[int],
             columns: tuple[str, ...] | None) -> "ColumnBatch":
        """The entries at ``indexes``, in that order, showing only
        ``columns`` (all they have for ``None``)."""
        taken = ColumnBatch(self.reader, [])
        taken.values = list(map(self.values.__getitem__, indexes))
        if self.keys is not None:
            taken.keys = list(map(self.keys.__getitem__, indexes))
        if self.ssids is not None:
            taken.ssids = list(map(self.ssids.__getitem__, indexes))
        if columns is not None:
            taken.keep = frozenset(columns)
        return taken

    def load(self, state: dict, ssid: int | None = None,
            keys: list | None = None) -> "ColumnBatch":
        """Append entries of ``state`` (``{key: value}``): all of them
        in its order, or those under ``keys`` in theirs."""
        self._layout = _UNKNOWN
        self._columns = None
        if keys is None:
            self.keys.extend(state)
            self.values.extend(state.values())
        else:
            self.keys.extend(keys)
            self.values.extend(map(state.__getitem__, keys))
        if ssid is not None:
            if self.ssids is None:
                self.ssids = []
            self.ssids.extend([ssid] * (len(self.keys) - len(self.ssids)))
        return self

    def extend(self, other: "ColumnBatch") -> None:
        """Append another run of the same table (a further version, or
        another node's shipped survivors)."""
        self._layout = _UNKNOWN
        self._columns = None
        if self.keys is not None:
            self.keys.extend(other.keys)
        self.values.extend(other.values)
        if other.ssids is not None:
            self.ssids = (self.ssids or []) + other.ssids
        self.keep = other.keep
        if other.order_types is not None:
            self.order_types = [
                {**theirs, **held} for held, theirs in zip(
                    self.order_types or [{}] * len(other.order_types),
                    other.order_types)
            ]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def ids(self) -> list:
        """What names each entry to a caller: its key (a shaped row
        names itself)."""
        return self.values if self.keys is None else self.keys

    def _shape(self, values: list) -> _Shape | None:
        """The one shape all of ``values`` have, if they share a type."""
        types = set(map(type, values))
        return self.reader.shape(types.pop()) if len(types) == 1 else None

    def column(self, name: str, start: int = 0,
               stop: int | None = None) -> list:
        """Column ``name`` of entries ``[start, stop)``, :data:`MISSING`
        where a row has no such column."""
        if self.keep is not None and name not in self.keep:
            return [MISSING] * len(self.values[start:stop])
        if self.keys is None:  # shaped rows: dicts
            return [row.get(name, MISSING) for row in self.values[start:stop]]
        if name in KEY_COLUMNS:
            return self.keys[start:stop]
        if name == "ssid" and self.ssids is not None:
            return self.ssids[start:stop]
        columns = self._columns
        if columns is None:
            values = self.values[start:stop]
        else:
            whole = columns.get(name)
            if whole is not None:
                return whole[start:stop]
            values = self.values
        shape = self._shape(values)
        if shape is not None:
            column = shape.column(name, values)
        else:
            get = self.reader.get
            column = [get(value, name) for value in values]
        if columns is None:
            return column
        columns[name] = column
        return column[start:stop]

    def share(self) -> None:
        """Mark the batch as read by more than one scan: remember each
        value column over every entry from its next read on."""
        if self._columns is None:
            self._columns = {}

    def row(self, index: int) -> dict:
        """The whole row of one entry."""
        if self.keys is None:
            return self.values[index]
        return self.reader.row(
            self.keys[index], self.values[index],
            None if self.ssids is None else self.ssids[index],
        )

    def layout(self) -> tuple[str, ...] | None:
        """The column names of every row, in row order, when all rows
        have the same ones in the same order (``None`` otherwise)."""
        if self._layout is not _UNKNOWN:
            return self._layout
        values = self.values
        shape = self._shape(values) if values else None
        names = None if shape is None else shape.layout(values)
        if names is not None:
            keep = self.keep
            # Identity columns overwrite a value column of the same name
            # in place, and follow the value's columns otherwise.
            names = tuple(dict.fromkeys(
                name for name in names + self._identity()
                if keep is None or name in keep
            ))
        self._layout = names if values else ()
        return self._layout

    def _identity(self) -> tuple[str, ...]:
        """The columns an entry takes from the entry, not its value."""
        if self.keys is None:
            return ()
        return KEY_COLUMNS + (() if self.ssids is None else ("ssid",))

    def tuples(self) -> tuple[list[tuple[str, ...]], list[tuple]]:
        """Every row as a names tuple and a values tuple: ``row(i)`` is
        ``dict(zip(names[i], values[i]))``.  Rows of one layout share one
        names tuple."""
        layout = self.layout()
        if layout is not None:
            return [layout] * len(self), self._zipped(layout)
        layouts: dict[tuple, tuple] = {}
        rows = self.rows()
        return (
            [layouts.setdefault(names, names) for names in map(tuple, rows)],
            [tuple(row.values()) for row in rows],
        )

    def _zipped(self, layout: tuple[str, ...]) -> list[tuple]:
        values = self.values  # all of one shape: the layout says so
        shape = self._shape(values[:1])
        columns = [
            self.column(name) if name in KEY_COLUMNS or name == "ssid"
            else shape.column(name, values) for name in layout
        ]
        return list(zip(*columns)) if columns else [()] * len(self)

    def width(self) -> int:
        """Columns over all rows, counted without shaping them."""
        if self.keys is None and self.keep is None:
            return sum(map(len, self.values))  # rows already shaped
        layout = self.layout()
        if layout is not None:
            return len(layout) * len(self)
        identity = self._identity()
        shape = self.reader.shape
        keep = self.keep
        return sum(
            len({name for name in shape(type(value)).layout([value])
                 + identity if keep is None or name in keep})
            for value in self.values
        )

    def rows(self) -> list[dict]:
        """Every entry as a row (what the entry node merges)."""
        if self.keep is not None:
            layout = self.layout()
            if layout is None:
                return list(map(self.projector(self.keep), range(len(self))))
            return [dict(zip(layout, row)) for row in self._zipped(layout)]
        if self.keys is None:
            return list(self.values)
        shape = self._shape(self.values)
        rows = list(map(
            self.reader.columns if shape is None else shape.columns,
            self.values,
        ))
        for row, key in zip(rows, self.keys):
            row["partitionKey"] = key
            row["key"] = key
        if self.ssids is not None:
            for row, ssid in zip(rows, self.ssids):
                row["ssid"] = ssid
        return rows

    def projector(self, columns: tuple[str, ...] | None
                  ) -> Callable[[int], dict]:
        """``project(index)``: the row restricted to ``columns`` (those
        it has, in stored column order); the whole row for ``None``."""
        if columns is None:
            return self.row
        keep = frozenset(columns)
        keys, values, ssids = self.keys, self.values, self.ssids
        identity = () if keys is None else tuple(
            name for name in KEY_COLUMNS if name in keep
        )
        with_ssid = ssids is not None and "ssid" in keep
        shape = self.reader.shape
        by_type: dict[type, Callable[[object], dict]] = {}

        def project(index: int) -> dict:
            value = values[index]
            narrow = by_type.get(type(value))
            if narrow is None:
                narrow = by_type[type(value)] = \
                    shape(type(value)).projector(keep)
            row = narrow(value)
            for name in identity:
                row[name] = keys[index]
            if with_ssid:
                row["ssid"] = ssids[index]
            return row

        return project


def value_to_columns(value: object) -> dict:
    """Flatten a state object into column name → value."""
    return ColumnReader().columns(value)


def live_row(key: Hashable, value: object) -> dict:
    """Table I: | Key | State object |."""
    return ColumnReader().row(key, value)


def snapshot_row(key: Hashable, ssid: int, value: object) -> dict:
    """Table II: | Key | Snapshot ID | State object |."""
    return ColumnReader().row(key, value, ssid)


def sanitize_table_name(vertex_name: str) -> str:
    """Operator name → table name (the paper lowercases and strips
    spaces: operator "stateful map" → table ``statefulmap``)."""
    return "".join(vertex_name.split()).lower()


def snapshot_table_name(vertex_name: str) -> str:
    return f"snapshot_{sanitize_table_name(vertex_name)}"
