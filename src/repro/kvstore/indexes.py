"""Per-partition secondary indexes over partitioned state.

Hazelcast — the paper's substrate — answers selective SQL predicates
through per-partition secondary indexes: a **hash** index serves
equality and IN probes, a **sorted** index serves ranges (and
LIKE-prefix probes).  This module reproduces that layer for the
simulated store:

* an :class:`IndexRegistry` holds every index of one partitioned table
  and is maintained **incrementally** from the write path (put / remove
  / partition rebuild), so probes always reflect the backing dicts;
* each partition additionally tracks an **insertion-order rank** per
  key.  Probe results are returned in that order, which is exactly the
  backing dict's iteration order — so an index-resolved scan feeds the
  executor the same rows *in the same order* as a full partition scan,
  keeping index-on results bit-identical to index-off;
* snapshot registries are **frozen** when their snapshot id commits:
  any later maintenance call raises :class:`~repro.errors.StoreError`
  (and fires a hook the runtime sanitizers use), enforcing the same
  immutability contract zone-map pruning already relies on.

Indexes are strictly an access-path optimisation, never the filter of
record: a probe may return a superset-shaped candidate list only in
the degraded fallback (whole partition), and the pushed predicates are
always re-evaluated against every candidate.  Whenever the index cannot
*prove* it sees the world exactly as a scan would — a partition holds
mutually incomparable values (a NaN is one), rows lacking the indexed
column, or a string-semantics (LIKE) probe meets non-string values —
the probe returns ``None`` and the caller falls back to scanning.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable

from ..errors import StoreError
from .derived import DerivedRegistry

#: Sentinel for "this row has no value for the indexed column".
MISSING = object()

#: Index kinds: hash (equality / IN) and sorted (ranges, LIKE prefix).
INDEX_KINDS = ("hash", "sorted")

#: Row-identity fields; never indexable (key lookups and partition
#: pruning already serve them).
RESERVED_COLUMNS = ("key", "partitionKey", "ssid")

_VALUE = itemgetter(0)


@dataclass(frozen=True)
class IndexDef:
    """One secondary index: a column and an index kind."""

    column: str
    kind: str = "hash"

    @property
    def name(self) -> str:
        return f"{self.kind}({self.column})"

    @property
    def slot(self) -> str:
        """One index per column."""
        return self.column

    def validate(self) -> None:
        if not self.column:
            raise StoreError("index column must be non-empty")
        if self.column in RESERVED_COLUMNS:
            raise StoreError(
                f"cannot index row-identity column {self.column!r} "
                "(key lookups and partition pruning already cover it)"
            )
        if self.kind not in INDEX_KINDS:
            raise StoreError(
                f"unknown index kind {self.kind!r}; "
                f"expected one of {INDEX_KINDS}"
            )


# -- probes ------------------------------------------------------------------


@dataclass(frozen=True)
class EqProbe:
    """Equality / IN probe: candidate rows match one of ``values``.

    ``needs_str`` marks probes derived from string-semantics predicates
    (LIKE matches against ``str(value)``): they are only sound over
    partitions whose indexed values are all strings.
    """

    values: tuple
    needs_str: bool = False


@dataclass(frozen=True)
class RangeProbe:
    """Interval probe (sorted indexes only); ``None`` bounds are open."""

    low: object | None = None
    high: object | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    needs_str: bool = False


# -- per-partition index structures ------------------------------------------


class _HashPartitionIndex:
    """value → {key: None} buckets (dicts keep insertion determinism)."""

    __slots__ = ("buckets", "absent", "non_str", "degraded")

    def __init__(self) -> None:
        self.buckets: dict = {}
        #: rows in the partition lacking the indexed column; a probe
        #: would silently skip them while a scan raises "unknown
        #: column", so any absence disables probing.
        self.absent = 0
        #: non-None values that are not strings (gates ``needs_str``).
        self.non_str = 0
        #: an unhashable value was seen: the structure is incomplete.
        self.degraded = False

    def insert(self, value: object, key: Hashable) -> None:
        if value is MISSING:
            self.absent += 1
            return
        if value is not None and not isinstance(value, str):
            self.non_str += 1
        try:
            self.buckets.setdefault(value, {})[key] = None
        except TypeError:
            self.degraded = True

    def remove(self, value: object, key: Hashable) -> None:
        if value is MISSING:
            self.absent -= 1
            return
        if value is not None and not isinstance(value, str):
            self.non_str -= 1
        try:
            bucket = self.buckets.get(value)
        except TypeError:
            return  # was never inserted (degraded path)
        if bucket is None:
            return
        bucket.pop(key, None)
        if not bucket:
            del self.buckets[value]

    def _usable(self, probe) -> bool:
        if self.degraded or self.absent:
            return False
        return not (probe.needs_str and self.non_str)

    def count(self, probe) -> tuple[int, int] | None:
        """(probes, candidate rows), or ``None`` when not probeable."""
        if isinstance(probe, RangeProbe) or not self._usable(probe):
            return None
        candidates = 0
        try:
            for value in probe.values:
                bucket = self.buckets.get(value)
                if bucket:
                    candidates += len(bucket)
        except TypeError:
            return None
        return len(probe.values), candidates

    def matching_keys(self, probe) -> list | None:
        if isinstance(probe, RangeProbe) or not self._usable(probe):
            return None
        keys: list = []
        try:
            for value in probe.values:
                bucket = self.buckets.get(value)
                if bucket:
                    keys.extend(bucket)
        except TypeError:
            return None
        return keys

    def coherence_problems(self, expected: list) -> list[str]:
        if self.degraded:
            return []  # structure is knowingly incomplete and unusable
        problems: list[str] = []
        absent = 0
        contents: dict = {}
        for key, value in expected:
            if value is MISSING:
                absent += 1
            else:
                contents[key] = value
        if absent != self.absent:
            problems.append(
                f"tracks {self.absent} column-less rows, store has "
                f"{absent}"
            )
        indexed: dict = {}
        for value, bucket in self.buckets.items():
            for key in bucket:
                indexed[key] = value
        if len(indexed) != len(contents):
            problems.append(
                f"indexes {len(indexed)} entries, store holds "
                f"{len(contents)}"
            )
            return problems
        for key, value in contents.items():
            got = indexed.get(key, MISSING)
            if got is not value and got != value:  # a NaN is itself
                problems.append(
                    f"key {key!r} indexed under {got!r} but stored "
                    f"value maps to {value!r}"
                )
                break
        return problems


class _SortedPartitionIndex:
    """(value, key) pairs kept sorted by value via binary insertion."""

    __slots__ = ("entries", "absent", "none_count", "non_str", "degraded")

    def __init__(self) -> None:
        self.entries: list[tuple] = []
        self.absent = 0
        #: NULL values never satisfy a predicate; they are counted but
        #: excluded from the ordered structure.
        self.none_count = 0
        self.non_str = 0
        #: a value incomparable with the resident ones was seen.
        self.degraded = False

    def insert(self, value: object, key: Hashable) -> None:
        if value is MISSING:
            self.absent += 1
            return
        if value is None:
            self.none_count += 1
            return
        if not isinstance(value, str):
            self.non_str += 1
        if value != value:
            # A NaN compares false with everything: inside the list it
            # would silently break the order bisect relies on.
            self.degraded = True
            return
        try:
            insort(self.entries, (value, key), key=_VALUE)
        except TypeError:
            self.degraded = True

    def remove(self, value: object, key: Hashable) -> None:
        if value is MISSING:
            self.absent -= 1
            return
        if value is None:
            self.none_count -= 1
            return
        if not isinstance(value, str):
            self.non_str -= 1
        try:
            index = bisect_left(self.entries, value, key=_VALUE)
        except TypeError:
            return  # was never inserted (degraded path)
        while index < len(self.entries) and \
                self.entries[index][0] == value:
            if self.entries[index][1] == key:
                del self.entries[index]
                return
            index += 1

    def _usable(self, probe) -> bool:
        if self.degraded or self.absent:
            return False
        return not (probe.needs_str and self.non_str)

    def _range_span(self, probe: RangeProbe) -> tuple[int, int]:
        if probe.low != probe.low or probe.high != probe.high:
            return 0, 0  # no value lies on either side of a NaN
        if probe.low is None:
            lo = 0
        elif probe.low_inclusive:
            lo = bisect_left(self.entries, probe.low, key=_VALUE)
        else:
            lo = bisect_right(self.entries, probe.low, key=_VALUE)
        if probe.high is None:
            hi = len(self.entries)
        elif probe.high_inclusive:
            hi = bisect_right(self.entries, probe.high, key=_VALUE)
        else:
            hi = bisect_left(self.entries, probe.high, key=_VALUE)
        return lo, max(lo, hi)

    def _eq_span(self, value: object) -> tuple[int, int]:
        if value != value:
            return 0, 0  # nothing equals a NaN; bisect would span all
        lo = bisect_left(self.entries, value, key=_VALUE)
        hi = bisect_right(self.entries, value, key=_VALUE)
        return lo, hi

    def count(self, probe) -> tuple[int, int] | None:
        if not self._usable(probe):
            return None
        try:
            if isinstance(probe, EqProbe):
                candidates = 0
                for value in probe.values:
                    lo, hi = self._eq_span(value)
                    candidates += hi - lo
                return len(probe.values), candidates
            lo, hi = self._range_span(probe)
            return 1, hi - lo
        except TypeError:
            return None  # probe value incomparable with the residents

    def matching_keys(self, probe) -> list | None:
        if not self._usable(probe):
            return None
        try:
            if isinstance(probe, EqProbe):
                keys: list = []
                for value in probe.values:
                    lo, hi = self._eq_span(value)
                    keys.extend(
                        entry[1] for entry in self.entries[lo:hi]
                    )
                return keys
            lo, hi = self._range_span(probe)
        except TypeError:
            return None
        return [entry[1] for entry in self.entries[lo:hi]]

    def coherence_problems(self, expected: list) -> list[str]:
        if self.degraded:
            return []
        problems: list[str] = []
        absent = 0
        none_count = 0
        contents: dict = {}
        for key, value in expected:
            if value is MISSING:
                absent += 1
            elif value is None:
                none_count += 1
            else:
                contents[key] = value
        if absent != self.absent:
            problems.append(
                f"tracks {self.absent} column-less rows, store has "
                f"{absent}"
            )
        if none_count != self.none_count:
            problems.append(
                f"tracks {self.none_count} NULL rows, store has "
                f"{none_count}"
            )
        indexed = {key: value for value, key in self.entries}
        if len(indexed) != len(self.entries) or \
                len(indexed) != len(contents):
            problems.append(
                f"indexes {len(self.entries)} entries, store holds "
                f"{len(contents)}"
            )
            return problems
        for key, value in contents.items():
            got = indexed.get(key, MISSING)
            if got is not value and got != value:  # a NaN is itself
                problems.append(
                    f"key {key!r} indexed under {got!r} but stored "
                    f"value maps to {value!r}"
                )
                break
        return problems


_STRUCTURES = {
    "hash": _HashPartitionIndex,
    "sorted": _SortedPartitionIndex,
}


# -- the registry ------------------------------------------------------------


class IndexRegistry(DerivedRegistry):
    """Every secondary index of one partitioned table.

    ``entries_of_partition(partition)`` must yield the backing store's
    ``(key, value)`` pairs *in iteration order* — the registry derives
    its insertion-order ranks from it at build/rebuild time and keeps
    them incrementally maintained afterwards.
    """

    family = "index"

    def __init__(self, partition_count: int,
                 entries_of_partition: Callable[[int], Iterable]) -> None:
        super().__init__(partition_count, entries_of_partition)
        #: column -> one structure per partition.
        self._columns: dict[str, list] = {}
        #: per partition: key -> monotonically increasing insertion
        #: rank.  Sorting probe hits by rank reproduces the backing
        #: dict's iteration order: overwriting keeps the original rank
        #: (dicts keep the slot) while delete + re-insert assigns a
        #: fresh one (dicts move such keys to the end).
        self._order: list[dict] = [{} for _ in range(partition_count)]
        self._seq = 0
        for partition in range(partition_count):
            for key, _ in entries_of_partition(partition):
                self._seq += 1
                self._order[partition][key] = self._seq

    # -- definitions ---------------------------------------------------------

    def column_kinds(self) -> dict[str, str]:
        return {
            column: self._defs[column].kind
            for column in sorted(self._defs)
        }

    def add_definition(self, definition: IndexDef) -> IndexDef:
        existing = self.declared(self._defs, definition)
        if existing is not None:
            return existing
        self._ensure_mutable(f"create index {definition.name}")
        structure = _STRUCTURES[definition.kind]
        per_partition = [structure() for _ in range(self.partition_count)]
        for partition in range(self.partition_count):
            index = per_partition[partition]
            for key, value in self._entries_of(partition):
                index.insert(
                    self._column_of(value, definition.column), key
                )
                self.maintenance_ops += 1
        self._defs[definition.column] = definition
        self._columns[definition.column] = per_partition
        return definition

    # -- write-path maintenance ---------------------------------------------

    def on_put(self, partition: int, key: Hashable, old: object,
               new: object) -> None:
        """Maintain after ``store[key] = new`` (``old`` is
        :data:`MISSING` for a fresh key)."""
        self._ensure_mutable("put")
        order = self._order[partition]
        if key not in order:
            self._seq += 1
            order[key] = self._seq
        for column, per_partition in self._columns.items():
            index = per_partition[partition]
            if old is not MISSING:
                index.remove(self._column_of(old, column), key)
            index.insert(self._column_of(new, column), key)
            self.maintenance_ops += 1

    def on_remove(self, partition: int, key: Hashable,
                  old: object) -> None:
        self._ensure_mutable("remove")
        self._order[partition].pop(key, None)
        for column, per_partition in self._columns.items():
            per_partition[partition].remove(
                self._column_of(old, column), key
            )
            self.maintenance_ops += 1

    def rebuild_partition(self, partition: int) -> None:
        """Re-derive one partition from the backing store (bulk
        replacement: snapshot instance writes, partition drops)."""
        self._ensure_mutable("rebuild")
        order: dict = {}
        for column, per_partition in self._columns.items():
            per_partition[partition] = _STRUCTURES[
                self._defs[column].kind
            ]()
        for key, value in self._entries_of(partition):
            self._seq += 1
            order[key] = self._seq
            for column, per_partition in self._columns.items():
                per_partition[partition].insert(
                    self._column_of(value, column), key
                )
                self.maintenance_ops += 1
        self._order[partition] = order

    # -- probes --------------------------------------------------------------

    def probe_count(self, partition: int, column: str,
                    probe) -> tuple[int, int] | None:
        """(probes, candidate rows) for one partition, or ``None``
        when the partition cannot be probed soundly."""
        per_partition = self._columns.get(column)
        if per_partition is None:
            return None
        return per_partition[partition].count(probe)

    def probe_keys(self, partition: int, column: str,
                   probe) -> list | None:
        """Matching keys in backing-dict iteration order, or ``None``."""
        per_partition = self._columns.get(column)
        if per_partition is None:
            return None
        keys = per_partition[partition].matching_keys(probe)
        if keys is None:
            return None
        order = self._order[partition]
        return sorted(keys, key=order.__getitem__)

    # -- verification --------------------------------------------------------

    def coherence_errors(self) -> list[str]:
        """Divergences between the registry and the backing store."""
        errors: list[str] = []
        for partition in range(self.partition_count):
            stored = list(self._entries_of(partition))
            order = self._order[partition]
            stored_keys = [key for key, _ in stored]
            if set(stored_keys) != set(order):
                errors.append(
                    f"partition {partition}: order map tracks "
                    f"{len(order)} keys, store holds "
                    f"{len(stored_keys)}"
                )
                continue
            if sorted(stored_keys, key=order.__getitem__) != stored_keys:
                errors.append(
                    f"partition {partition}: insertion-order ranks "
                    "diverged from store iteration order"
                )
            for column in sorted(self._columns):
                index = self._columns[column][partition]
                expected = [
                    (key, self._column_of(value, column))
                    for key, value in stored
                ]
                errors.extend(
                    f"partition {partition}, index on {column!r}: "
                    f"{problem}"
                    for problem in index.coherence_problems(expected)
                )
        return errors
