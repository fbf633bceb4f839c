"""Sketch registries: write-path maintenance and merged estimation.

A :class:`SketchRegistry` is the sketch analogue of
:class:`repro.kvstore.indexes.IndexRegistry`: it hangs off one backing
table (an IMap's partition dicts, or one retained snapshot version),
keeps one sketch instance per (definition, partition), and is updated
synchronously from the same mutation hooks as the secondary indexes —
so a live sketch agrees with the partition dicts at every instant, and
a snapshot version's registry can be frozen at commit.

Soundness gating: a sketch only summarises values it could canonically
encode.  Rows whose state object lacks the column entirely, or whose
value isn't sketchable (or isn't numeric, for reservoirs), bump a
per-partition degradation counter; any touched partition with a
non-zero counter makes :meth:`SketchRegistry.estimate` refuse to
answer (``None``), and the query falls back to the exact path.  NULLs
are excluded from the sketches without vetoing, matching SQL aggregate
semantics (``COUNT(DISTINCT c)``, ``SUM``/``AVG`` all ignore NULLs,
and ``c = v`` is never satisfied by NULL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from ..errors import StoreError
from ..kvstore.derived import DerivedRegistry
from ..kvstore.indexes import MISSING, RESERVED_COLUMNS
from .hashing import DEFAULT_SEED, HashFamily, is_sketchable
from .sketches import (
    CountMinSketch,
    HyperLogLog,
    ReservoirSample,
    Z_VALUES,
    hll_estimate,
    hll_relative_error,
)

SKETCH_KINDS = ("countmin", "hll", "reservoir")

#: Estimation mode -> sketch kind that answers it.
MODE_KIND = {
    "count_eq": "countmin",
    "distinct": "hll",
    "sum": "reservoir",
    "avg": "reservoir",
}


@dataclass(frozen=True)
class SketchDef:
    """One declared sketch: a column, a kind, and its parameters."""

    column: str
    kind: str
    width: int = 512          # count-min counters per row
    depth: int = 4            # count-min rows / hash functions
    registers: int = 256      # HLL registers (power of two)
    capacity: int = 512       # reservoir slots per partition
    confidence: float = 0.95  # reported confidence for CLT bounds
    seed: int = DEFAULT_SEED

    @property
    def name(self) -> str:
        return f"{self.kind}({self.column})"

    @property
    def slot(self) -> tuple[str, str]:
        """One sketch per column and kind."""
        return self.column, self.kind

    def z_value(self) -> float:
        return Z_VALUES[self.confidence]

    def validate(self) -> None:
        if not self.column:
            raise StoreError("sketch column must be non-empty")
        if self.column in RESERVED_COLUMNS:
            raise StoreError(
                f"cannot sketch row-identity column {self.column!r} "
                "(key lookups and partition pruning already cover it)"
            )
        if self.kind not in SKETCH_KINDS:
            raise StoreError(
                f"unknown sketch kind {self.kind!r}; "
                f"expected one of {SKETCH_KINDS}"
            )
        if self.width < 8 or self.depth < 1:
            raise StoreError("count-min needs width >= 8 and depth >= 1")
        if self.registers < 16 or \
                self.registers & (self.registers - 1):
            raise StoreError(
                "HLL registers must be a power of two >= 16"
            )
        if self.capacity < 2:
            raise StoreError("reservoir capacity must be >= 2")
        if self.confidence not in Z_VALUES:
            raise StoreError(
                f"unsupported confidence {self.confidence!r}; "
                f"expected one of {sorted(Z_VALUES)}"
            )


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and \
        not isinstance(value, bool)


class _PartitionSketch:
    """One sketch plus its soundness counters for one partition."""

    __slots__ = ("sketch", "absent", "nulls", "unsupported")

    def __init__(self, sketch) -> None:
        self.sketch = sketch
        self.absent = 0       # rows lacking the column entirely
        self.nulls = 0        # NULLs (excluded, not vetoing)
        self.unsupported = 0  # values the sketch cannot encode

    @property
    def answerable(self) -> bool:
        return self.absent == 0 and self.unsupported == 0


class SketchRegistry(DerivedRegistry):
    """All sketches of one backing table (live map or one snapshot)."""

    family = "sketch"

    def __init__(self, partition_count: int,
                 entries_of_partition: Callable[[int], Iterable]) -> None:
        super().__init__(partition_count, entries_of_partition)
        self._families: dict[tuple[str, str], HashFamily] = {}
        self._partitions: dict[tuple[str, str],
                               list[_PartitionSketch]] = {}

    def has(self, column: str, kind: str) -> bool:
        return (column, kind) in self._defs

    # -- DDL ---------------------------------------------------------------

    def add_definition(self, definition: SketchDef) -> SketchDef:
        existing = self.declared(self._defs, definition)
        if existing is not None:
            return existing
        key = definition.slot
        self._ensure_mutable(f"create sketch {definition.name}")
        family = HashFamily(definition.depth, definition.seed)
        states = [
            _PartitionSketch(self._new_sketch(definition, family))
            for _ in range(self.partition_count)
        ]
        for partition in range(self.partition_count):
            state = states[partition]
            for _key, value in self._entries_of(partition):
                self._apply(state, definition, value, insert=True)
                self.maintenance_ops += 1
        self._defs[key] = definition
        self._families[key] = family
        self._partitions[key] = states
        return definition

    def _new_sketch(self, definition: SketchDef, family: HashFamily):
        if definition.kind == "countmin":
            return CountMinSketch(definition.width, definition.depth,
                                  family)
        if definition.kind == "hll":
            return HyperLogLog(definition.registers, definition.seed)
        return ReservoirSample(definition.capacity, definition.seed)

    # -- write-path maintenance --------------------------------------------

    def _apply(self, state: _PartitionSketch, definition: SketchDef,
               value: object, insert: bool) -> None:
        extracted = self._column_of(value, definition.column)
        delta = 1 if insert else -1
        if extracted is MISSING:
            state.absent += delta
            return
        if extracted is None:
            state.nulls += delta
            return
        if definition.kind == "reservoir":
            supported = _is_numeric(extracted)
        else:
            supported = is_sketchable(extracted)
        if not supported:
            state.unsupported += delta
            return
        if insert:
            state.sketch.insert(extracted)
        else:
            state.sketch.remove(extracted)

    def on_put(self, partition: int, key, old: object,
               new: object) -> None:
        self._ensure_mutable(f"put of key {key!r}")
        for def_key, definition in self._defs.items():
            state = self._partitions[def_key][partition]
            if old is not MISSING:
                old_v = self._column_of(old, definition.column)
                new_v = self._column_of(new, definition.column)
                if type(old_v) is type(new_v) and old_v == new_v:
                    continue  # column untouched by this overwrite
                self._apply(state, definition, old, insert=False)
                if definition.kind == "reservoir":
                    # An in-place overwrite reorders the value stream
                    # relative to partition iteration order; only a
                    # rebuild keeps the sample a deterministic function
                    # of the partition contents.
                    state.sketch.dirty = True
            self._apply(state, definition, new, insert=True)
            self.maintenance_ops += 1

    def on_remove(self, partition: int, key, old: object) -> None:
        self._ensure_mutable(f"remove of key {key!r}")
        for def_key, definition in self._defs.items():
            state = self._partitions[def_key][partition]
            self._apply(state, definition, old, insert=False)
            self.maintenance_ops += 1

    def rebuild_partition(self, partition: int) -> None:
        """Re-derive one partition's sketches from its backing entries
        (bulk refresh after rollback recovery or snapshot writes)."""
        self._ensure_mutable(f"rebuild of partition {partition}")
        for def_key, definition in self._defs.items():
            family = self._families[def_key]
            state = _PartitionSketch(
                self._new_sketch(definition, family)
            )
            for _key, value in self._entries_of(partition):
                self._apply(state, definition, value, insert=True)
                self.maintenance_ops += 1
            self._partitions[def_key][partition] = state

    # -- estimation --------------------------------------------------------

    def estimate(self, partitions: Iterable[int], mode: str,
                 column: str,
                 value: object = None
                 ) -> tuple[object, float, float] | None:
        """Merged ``(estimate, error_bound, confidence)`` over
        ``partitions``, or ``None`` when no sound answer exists."""
        kind = MODE_KIND.get(mode)
        if kind is None:
            return None
        definition = self._defs.get((column, kind))
        if definition is None:
            return None
        states = self._partitions[(column, kind)]
        partitions = list(partitions)
        for partition in partitions:
            if not states[partition].answerable:
                return None
        if mode == "count_eq":
            return self._estimate_count_eq(states, partitions,
                                           definition, value)
        if mode == "distinct":
            return self._estimate_distinct(states, partitions,
                                           definition)
        return self._estimate_numeric(states, partitions, definition,
                                      mode)

    def _estimate_count_eq(self, states, partitions, definition,
                           value):
        if value is None or not is_sketchable(value):
            return None
        estimate = 0
        bound = 0.0
        for partition in partitions:
            sketch = states[partition].sketch
            if sketch.total <= 0:
                continue
            estimate += sketch.estimate(value)
            bound += sketch.error_bound()
        confidence = 1.0 - math.exp(-definition.depth)
        return estimate, bound, confidence

    def _estimate_distinct(self, states, partitions, definition):
        merged = [0] * definition.registers
        for partition in partitions:
            sketch = states[partition].sketch
            if sketch.dirty:
                if self.frozen:
                    return None  # frozen registries must stay clean
                sketch.refresh()
            for index, rank in enumerate(sketch.registers):
                if rank > merged[index]:
                    merged[index] = rank
        raw = hll_estimate(merged)
        estimate = int(round(raw))
        bound = definition.z_value() * \
            hll_relative_error(definition.registers) * raw
        return estimate, bound, definition.confidence

    def _estimate_numeric(self, states, partitions, definition, mode):
        total_n = 0
        weighted_sum = 0.0
        variance_term = 0.0  # Var[sum estimate], stratified
        for partition in partitions:
            state = states[partition]
            sketch = state.sketch
            if sketch.dirty:
                if self.frozen:
                    return None
                sketch.rebuild(
                    self._column_values(partition, definition)
                )
            if sketch.n <= 0:
                continue
            k, mean, var = sketch.stats()
            if k == 0:
                return None  # population claims rows the sample lost
            total_n += sketch.n
            weighted_sum += sketch.n * mean
            if k < sketch.n:  # full partitions in-sample are exact
                variance_term += (sketch.n ** 2) * var / k
        z = definition.z_value()
        if total_n == 0:
            # SQL: SUM/AVG over zero rows is NULL, exactly.
            return None, 0.0, definition.confidence
        sum_bound = z * math.sqrt(variance_term)
        if mode == "sum":
            return weighted_sum, sum_bound, definition.confidence
        return (weighted_sum / total_n, sum_bound / total_n,
                definition.confidence)

    def _column_values(self, partition: int,
                       definition: SketchDef) -> Iterable[float]:
        for _key, value in self._entries_of(partition):
            extracted = self._column_of(value, definition.column)
            if extracted is MISSING or extracted is None:
                continue
            if _is_numeric(extracted):
                yield extracted

    # -- verification ------------------------------------------------------

    def coherence_errors(self) -> list[str]:
        """Cross-check every sketch against its backing partition.

        All comparisons are order-independent (counter arrays,
        multiplicity maps, membership), so they hold regardless of the
        mutation interleaving that produced the state."""
        errors: list[str] = []
        for def_key in sorted(self._defs):
            definition = self._defs[def_key]
            family = self._families[def_key]
            states = self._partitions[def_key]
            for partition in range(self.partition_count):
                expected = _PartitionSketch(
                    self._new_sketch(definition, family)
                )
                for _key, value in self._entries_of(partition):
                    self._apply(expected, definition, value,
                                insert=True)
                state = states[partition]
                where = f"sketch {definition.name} partition {partition}"
                for counter in ("absent", "nulls", "unsupported"):
                    got = getattr(state, counter)
                    want = getattr(expected, counter)
                    if got != want:
                        errors.append(
                            f"{where}: {counter} counter {got} != "
                            f"expected {want}"
                        )
                errors.extend(self._sketch_mismatches(
                    where, definition, state.sketch, expected.sketch
                ))
        return errors

    def _sketch_mismatches(self, where, definition, got,
                           expected) -> list[str]:
        errors: list[str] = []
        if definition.kind == "countmin":
            if got.total != expected.total:
                errors.append(
                    f"{where}: total {got.total} != "
                    f"expected {expected.total}"
                )
            if got.rows != expected.rows:
                errors.append(f"{where}: counter arrays diverged")
        elif definition.kind == "hll":
            if got.counts() != expected.counts():
                errors.append(
                    f"{where}: multiplicity map diverged from "
                    "backing partition"
                )
        else:  # reservoir
            if got.n != expected.n:
                errors.append(
                    f"{where}: population size {got.n} != "
                    f"expected {expected.n}"
                )
            if not got.dirty and got.sample != expected.sample:
                # A clean sketch never saw a removal, so its stream was
                # the partition's insertion order — which is also the
                # dict iteration order the expected rebuild consumed.
                # Same seed, same stream: the samples must be equal.
                errors.append(
                    f"{where}: sample diverged from deterministic "
                    "rebuild"
                )
        return errors
