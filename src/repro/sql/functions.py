"""Scalar functions and aggregate accumulators."""

from __future__ import annotations

import math
from typing import Callable

from ..errors import SqlExecutionError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SqlExecutionError(message)


def _numeric(name: str, fn: Callable[..., object], value: object,
             *extra: object) -> object:
    """``fn(value, *extra)`` over a number: NULL stays NULL, any other
    type is a typed error naming the function and the type it met, a
    number outside the function's domain one naming the number."""
    if value is None:
        return None
    try:
        return fn(value, *extra)
    except TypeError:
        raise SqlExecutionError(
            f"cannot apply {name} to {type(value).__name__}"
        ) from None
    except (ValueError, OverflowError):  # SQRT(-1), FLOOR(NaN / inf)
        raise SqlExecutionError(
            f"cannot apply {name} to {value!r}"
        ) from None


def _scalar_upper(args: list[object]) -> object:
    _require(len(args) == 1, "UPPER takes one argument")
    value = args[0]
    return None if value is None else str(value).upper()


def _scalar_lower(args: list[object]) -> object:
    _require(len(args) == 1, "LOWER takes one argument")
    value = args[0]
    return None if value is None else str(value).lower()


def _scalar_length(args: list[object]) -> object:
    _require(len(args) == 1, "LENGTH takes one argument")
    value = args[0]
    return None if value is None else len(str(value))


def _scalar_abs(args: list[object]) -> object:
    _require(len(args) == 1, "ABS takes one argument")
    return _numeric("ABS", abs, args[0])


def _scalar_round(args: list[object]) -> object:
    _require(len(args) in (1, 2), "ROUND takes one or two arguments")
    digits = args[1] if len(args) == 2 else 0
    if digits is None:
        return None
    try:
        digits = int(digits)
    except (TypeError, ValueError, OverflowError):
        raise SqlExecutionError(
            f"cannot apply ROUND to digits {digits!r}"
        ) from None
    return _numeric("ROUND", round, args[0], digits)


def _scalar_floor(args: list[object]) -> object:
    _require(len(args) == 1, "FLOOR takes one argument")
    return _numeric("FLOOR", math.floor, args[0])


def _scalar_ceil(args: list[object]) -> object:
    _require(len(args) == 1, "CEIL takes one argument")
    return _numeric("CEIL", math.ceil, args[0])


def _scalar_coalesce(args: list[object]) -> object:
    for value in args:
        if value is not None:
            return value
    return None


def _scalar_nullif(args: list[object]) -> object:
    _require(len(args) == 2, "NULLIF takes two arguments")
    return None if args[0] == args[1] else args[0]


def _scalar_sqrt(args: list[object]) -> object:
    _require(len(args) == 1, "SQRT takes one argument")
    return _numeric("SQRT", math.sqrt, args[0])


SCALAR_FUNCTIONS: dict[str, Callable[[list[object]], object]] = {
    "UPPER": _scalar_upper,
    "LOWER": _scalar_lower,
    "LENGTH": _scalar_length,
    "ABS": _scalar_abs,
    "ROUND": _scalar_round,
    "FLOOR": _scalar_floor,
    "CEIL": _scalar_ceil,
    "COALESCE": _scalar_coalesce,
    "NULLIF": _scalar_nullif,
    "SQRT": _scalar_sqrt,
}


def mixed_types(name: str, held: object, value: object) -> SqlExecutionError:
    """The typed error of an accumulator whose held state and next
    value do not combine (``SUM`` over an int and a string)."""
    return SqlExecutionError(
        f"cannot apply {name} to {type(held).__name__} and "
        f"{type(value).__name__}"
    )


def hashable_key(value: object, use: str = "compare") -> object:
    """The equality key of GROUP BY, DISTINCT, UNION, DISTINCT aggregates
    and (NaN and NULL aside) hash joins: a hashable stand-in equal to
    another's exactly when SQL ``=`` holds between the values — save that
    a NaN equals itself.  A hashable value is its own key; a list, tuple
    or dict is its elements' keys tagged with its type (so ``[1]``
    equals ``[1.0]`` but neither ``(1,)`` nor ``'[1]'``, and a dict's
    item order does not matter), a set its frozenset.  Any other value
    raises ``cannot <use> <type> values``."""
    try:
        hash(value)
        return value
    except TypeError:
        pass
    if isinstance(value, (list, tuple)):
        kind = list if isinstance(value, list) else tuple
        return kind, tuple(hashable_key(item, use) for item in value)
    if isinstance(value, dict):
        return dict, frozenset(
            (key, hashable_key(item, use)) for key, item in value.items()
        )
    if isinstance(value, set):
        return frozenset(value)
    raise SqlExecutionError(
        f"cannot {use} {type(value).__name__} values"
    )


def _first_sight(seen: dict, value: object) -> bool:
    """Record ``value`` in a DISTINCT aggregate's ``seen`` (equality key
    -> first value); whether it is new."""
    key = hashable_key(value)
    if key in seen:
        return False
    seen[key] = value
    return True


def _union(seen: dict, other: dict | None) -> None:
    """Merge another partial's distinct values into ``seen``; a key both
    hold keeps the value seen first."""
    for key, value in (other or {}).items():
        seen.setdefault(key, value)


class Aggregate:
    """Base incremental aggregate accumulator.

    ``add`` receives the evaluated argument for one input row (``None``
    is ignored per SQL semantics, except for ``COUNT(*)``).
    """

    def add(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError

    def merge(self, other: "Aggregate") -> None:
        """Fold another partial accumulator of the same shape into this
        one.  Merging is commutative and associative, so scan-side
        partials can combine in any arrival order; merging a fresh
        (empty) accumulator is the identity."""
        raise NotImplementedError


class CountAggregate(Aggregate):
    def __init__(self, count_star: bool, distinct: bool) -> None:
        self._count_star = count_star
        self._distinct = distinct
        self._count = 0
        self._seen: dict | None = {} if distinct else None

    def add(self, value: object) -> None:
        if not self._count_star and value is None:
            return
        if self._seen is not None and not _first_sight(self._seen, value):
            return
        self._count += 1

    def result(self) -> object:
        return self._count

    def merge(self, other: "CountAggregate") -> None:
        if self._seen is not None:
            _union(self._seen, other._seen)
            self._count = len(self._seen)
        else:
            self._count += other._count


class SumAggregate(Aggregate):
    def __init__(self, distinct: bool) -> None:
        self._total: float | int | None = None
        self._seen: dict | None = {} if distinct else None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self._seen is not None and not _first_sight(self._seen, value):
            return
        try:
            self._total = (
                value if self._total is None else self._total + value
            )
        except TypeError:
            raise mixed_types("SUM", self._total, value) from None

    def result(self) -> object:
        return self._total

    def merge(self, other: "SumAggregate") -> None:
        if self._seen is not None:
            _union(self._seen, other._seen)
            self._total = None
            for value in self._seen.values():
                self._total = (
                    value if self._total is None else self._total + value
                )
        else:
            self.add(other._total)


class AvgAggregate(Aggregate):
    def __init__(self, distinct: bool) -> None:
        self._total = 0.0
        self._count = 0
        self._seen: dict | None = {} if distinct else None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self._seen is not None and not _first_sight(self._seen, value):
            return
        try:
            self._total += value
        except TypeError:
            raise mixed_types("AVG", self._total, value) from None
        self._count += 1

    def result(self) -> object:
        if self._count == 0:
            return None
        return self._total / self._count

    def merge(self, other: "AvgAggregate") -> None:
        if self._seen is not None:
            _union(self._seen, other._seen)
            self._total = float(sum(self._seen.values()))
            self._count = len(self._seen)
        else:
            self._total += other._total
            self._count += other._count


class MinAggregate(Aggregate):
    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        try:
            if self._best is None or value < self._best:
                self._best = value
        except TypeError:
            raise mixed_types("MIN", self._best, value) from None

    def result(self) -> object:
        return self._best

    def merge(self, other: "MinAggregate") -> None:
        self.add(other._best)


class MaxAggregate(Aggregate):
    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        try:
            if self._best is None or value > self._best:
                self._best = value
        except TypeError:
            raise mixed_types("MAX", self._best, value) from None

    def result(self) -> object:
        return self._best

    def merge(self, other: "MaxAggregate") -> None:
        self.add(other._best)


def make_aggregate(name: str, count_star: bool, distinct: bool) -> Aggregate:
    """Instantiate the accumulator for an aggregate function name."""
    if name == "COUNT":
        return CountAggregate(count_star, distinct)
    if name == "SUM":
        return SumAggregate(distinct)
    if name == "AVG":
        return AvgAggregate(distinct)
    if name == "MIN":
        return MinAggregate()
    if name == "MAX":
        return MaxAggregate()
    raise SqlExecutionError(f"unknown aggregate {name}")
