"""Scalar functions and the aggregate family.

The aggregate contract
----------------------

One class per aggregate holds a group's state on every path (a shard's
partial group, the entry node's merge, the central executor's group, a
standing query's group): ``add`` takes a value, ``retract`` takes one
back, ``fold`` takes a list, ``merge`` takes another state's values and
``result`` answers.  Every state is exact: its result depends only on
the values it holds, never on their order, chunking, shard split or
what was retracted, so every path gives one answer.

* NULL is skipped by every aggregate but ``COUNT(*)``; over no other
  value ``COUNT`` is 0 and the rest are NULL.
* ``SUM`` / ``AVG`` take ints, floats and bools (a bool adds as its
  int); any other value raises ``cannot apply SUM to <type>`` at its
  row.  Ints add exactly: ``SUM`` over ints is their int total, ``AVG``
  that total over the count, rounded once (``±inf`` beyond the float
  range, as for a sum below).
* Floats are held exactly too, as addends (compacted past a length into
  a few non-overlapping floats by ``math.fsum`` passes).  A ``SUM``
  holding a float is the exact sum of all it holds, ints included,
  rounded once to the nearest float; ``AVG`` is that float over the
  count.  An exactly zero float sum is ``0.0``, never ``-0.0``: it
  starts from ``+0.0``, as PostgreSQL's does.
* NaN and the infinities are counted, not added: a sum holding a NaN,
  or both infinities, is NaN, else one holding an infinity is it.  A
  finite exact sum beyond the float range is ``±inf``, as IEEE rounding
  makes it, whatever its intermediate sums (``math.fsum`` raises on an
  intermediate overflow; the sum is then taken with fractions).
* ``MIN`` / ``MAX`` compare as ORDER BY does: NaN ranks above every
  number, and of tied values the first held is the answer.  A state
  holding two types that do not order raises ``cannot compare <type>
  with <type>`` (:func:`~repro.sql.executor.incomparable`, the names
  sorted) when its result is read, after every row is grouped, so
  neither the split nor the order of the adds decides the error.
* A ``DISTINCT`` state keeps the first value of each equality key
  (:func:`hashable_key`) and cannot retract.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, compress, filterfalse, repeat
from operator import is_, is_not
from types import NoneType
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


def _first_sight(seen: dict, value: object) -> None:
    """Record ``value`` in a DISTINCT aggregate's ``seen`` (equality key
    -> first value) unless a value of its key is there."""
    seen.setdefault(hashable_key(value), value)


def _union(seen: dict, other: dict | None) -> None:
    """Merge another partial's distinct values into ``seen``; a key both
    hold keeps the value seen first."""
    for key, value in (other or {}).items():
        seen.setdefault(key, value)


class Aggregate:
    """One aggregate call's state over one group: ``add``, ``retract``,
    ``fold``, ``merge`` and ``result`` as the module docstring has
    them."""

    def fold(self, values: list) -> "Callable[[], None] | None":
        """What ``add`` over ``values`` does, computed now and applied
        when the returned function is called — or ``None`` when an add
        would raise (the caller adds row by row, so the error and its
        row are the adds').  Computing it changes nothing, so a caller
        can fold several states all or nothing."""
        raise NotImplementedError

    def _no_retract(self) -> SqlExecutionError:
        return SqlExecutionError(
            f"cannot retract from {self.name}(DISTINCT ...)")


class CountAggregate(Aggregate):
    name = "COUNT"

    def __init__(self, count_star: bool = False,
                 distinct: bool = False) -> None:
        self._count_star = count_star
        self._seen: dict | None = {} if distinct else None
        self._count = 0

    def add(self, value: object) -> None:
        if value is not None or self._count_star:
            if self._seen is None:
                self._count += 1
            else:
                _first_sight(self._seen, value)

    def retract(self, value: object) -> None:
        if self._seen is not None:
            raise self._no_retract()
        if value is not None or self._count_star:
            self._count -= 1

    def fold(self, values: list) -> "Callable[[], None] | None":
        if self._seen is not None:
            return None
        count = (len(values) if self._count_star
                 else sum(map(is_not, values, repeat(None))))
        return partial(setattr, self, "_count", self._count + count)

    def merge(self, other: "CountAggregate") -> None:
        if self._seen is None:
            self._count += other._count
        else:
            _union(self._seen, other._seen)

    def result(self) -> object:
        return self._count if self._seen is None else len(self._seen)


#: The value types SUM and AVG take.
_ADDENDS = frozenset({int, float, bool})
#: Float addends a state holds before it compacts them: on an add or a
#: retract (a standing query reads the result after every change), and
#: on a fold or a merge (a scan reads it once, at the end).
_ADDED, _FOLDED = 64, 4096


def addend(name: str, value: object) -> int | float:
    """``value`` as SUM / AVG (``name``) adds it: a float as a float,
    an int or a bool as an int.  Any other type is a typed error naming
    only that type, so the text does not depend on what is held."""
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    raise SqlExecutionError(f"cannot apply {name} to {type(value).__name__}")


def _expansion(addends: list) -> list:
    """Non-overlapping floats, largest first, whose exact sum is that of
    the finite ``addends``: each a ``math.fsum`` pass over the addends
    less the parts before it, until that sum is zero.  ``ValueError``
    when a NaN or an infinity is among them, ``OverflowError`` when an
    intermediate sum overflows."""
    rest = list(addends)
    parts = [math.fsum(rest)]
    if not math.isfinite(parts[0]):
        raise ValueError("a NaN or an infinity among the addends")
    while parts[-1]:
        rest.append(-parts[-1])
        parts.append(math.fsum(rest))
    return parts[:-1]


class SumAggregate(Aggregate):
    """SUM's state, and AVG's: the exact total of the numbers held."""

    name = "SUM"

    def __init__(self, distinct: bool = False) -> None:
        self._seen: dict | None = {} if distinct else None
        #: numbers held, floats held (NaN and infinities included), and
        #: the exact total of the ints and bools held
        self._count = self._floats_held = self._int = 0
        #: addends whose exact sum is that of the finite floats held (a
        #: fold's NaN or infinity among them until the next compaction)
        self._floats: list = []
        #: NaN, inf and -inf held, by repr, less those still addends
        self._specials: Counter = Counter()

    def add(self, value: object) -> None:
        if value is not None:
            if type(value) not in _ADDENDS:
                value = addend(self.name, value)
            if self._seen is None:
                self._hold(value, 1)
            else:
                _first_sight(self._seen, value)

    def retract(self, value: object) -> None:
        if self._seen is not None:
            raise self._no_retract()
        if value is not None:
            self._hold(value if type(value) in _ADDENDS
                       else addend(self.name, value), -1)

    def _hold(self, number: "int | float", sign: int) -> None:
        self._count += sign
        if type(number) is not float:
            self._int += sign * number
            return
        self._floats_held += sign
        if not math.isfinite(number):
            self._specials[repr(number)] += sign
            return
        self._floats.append(sign * number)
        if len(self._floats) > _ADDED:
            self._compact()

    def fold(self, values: list) -> "Callable[[], None] | None":
        kinds = set(map(type, values))
        if self._seen is not None or not kinds - {NoneType} <= _ADDENDS:
            return None
        if NoneType in kinds:
            kinds.discard(NoneType)
            values = list(filter(partial(is_not, None), values))
        if float not in kinds:
            return partial(self._absorb, len(values), sum(values), ())
        if kinds == {float}:
            return partial(self._absorb, len(values), 0, values)
        mask = list(map(is_, map(type, values), repeat(float)))
        return partial(self._absorb, len(values),
                       sum(compress(values, map(is_not, mask,
                                                repeat(True)))),
                       list(compress(values, mask)))

    def _absorb(self, count: int, total: int, floats: list) -> None:
        self._count += count
        self._int += total
        self._floats_held += len(floats)
        self._floats += floats
        if len(self._floats) > _FOLDED:
            self._compact()

    def merge(self, other: "SumAggregate") -> None:
        if self._seen is not None:
            _union(self._seen, other._seen)
            return
        self._specials.update(other._specials)
        self._absorb(other._count, other._int, other._floats)
        self._floats_held += other._floats_held - len(other._floats)

    def _compact(self) -> None:
        """The addends as their expansion; as they are when an
        intermediate sum overflows (the result sums them exactly)."""
        try:
            self._floats = _expansion(self._floats)
        except ValueError:
            self._split()
            self._compact()
        except OverflowError:
            pass

    def _split(self) -> None:
        """Count the NaN and infinities among the addends apart."""
        floats = self._floats
        self._specials.update(map(repr, filterfalse(math.isfinite, floats)))
        self._floats = list(filter(math.isfinite, floats))

    def result(self) -> object:
        if self._seen is not None:
            plain = SumAggregate()
            plain.fold(list(self._seen.values()))()
            return plain.result()
        if not self._floats_held:
            return self._int if self._count else None
        if not self._int and not any(self._specials.values()):
            try:
                total = math.fsum(self._floats)
                if math.isfinite(total):
                    return total
            except (ValueError, OverflowError):
                pass
        self._split()
        self._compact()
        nans, high, low = map(self._specials.get, ("nan", "inf", "-inf"))
        if nans or high and low:
            return math.nan
        if high or low:
            return math.inf if high else -math.inf
        exact = sum(map(Fraction, self._floats), Fraction(self._int))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


class AvgAggregate(SumAggregate):
    name = "AVG"

    def result(self) -> object:
        total = super().result()
        if total is None:
            return None
        try:
            return total / (self._count if self._seen is None
                            else len(self._seen))
        except OverflowError:  # an int quotient beyond the float range
            return math.inf if total > 0 else -math.inf


class _Boxed:
    """An unhashable value a MIN / MAX state holds, one key per object
    (a retraction takes back the object that was added)."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __hash__(self) -> int:
        return id(self.value)

    def __eq__(self, other: object) -> bool:
        return type(other) is _Boxed and other.value is self.value


def _held_key(value: object) -> tuple:
    """``(type, value)``, the key a MIN / MAX state holds ``value``
    under: values of two types are never one key."""
    try:
        hash(value)
    except TypeError:
        return type(value), _Boxed(value)
    return type(value), value


class _Extremum(Aggregate):
    """MIN's and MAX's state: each value held with its copies, in
    first-held order, so a retracted extremum falls back to the next."""

    pick: Callable = min

    def __init__(self) -> None:
        #: :func:`_held_key` -> copies (the key is the first value held)
        self._held: Counter = Counter()
        #: folded slices not yet counted, as ``(type, value)`` lists: a
        #: fold costs no Python frame per value nor per call
        self._pending: list[list] = []

    def _count_pending(self) -> Counter:
        if self._pending:
            pending = list(chain.from_iterable(self._pending))
            self._pending = []
            try:
                counts = Counter(pending)
            except TypeError:  # an unhashable value among them
                counts = Counter(_held_key(value) for _kind, value in pending)
            counts.pop((NoneType, None), None)
            self._held.update(counts)
        return self._held

    def add(self, value: object) -> None:
        if value is not None:
            self._count_pending()[_held_key(value)] += 1

    def retract(self, value: object) -> None:
        if value is not None:
            held, key = self._count_pending(), _held_key(value)
            held[key] -= 1
            if held[key] <= 0:
                del held[key]

    def fold(self, values: list) -> "Callable[[], None] | None":
        return partial(self._pending.append,
                       list(zip(map(type, values), values)))

    def merge(self, other: "_Extremum") -> None:
        self._count_pending().update(other._count_pending())

    def _values(self) -> list:
        return [value.value if type(value) is _Boxed else value
                for _kind, value in self._count_pending()]

    def result(self) -> object:
        from .executor import incomparable  # ORDER BY's rule; it imports us

        values = self._values()
        error = incomparable([values])
        if error is not None:
            raise error
        # NaN ranks above every number.
        numbers = [value for value in values
                   if value == value or type(value) is not float]
        if len(numbers) < len(values) and (self.pick is max or not numbers):
            return next(value for value in values if value != value)
        try:
            return self.pick(numbers, default=None)
        except TypeError:
            raise (incomparable([values], mixed=False) or SqlExecutionError(
                f"cannot compare {self.name} values")) from None


class MinAggregate(_Extremum):
    name = "MIN"
    pick = min


class MaxAggregate(_Extremum):
    name = "MAX"
    pick = max


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
