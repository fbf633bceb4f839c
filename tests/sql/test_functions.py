"""Tests for aggregate accumulators and scalar functions."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SqlExecutionError
from repro.sql.functions import (
    SCALAR_FUNCTIONS,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
    make_aggregate,
)

from ..conftest import aggregate_state


def test_count_star_counts_nulls():
    acc = CountAggregate(count_star=True, distinct=False)
    for value in (1, None, 2):
        acc.add(value)
    assert acc.result() == 3


def test_count_column_skips_nulls():
    acc = CountAggregate(count_star=False, distinct=False)
    for value in (1, None, 2):
        acc.add(value)
    assert acc.result() == 2


def test_count_distinct():
    acc = CountAggregate(count_star=False, distinct=True)
    for value in (1, 1, 2, None, 2):
        acc.add(value)
    assert acc.result() == 2


def test_sum_ignores_nulls_and_empty_is_null():
    acc = SumAggregate(distinct=False)
    assert acc.result() is None
    for value in (1, None, 2.5):
        acc.add(value)
    assert acc.result() == 3.5


def test_sum_distinct():
    acc = SumAggregate(distinct=True)
    for value in (2, 2, 3):
        acc.add(value)
    assert acc.result() == 5


def test_avg():
    acc = AvgAggregate(distinct=False)
    assert acc.result() is None
    for value in (2, 4, None):
        acc.add(value)
    assert acc.result() == 3.0


def test_min_max():
    lo, hi = MinAggregate(), MaxAggregate()
    for value in (5, None, 2, 9):
        lo.add(value)
        hi.add(value)
    assert lo.result() == 2
    assert hi.result() == 9


def test_min_max_strings():
    lo = MinAggregate()
    for value in ("pear", "apple"):
        lo.add(value)
    assert lo.result() == "apple"


def test_make_aggregate_dispatch():
    assert isinstance(make_aggregate("COUNT", True, False), CountAggregate)
    assert isinstance(make_aggregate("SUM", False, False), SumAggregate)
    assert isinstance(make_aggregate("AVG", False, False), AvgAggregate)
    assert isinstance(make_aggregate("MIN", False, False), MinAggregate)
    assert isinstance(make_aggregate("MAX", False, False), MaxAggregate)
    with pytest.raises(SqlExecutionError):
        make_aggregate("MEDIAN", False, False)


@pytest.mark.parametrize("name, args, expected", [
    ("UPPER", ["abc"], "ABC"),
    ("LOWER", ["AbC"], "abc"),
    ("LENGTH", ["hello"], 5),
    ("ABS", [-3], 3),
    ("ROUND", [2.567, 1], 2.6),
    ("FLOOR", [2.9], 2),
    ("CEIL", [2.1], 3),
    ("COALESCE", [None, None, 7], 7),
    ("COALESCE", [None], None),
    ("NULLIF", [3, 3], None),
    ("NULLIF", [3, 4], 3),
    ("SQRT", [16], 4.0),
])
def test_scalar_functions(name, args, expected):
    assert SCALAR_FUNCTIONS[name](args) == expected


@pytest.mark.parametrize("name", ["UPPER", "LOWER", "LENGTH", "ABS",
                                  "FLOOR", "CEIL", "SQRT"])
def test_scalar_functions_null_propagation(name):
    assert SCALAR_FUNCTIONS[name]([None]) is None


def test_scalar_function_arity_checked():
    with pytest.raises(SqlExecutionError):
        SCALAR_FUNCTIONS["UPPER"](["a", "b"])
    with pytest.raises(SqlExecutionError):
        SCALAR_FUNCTIONS["NULLIF"]([1])


# -- the family's algebra -----------------------------------------------------

#: Ints, bools, floats whose sums round (0.1, 1e16), a signed zero, the
#: infinities and NaN: values whose one-by-one sums depend on the order.
VALUES = st.lists(
    st.integers(-3, 3) | st.booleans() | st.none()
    | st.sampled_from([0.1, -0.1, 1e16, -1e16, 1.0, 2.5, -0.0, 0.0,
                       math.inf, -math.inf, math.nan]),
    max_size=150,
)
#: (name, COUNT(*), DISTINCT) of every state the family makes.
CALLS = [("COUNT", True, False), ("COUNT", False, False),
         ("COUNT", False, True), ("SUM", False, False),
         ("SUM", False, True), ("AVG", False, False), ("AVG", False, True),
         ("MIN", False, False), ("MAX", False, False)]


def bits(value):
    """``value`` to the bit: its type, and a float's hex and sign (so
    ``-0.0`` is not ``0.0``, ``True`` is not ``1``, a NaN is a NaN)."""
    if isinstance(value, float):
        return float, value.hex(), math.copysign(1.0, value)
    return type(value), value


def answer(state):
    try:
        return bits(state.result())
    except SqlExecutionError as error:
        return str(error)


def added(call, values):
    state = make_aggregate(*call)
    for value in values:
        state.add(value)
    return state


@settings(max_examples=300, deadline=None)
@given(VALUES, st.lists(st.integers(0, 150), max_size=6),
       st.lists(st.booleans(), min_size=7, max_size=7))
def test_a_split_folded_and_merged_is_the_adds(values, cuts, folds):
    cuts = sorted({min(cut, len(values)) for cut in cuts})
    slices = [values[start:end]
              for start, end in zip([0, *cuts], [*cuts, len(values)])]
    for call in CALLS:
        expected = added(call, values)
        merged = make_aggregate(*call)
        for part, fold in zip(slices, folds):
            state = make_aggregate(*call)
            update = state.fold(part) if fold else None
            if update is None:
                for value in part:
                    state.add(value)
            else:
                update()
            merged.merge(state)
        assert aggregate_state(merged) == aggregate_state(expected), call
        assert answer(merged) == answer(expected), call


def same_held(one, other):
    """Whether a MIN / MAX state holds ``one`` and ``other`` as one key:
    one type, and ``=`` (a NaN is the NaN)."""
    return type(one) is type(other) and (
        one == other or one != one and other != other)


@settings(max_examples=300, deadline=None)
@given(VALUES, st.data())
def test_adds_then_retractions_are_the_adds_of_what_remains(values, data):
    taken = data.draw(st.lists(st.sampled_from(range(len(values))),
                               unique=True) if values else st.just([]))
    # A retraction takes back one copy of a value; copies are told
    # apart by position only, and a state keeps a value where its first
    # copy came, so what remains is each value's earliest copies.
    remaining = list(values)
    for index in taken:
        last = max(position for position, value in enumerate(remaining)
                   if same_held(value, values[index]))
        del remaining[last]
    for call in CALLS:
        if call[2]:
            continue  # DISTINCT states do not retract
        state = added(call, values)
        for index in taken:
            state.retract(values[index])
        expected = added(call, remaining)
        assert aggregate_state(state) == aggregate_state(expected), call
        assert answer(state) == answer(expected), call


def test_float_sums_are_exact_and_rounded_once():
    total = SumAggregate()
    for value in (1e16, 1.0, 1.0):
        total.add(value)
    assert total.result() == 1e16 + 2.0
    total.retract(1e16)
    assert bits(total.result()) == bits(2.0)
    total.retract(1.0)
    total.retract(1.0)
    assert total.result() is None
    for value in (0.1, 0.1, 1):
        total.add(value)
    assert total.result() == 1.2
    assert bits(added(("SUM", False, False), [-0.0]).result()) == bits(0.0)
    assert added(("SUM", False, False), [3, True]).result() == 4
    assert type(added(("AVG", False, False), [2, 2]).result()) is float


def test_special_floats_are_counted_and_retract():
    total = added(("SUM", False, False), [math.inf, 1.0, -math.inf])
    assert math.isnan(total.result())
    total.retract(-math.inf)
    assert total.result() == math.inf
    total.retract(math.inf)
    assert total.result() == 1.0
    beyond = added(("SUM", False, False), [1e308, 1e308])
    assert beyond.result() == math.inf
    beyond.add(-1e308)
    assert beyond.result() == 1e308
    assert added(("SUM", False, False),
                 [10 ** 400, 0.5, -10 ** 400]).result() == 0.5


def test_an_average_beyond_the_float_range_is_an_infinity():
    # As for a sum: an exact int total over the count, rounded once, is
    # the infinity of its sign when it leaves the float range.
    assert added(("AVG", False, False), [10 ** 400]).result() == math.inf
    assert added(("AVG", False, False),
                 [-10 ** 400, 1]).result() == -math.inf
    assert added(("AVG", False, False),
                 [10 ** 400, 1.0]).result() == math.inf
    assert added(("AVG", False, True), [10 ** 400]).result() == math.inf
    assert added(("AVG", False, False),
                 [10 ** 400, 3 - 10 ** 400]).result() == 1.5


def test_extremes_rank_nan_above_every_number():
    values = [2.5, math.nan, -1, True]
    assert added(("MIN", False, False), values).result() == -1
    assert math.isnan(added(("MAX", False, False), values).result())
    assert math.isnan(added(("MIN", False, False), [math.nan]).result())


@pytest.mark.parametrize("name", ["MIN", "MAX"])
def test_extremes_over_types_that_do_not_order_name_them_sorted(name):
    for values in (["x", 1], [1, "x"], [[1], 2.5, "x"]):
        state = added((name, False, False), values)
        with pytest.raises(SqlExecutionError) as error:
            state.result()
        assert str(error.value) == (
            "cannot compare float with list" if len(values) == 3
            else "cannot compare int with str")
    # A type retracted is a type no longer held.
    state = added((name, False, False), [1, "x", 2])
    state.retract("x")
    assert state.result() == (1 if name == "MIN" else 2)
