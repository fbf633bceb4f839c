"""Differential test of the expression evaluator against stdlib sqlite3.

Hypothesis generates expression trees (as SQL text, fully
parenthesised) in the dialect both engines share, over one row of int /
text / NULL columns.  Each expression is parsed and evaluated by
``compile_expr`` in both column-resolution modes — raw row and bound
row — and by sqlite (``SELECT <expr> FROM t``); all three must agree.
sqlite shares no code with ``compile_expr``, so this is an oracle, not
a self-comparison.  It is the first slice of the ROADMAP's independent
oracle: expressions only, no statements.

Where the two engines legitimately differ, the generator leaves the
construct out; every such exclusion is an entry in ``DIALECT_SKIPS``.
"""

import sqlite3

from hypothesis import given, settings, strategies as st

from repro.sql import EvalContext, parse
from repro.sql.compiled import compile_expr
from repro.sql.executor import bind_row

#: Constructs the generator leaves out, and why the engines disagree on
#: them.  Remove an entry and the generator produces the construct.
DIALECT_SKIPS = {
    "integer-division":
        "`/` and `%`: sqlite truncates (7 / 2 = 3) and yields NULL on a "
        "zero divisor; we divide true (3.5) and raise 'division by zero'",
    "cross-type-operands":
        "comparison, IN and BETWEEN across int and text: sqlite orders by "
        "storage class (every int < every text); we raise 'cannot compare'",
    "non-ascii-text":
        "UPPER outside ASCII: sqlite's built-in folds ASCII only ('é' "
        "stays 'é'); str.upper folds Unicode ('É', and 'ß' becomes 'SS')",
}

ALPHABET = "abB" if "non-ascii-text" in DIALECT_SKIPS else "abBéß"
TEXT = st.text(alphabet=ALPHABET, max_size=3)
PATTERN = st.text(alphabet=ALPHABET + "%_", max_size=4)
INTS = st.integers(min_value=-9, max_value=9)

ROWS = st.fixed_dictionaries({
    "a": st.none() | INTS,
    "b": st.none() | INTS,
    "s": st.none() | TEXT,
    "u": st.none() | TEXT,
})

COLUMNS = {"int": ("a", "b"), "text": ("s", "u")}
LITERALS = {
    "int": INTS.map(lambda n: f"({n})"),
    "text": TEXT.map(lambda text: f"'{text}'"),
}
COMPARE = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
NEGATED = st.sampled_from(["", "NOT "])
ARITHMETIC = ["+", "-", "*"]
if "integer-division" not in DIALECT_SKIPS:
    ARITHMETIC += ["/", "%"]


@st.composite
def expression(draw, kind: str, depth: int = 3) -> str:
    """SQL text of a fully parenthesised expression of ``kind``
    (``"int"``, ``"text"`` or ``"bool"``), at most ``depth`` deep."""

    def sub(kind: str) -> str:
        return draw(expression(kind, depth - 1))

    def operand_kind() -> str:
        return draw(st.sampled_from(["int", "text"]))

    if kind != "bool" and (depth == 0 or draw(st.booleans())):
        leaf = draw(st.sampled_from(["column", "literal", "null"]))
        if leaf == "column":
            # Both spellings: the qualified one exercises raw-row
            # resolution of a binding-qualified reference.
            name = draw(st.sampled_from(COLUMNS[kind]))
            return draw(st.sampled_from([name, f"t.{name}"]))
        return "NULL" if leaf == "null" else draw(LITERALS[kind])

    if kind == "bool":
        forms = ["compare", "in", "between", "like", "is-null"]
        if depth > 0:
            forms += ["and", "or", "not", "bool-is-null"]
        form = draw(st.sampled_from(forms))
        of = operand_kind()
        other = of
        if "cross-type-operands" not in DIALECT_SKIPS:
            other = operand_kind()
        nested = max(depth - 1, 0)
        operand = draw(expression(of, nested))
        if form == "compare":
            return (f"({operand} {draw(COMPARE)} "
                    f"{draw(expression(other, nested))})")
        if form == "in":
            items = draw(st.lists(expression(other, nested),
                                  min_size=1, max_size=3))
            return f"({operand} {draw(NEGATED)}IN ({', '.join(items)}))"
        if form == "between":
            bound = expression(other, nested)
            return (f"({operand} {draw(NEGATED)}BETWEEN {draw(bound)} "
                    f"AND {draw(bound)})")
        if form == "like":
            pattern = draw(
                PATTERN.map(lambda text: f"'{text}'")
                | expression("text", nested)
            )
            return f"({operand} {draw(NEGATED)}LIKE {pattern})"
        if form == "is-null":
            return f"({operand} IS {draw(NEGATED)}NULL)"
        if form == "bool-is-null":
            return f"({sub('bool')} IS {draw(NEGATED)}NULL)"
        if form == "not":
            return f"(NOT {sub('bool')})"
        return f"({sub('bool')} {form.upper()} {sub('bool')})"

    forms = ["coalesce", "case", "case-else"]
    if kind == "int":
        forms += ["arithmetic", "minus", "abs", "length"]
    else:
        forms += ["upper"]
    form = draw(st.sampled_from(forms))
    if form == "arithmetic":
        return (f"({sub('int')} {draw(st.sampled_from(ARITHMETIC))} "
                f"{sub('int')})")
    if form == "minus":
        return f"(-{sub('int')})"
    if form == "abs":
        return f"ABS({sub('int')})"
    if form == "length":
        return f"LENGTH({sub('text')})"
    if form == "upper":
        return f"UPPER({sub('text')})"
    if form == "coalesce":
        return f"COALESCE({sub(kind)}, {sub(kind)})"
    text = f"CASE WHEN {sub('bool')} THEN {sub(kind)}"
    if draw(st.booleans()):
        text += f" WHEN {sub('bool')} THEN {sub(kind)}"
    if form == "case-else":
        text += f" ELSE {sub(kind)}"
    return f"({text} END)"


EXPRESSIONS = st.sampled_from(["int", "text", "bool"]).flatmap(expression)

CONNECTION = sqlite3.connect(":memory:")
# No declared types: no column affinity, so sqlite never coerces.
CONNECTION.execute("CREATE TABLE t (a, b, s, u)")
CONNECTION.execute("PRAGMA case_sensitive_like = ON")
CONTEXT = EvalContext(now_ms=0.0)


def sqlite_value(text: str, row: dict):
    CONNECTION.execute("DELETE FROM t")
    CONNECTION.execute("INSERT INTO t VALUES (:a, :b, :s, :u)", row)
    return CONNECTION.execute(f"SELECT {text} FROM t").fetchone()[0]


def as_sqlite(value):
    """Our value in sqlite's terms: its booleans are the integers 1/0."""
    return int(value) if isinstance(value, bool) else value


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS, ROWS)
def test_compiled_expression_agrees_with_sqlite(text, row):
    expr = parse(f'SELECT {text} AS x FROM "t"').items[0].expr
    expected = sqlite_value(text, row)
    raw_mode = compile_expr(expr, "t")(row, CONTEXT)
    bound_mode = compile_expr(expr)(bind_row(row, "t"), CONTEXT)
    assert type(raw_mode) is type(bound_mode) and raw_mode == bound_mode
    ours = as_sqlite(raw_mode)
    assert type(ours) is type(expected) and ours == expected, (text, row)
