"""Parse once per statement shape: the literal-slot statement cache.

``SELECT * FROM "t" WHERE key = 4711`` and ``... WHERE key = 815``
differ only in a literal, so they parse to the same tree but for one
:class:`~repro.sql.ast.Literal`.  :func:`parse_cached` keys a statement
on its text with every NUMBER / STRING literal replaced by a *slot*, and
on a hit rebuilds the tree from the cached shape instead of parsing.

**The key** is the lexer's own split of the text
(:func:`repro.sql.lexer.master_pattern`): the token texts in order with
whitespace and comments dropped and each literal masked.  Lexer and key
share one compiled pattern, so they cannot disagree about where a
literal starts or ends.

**A miss** runs :func:`~repro.sql.parser.parse` unchanged — a statement
that fails raises exactly what it always raised, and is never cached —
and keeps the shape: which ``Literal`` came from which slot, as a
post-order program that rebuilds only the spine from the root down to
the slots and shares every slot-free subtree.  Literals the grammar
reads the value of are *pinned*: ``LIMIT`` / ``OFFSET`` integers and
``ORDER BY <literal>`` (an integer there is an ordinal, resolved away).
A statement that differs from the shape at a pinned slot is parsed from
scratch.  The shape is stored only if the lexer's NUMBER / STRING
tokens equal the key's slots in count, order, value and type.

**A hit** converts each slot with the lexer's rules
(:func:`~repro.sql.lexer.literal_values`: ``7`` stays int, ``7.0`` and
``1e3`` are floats, ``''`` is unescaped) and runs the program.

Each :class:`~repro.query.QueryService` owns one cache; parsing is not
billed (``CostModel.sql_fixed_ms`` covers parse and plan), so whether a
statement hits cannot move virtual time.
"""

from __future__ import annotations

import dataclasses

from .ast import Literal, OrderItem, Statement
from .lexer import GROUPS, literal_values, master_pattern
from .lru import LruCache
from .parser import parse, parse_literals

#: ``re.split`` yields the text between matches, then every group.
_STRIDE = 1 + len(GROUPS)
_LITERAL = 1 + GROUPS.index("literal")

# Program operations: push constants, push a slot's literal, build a
# node (or a tuple) from the top ``count`` values.
_CONST, _SLOT, _NODE, _TUPLE = range(4)


def parse_cached(sql: str, cache: LruCache) -> Statement:
    """:func:`~repro.sql.parser.parse` through ``cache`` (shape key ->
    ``(program, pinned)``): same tree, same errors."""
    parts = master_pattern(sql).split(sql)
    texts = parts[_LITERAL::_STRIDE]
    parts[_LITERAL::_STRIDE] = map(bool, texts)
    texts = list(filter(None, texts))  # a literal's text is never empty
    key = tuple(parts)
    shape = cache.get(key)
    if shape is not None:
        program, pinned = shape
        for index, text in pinned:
            if texts[index] != text:
                break
        else:
            try:
                values = literal_values(texts)
            except ValueError:
                return parse(sql)  # raises the lexer's error
            stack: list = []
            for op, arg, count in program:
                if op == _CONST:
                    stack.extend(arg)
                elif op == _SLOT:
                    stack.append(Literal(values[arg]))
                else:
                    args = stack[-count:]
                    del stack[-count:]
                    stack.append(arg(*args) if op == _NODE
                                 else tuple(args))
            return stack[0]
    statement, tokens, literals = parse_literals(sql)
    lexed = [token.value for token in tokens
             if token.kind == "NUMBER" or token.kind == "STRING"]
    values = literal_values(texts)
    if len(lexed) == len(values) == len(literals) and all(
        type(lexed_value) is type(value) and lexed_value == value
        for lexed_value, value in zip(lexed, values)
    ):
        cache.put(key, _shape(statement, literals, texts))
    return statement


def _shape(statement: Statement, literals: list,
           texts: list[str]) -> tuple[tuple, tuple]:
    """``(program, pinned)`` for a freshly parsed ``statement``:
    ``pinned`` holds ``(slot, text)`` of every slot the grammar read."""
    present: set[int] = set()
    ordered: set[int] = set()
    _literal_ids(statement, present, ordered)
    pinned = []
    slot_of = {}
    for index, literal in enumerate(literals):
        if literal is None or id(literal) not in present \
                or id(literal) in ordered:
            pinned.append((index, texts[index]))
        else:
            slot_of[id(literal)] = index
    program = _program(statement, slot_of) or [(_CONST, (statement,), 0)]
    return tuple(program), tuple(pinned)


def _children(node) -> tuple | None:
    """Fields of an AST node, items of a tuple, ``None`` for a leaf."""
    if type(node) is tuple:
        return node
    if dataclasses.is_dataclass(node):
        return tuple(getattr(node, field.name)
                     for field in dataclasses.fields(node))
    return None


def _literal_ids(node, present: set[int], ordered: set[int]) -> None:
    """Collect the ids of every ``Literal`` under ``node``, and of
    those that are a whole ``ORDER BY`` term."""
    if type(node) is Literal:
        present.add(id(node))
        return
    if type(node) is OrderItem and type(node.expr) is Literal:
        ordered.add(id(node.expr))
    for child in _children(node) or ():
        _literal_ids(child, present, ordered)


def _program(node, slot_of: dict[int, int]) -> list | None:
    """Post-order operations rebuilding ``node`` with its slots
    refilled; ``None`` when no slot is under it (it is shared)."""
    if type(node) is Literal:
        index = slot_of.get(id(node))
        return None if index is None else [(_SLOT, index, 0)]
    children = _children(node)
    if children is None:
        return None
    parts = [_program(child, slot_of) for child in children]
    if all(part is None for part in parts):
        return None
    ops: list = []
    for child, part in zip(children, parts):
        if part is not None:
            ops.extend(part)
        elif ops and ops[-1][0] == _CONST:
            ops[-1] = (_CONST, ops[-1][1] + (child,), 0)
        else:
            ops.append((_CONST, (child,), 0))
    if type(node) is tuple:
        ops.append((_TUPLE, None, len(children)))
    else:
        ops.append((_NODE, type(node), len(children)))
    return ops
