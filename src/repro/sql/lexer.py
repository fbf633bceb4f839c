"""SQL tokenizer.

The whole lexical grammar is one compiled master pattern
(:func:`master_pattern`): every match is one token, preceded by the
whitespace and ``--`` comments it skips.  :func:`tokenize` reads tokens
from it, and the statement cache (:mod:`repro.sql.statements`) keys
statements on the same pattern, so the two can never disagree about
where a literal starts or ends.

Character classes follow ``str`` predicates exactly: a number starts at
a ``str.isdigit`` character (or a ``.`` before one), a word at a
``str.isalpha`` character or ``_`` and continues over ``str.isalnum``
characters and ``_``.  For ASCII text ``\\d`` / ``\\w`` already are
those classes; the few non-ASCII characters where they differ (digits
that are not decimal, such as ``²``, and numerals that are not letters)
are listed in a second instance of the same pattern, built on first use.
"""

from __future__ import annotations

import re
from functools import cache
from typing import NamedTuple

from ..errors import SqlLexError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "TRUE",
    "FALSE", "JOIN", "INNER", "LEFT", "OUTER", "ON", "USING", "ASC",
    "DESC", "BETWEEN", "LIKE", "DISTINCT", "LOCALTIMESTAMP", "CASE",
    "WHEN", "THEN", "ELSE", "END", "UNION", "ALL", "APPROX",
}

#: Multi- and single-character operators, longest first.
OPERATORS = ["<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/",
             "%", "(", ")", ",", "."]

#: Capturing groups of the master pattern, in order: a bare word, a
#: NUMBER or STRING literal as written (quotes included), an operator,
#: a quoted identifier's body, and any other character (a lex error).
#: ``re.split`` returns them in this order after each match.
GROUPS = ("word", "literal", "op", "ident", "error")


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is one of ``KEYWORD``, ``IDENT``, ``NUMBER``, ``STRING``,
    ``OP`` or ``EOF``.  ``value`` holds the uppercase keyword, the
    identifier (case preserved, unquoted), the parsed number, the string
    body, or the operator text; ``position`` is the offset the token
    starts at.
    """

    kind: str
    value: object
    position: int


def _build(digit: str, word_start: str) -> re.Pattern:
    operators = "|".join(re.escape(op) for op in OPERATORS)
    number = (rf"(?:{digit}+(?:\.{digit}*)?|\.{digit}+)"
              rf"(?:[eE](?:[+-]{digit}*|{digit}+|\Z))?")
    # A closing quote is one not followed by another: without the
    # lookahead, an unterminated ``'a''`` would backtrack to ``'a'``.
    return re.compile(
        r"\s*(?:--[^\n]*\s*)*(?:"
        rf"(?P<word>{word_start}\w*)"
        rf"|(?P<literal>{number}|'(?:[^']|'')*'(?!'))"
        rf"|(?P<op>{operators})"
        r'|"(?P<ident>(?:[^"]|"")*)"(?!")'
        r"|(?P<error>.)"
        r"|\Z)",
        re.DOTALL,
    )


#: Exact for ASCII text, where ``\d`` is ``isdigit`` and ``[^\W\d]`` is
#: ``isalpha`` or ``_``.
_ASCII = _build(r"\d", r"[^\W\d]")


@cache
def _unicode() -> re.Pattern:
    """The master pattern with the classes spelled out for every code
    point: ``\\w`` characters that are neither letters nor decimal
    digits are left out of word starts, and those of them that are
    digits join the digit class."""
    text = "".join(map(chr, range(0x110000)))
    odd = [ch for ch in re.findall(r"[^\W\d_]", text) if not ch.isalpha()]
    digits = re.escape("".join(ch for ch in odd if ch.isdigit()))
    return _build(rf"[\d{digits}]",
                  rf"(?![{re.escape(''.join(odd))}])[^\W\d]")


def master_pattern(sql: str) -> re.Pattern:
    """The compiled lexical grammar for ``sql``."""
    return _ASCII if sql.isascii() else _unicode()


def literal_values(texts) -> list:
    """Values of NUMBER / STRING literals as written: ``'it''s'`` is
    ``"it's"``, a number with a ``.`` or an exponent is a float, any
    other an int.  Raises ``ValueError`` for a malformed number."""
    values = []
    for text in texts:
        if text[0] == "'":
            values.append(text[1:-1].replace("''", "'"))
        elif "." in text or "e" in text or "E" in text:
            values.append(float(text))
        else:
            values.append(int(text))
    return values


def tokenize(sql: str) -> list[Token]:
    """Convert SQL text into tokens; raises :class:`SqlLexError`."""
    tokens: list[Token] = []
    for match in master_pattern(sql).finditer(sql):
        group = match.lastgroup
        if group is None:  # trailing whitespace and comments
            continue
        start = match.start(group)
        text = match[group]
        if group == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, start))
            else:
                tokens.append(Token("IDENT", text, start))
        elif group == "literal":
            try:
                [value] = literal_values((text,))
            except ValueError:
                raise SqlLexError(
                    f"bad number {text!r} at offset {start}") from None
            kind = "STRING" if text[0] == "'" else "NUMBER"
            tokens.append(Token(kind, value, start))
        elif group == "op":
            tokens.append(Token("OP", text, start))
        elif group == "ident":
            tokens.append(Token("IDENT", text.replace('""', '"'), start))
        elif text in "\"'":
            raise SqlLexError(
                f"unterminated {text} starting at offset {start}")
        else:
            raise SqlLexError(
                f"unexpected character {text!r} at offset {start}")
    tokens.append(Token("EOF", None, len(sql)))
    return tokens
