"""The statement cache against the uncached parser.

Every case parses a statement through a warm cache and compares it
with :func:`repro.sql.parse` of the same text: the trees by ``repr``
(``Literal(1) == Literal(1.0)``, so ``==`` would miss a wrong type), the
errors by type and message.  The property suite reuses the expression
oracle's generator: it warms the cache with a statement, then redraws
some of the statement's literals — numbers, floats, escaped strings and
malformed numbers — keeping its shape.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from repro.sql import parse, statements
from repro.sql.lexer import master_pattern
from repro.sql.lru import LruCache
from repro.sql.statements import parse_cached
from repro.state.live import LiveStateTable

from .test_expr_oracle import EXPRESSIONS


def outcome(parser, sql):
    try:
        return repr(parser(sql))
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc)


def check(cache, sql):
    """``sql`` through ``cache`` gives what ``parse`` gives."""
    got = outcome(lambda text: parse_cached(text, cache), sql)
    assert got == outcome(parse, sql), sql
    return got


def refill(sql, texts):
    """``sql`` with its literals, in order, replaced by ``texts``."""
    spans = [match.span("literal")
             for match in master_pattern(sql).finditer(sql)
             if match.lastgroup == "literal"]
    assert len(spans) == len(texts)
    out, last = [], 0
    for (start, end), text in zip(spans, texts):
        out += [sql[last:start], text]
        last = end
    return "".join(out + [sql[last:]])


LITERALS = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(["7", "7.0", "1e3", "1000", ".5", "5.", "2.5E-2",
                     "1e+", "''", "'it''s'", "'7'"]),
    st.text(alphabet="ab' é", max_size=4).map(
        lambda text: "'" + text.replace("'", "''") + "'"),
)
#: (template, whether any literal in it is pinned)
SHAPES = [
    ('SELECT {e} AS x FROM "t"', False),
    ('SELECT {e} AS x FROM "t" WHERE {e} IS NOT NULL', False),
    ('SELECT {e} AS x, 2 AS y FROM "t" ORDER BY 2 DESC LIMIT 5', True),
    ('SELECT {e} AS x FROM "t" ORDER BY 1 LIMIT 3 OFFSET 1', True),
]


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, st.sampled_from(SHAPES), st.data())
def test_redrawn_literals_parse_like_the_parser(expression, shape, data):
    template, pinned = shape
    sql = template.format(e=expression)
    cache = LruCache(256)
    check(cache, sql)
    kept = [match["literal"] for match in master_pattern(sql).finditer(sql)
            if match.lastgroup == "literal"]
    # Each literal is redrawn or kept, so pinned slots often match.
    texts = [data.draw(st.none() | LITERALS) or text for text in kept]
    check(cache, refill(sql, texts))
    if not pinned:
        assert cache.hits == 1  # the redrawn statement took the hit path


@pytest.mark.parametrize("warm, then", [
    # ORDER BY <n> is resolved by the parser: a pinned slot.
    ('SELECT a, b FROM "t" ORDER BY 1', 'SELECT a, b FROM "t" ORDER BY 2'),
    ('SELECT a, b FROM "t" ORDER BY 1', 'SELECT a, b FROM "t" ORDER BY 3'),
    ('SELECT a FROM "t" ORDER BY 1', "SELECT a FROM \"t\" ORDER BY 'x'"),
    ('SELECT a FROM "t" ORDER BY 1.5', 'SELECT a FROM "t" ORDER BY 1'),
    ('SELECT a + 1 AS s FROM "t" ORDER BY 1',
     'SELECT a + 2 AS s FROM "t" ORDER BY 1'),
    ('SELECT a FROM "t" LIMIT 5', 'SELECT a FROM "t" LIMIT 6'),
    ('SELECT a FROM "t" LIMIT 5', 'SELECT a FROM "t" LIMIT 2.5'),
    ('SELECT a FROM "t" LIMIT 5 OFFSET 1', "SELECT a FROM \"t\" LIMIT 5 "
                                           "OFFSET 'x'"),
    ("SELECT a FROM \"t\" WHERE s = 'x'",
     "SELECT a FROM \"t\" WHERE s = 'it''s'"),
    ('SELECT a FROM "t" WHERE a = -1', 'SELECT a FROM "t" WHERE a = -5'),
    ('SELECT a FROM "t" WHERE a = 1000', 'SELECT a FROM "t" WHERE a = 1e3'),
    ('SELECT a FROM "t" WHERE a = 1', 'SELECT a FROM "t" WHERE a = .5'),
    ('SELECT a FROM "t" WHERE a = 1', 'SELECT a FROM "t" WHERE a = 1e+'),
    ('SELECT t0 FROM "t"', 'SELECT t.5 FROM "t"'),
    ('SELECT t.a FROM "t"', 'SELECT t.5 FROM "t"'),
    ('SELECT a FROM "t" -- 7\nWHERE a = 1',
     'SELECT a FROM "t" -- 8\nWHERE a = 2'),
    ('SELECT a FROM "t" WHERE a = 1', 'SELECT a FROM "t" -- 1\n'
                                      'WHERE a = 2'),
    ('SELECT a FROM "t1" WHERE a = 1', 'SELECT a FROM "t2" WHERE a = 1'),
    ('select a from "t" where a = 1', 'select a from "t" where a = 2'),
    ('select a from "t" where a = 1', 'SELECT a FROM "t" WHERE a = 2'),
    ('SELECT a FROM "t" WHERE a IN (1, 2)',
     'SELECT a FROM "t" WHERE a IN (1, 2, 3)'),
    ('SELECT a FROM "t" WHERE a IN (1, 2, 3)',
     'SELECT a FROM "t" WHERE a IN (1, 2)'),
    ('SELECT a FROM "t" WHERE a = 1', 'SELECT a FROM "t" WHERE a = 1 @'),
])
def test_pinned_cases(warm, then):
    cache = LruCache(256)
    check(cache, warm)
    check(cache, then)


@pytest.mark.parametrize("warm, then, parsed", [
    # Comments and whitespace are not part of the shape.
    ('SELECT a FROM "t" -- 7\nWHERE a = 1',
     'SELECT a  FROM "t" -- 8\n WHERE a = 2', False),
    ('SELECT a FROM "t" WHERE a IN (1, 2)',
     'SELECT a FROM "t" WHERE a IN (3, 4)', False),
    ('SELECT a FROM "t" LIMIT 5', 'SELECT a FROM "t" LIMIT 5', False),
    # A pinned slot that differs, or another shape, parses.
    ('SELECT a FROM "t" LIMIT 5', 'SELECT a FROM "t" LIMIT 6', True),
    ('SELECT a FROM "t1" WHERE a = 1', 'SELECT a FROM "t2" WHERE a = 1',
     True),
    ('SELECT a FROM "t" WHERE a IN (1, 2)',
     'SELECT a FROM "t" WHERE a IN (1, 2, 3)', True),
])
def test_which_statements_parse_again(monkeypatch, warm, then, parsed):
    seen = []
    original = statements.parse_literals

    def counted(sql):
        seen.append(sql)
        return original(sql)

    monkeypatch.setattr(statements, "parse_literals", counted)
    cache = LruCache(256)
    parse_cached(warm, cache)
    check(cache, then)
    assert seen == ([warm, then] if parsed else [warm])


def test_literal_values_follow_the_lexer():
    cache = LruCache(256)
    parse_cached('SELECT a FROM "t" WHERE a IN (1, 1, 1, 1)', cache)
    statement = parse_cached(
        "SELECT a FROM \"t\" WHERE a IN (7, 7.0, 1e3, '')", cache)
    assert cache.hits == 1
    values = [item.value for item in statement.where.items]
    assert values == [7, 7.0, 1000.0, ""]
    assert [type(value) for value in values] == [int, float, float, str]


def test_failed_statements_are_never_cached():
    cache = LruCache(256)
    check(cache, 'SELECT a FROM "t" ORDER BY 2')
    check(cache, 'SELECT a FROM "t" WHERE')
    assert len(cache) == 0


def test_cache_is_bounded_lru():
    cache = LruCache(2)
    for sql in ('SELECT a FROM "t" WHERE a = 1',
                'SELECT b FROM "t" WHERE b = 1',
                'SELECT c FROM "t" WHERE c = 1'):
        parse_cached(sql, cache)
    assert len(cache) == 2
    parse_cached('SELECT c FROM "t" WHERE c = 2', cache)
    assert cache.hits == 1
    parse_cached('SELECT a FROM "t" WHERE a = 2', cache)  # evicted
    assert cache.hits == 1 and len(cache) == 2


def test_two_services_do_not_share_a_cache():
    env = Environment(ClusterConfig(nodes=2, processing_workers_per_node=1))
    imap = env.store.create_map("m")
    env.store.register_live_table("m", LiveStateTable(imap))
    imap.put(1, {"v": 1})
    first, second = QueryService(env), QueryService(env)
    assert first.statement_cache is not second.statement_cache
    first.execute('SELECT * FROM "m" WHERE key = 1')
    first.execute('SELECT * FROM "m" WHERE key = 2')
    assert first.statement_cache.hits == 1
    assert len(second.statement_cache) == 0
    second.execute('SELECT * FROM "m" WHERE key = 1')
    assert second.statement_cache.hits == 0
