"""A small SQL front end for the benchmark's query subset (Table 3).

Covers exactly the statement shapes the paper evaluates:

* ``SELECT f3, f4 FROM Ta WHERE f10 > 7500 [AND f9 < 5000] [LIMIT 1024]``
* ``SELECT * FROM Tb WHERE f10 > 9900``
* ``SELECT SUM(f9) FROM Ta WHERE f10 > 7500``
* ``SELECT AVG(f1), AVG(f2) FROM Ta WHERE f0 < 2500``
* ``UPDATE Tb SET f3 = 7, f4 = 11 WHERE f10 = 3``
* ``INSERT INTO Ta VALUES 1024``  (bulk: N synthetic records)
* ``SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9
  [AND Ta.f1 > Tb.f1]``

Comparison literals are against the synthetic value domain
``[0, PREDICATE_RANGE)`` and are translated into the selectivities the
executor works with (``f10 > 7500`` keeps 25% of records).  Table and
field names are resolved against the benchmark schemas (``Ta`` f0..f127,
``Tb`` f0..f15); an unknown one is an :class:`SQLError` at its token.
"""

from __future__ import annotations

import difflib
import re
from typing import List, Optional, Tuple

from .query import (
    AggregateQuery,
    Conjunct,
    InsertQuery,
    JoinQuery,
    Predicate,
    Query,
    SelectQuery,
    UpdateQuery,
)
from .schema import PREDICATE_RANGE, TA, TB

#: the tables a statement may name (Table 3)
SCHEMAS = {schema.name: schema for schema in (TA, TB)}


class SQLError(ValueError):
    """The statement is outside the supported subset (or malformed).

    ``pos`` is the character offset of the offending token within the
    original statement (``None`` when no single position applies).
    """

    def __init__(self, message: str, pos: Optional[int] = None) -> None:
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


#: One lexed token: ``(kind, value, position)``.
Token = Tuple[str, str, int]

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)"
    r"|(?P<number>\d+)"
    r"|(?P<string>'[^']*')"
    r"|(?P<op><=|>=|=|<|>)"
    r"|(?P<punct>[(),*])"
    r")"
)

_KEYWORDS = {
    "select", "from", "where", "and", "limit", "update", "set",
    "insert", "into", "values", "sum", "avg",
}


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            at = pos + (len(rest) - len(rest.lstrip()))
            if text[at] == "'":
                raise SQLError("unterminated string literal", pos=at)
            raise SQLError(
                f"cannot tokenize near {text[at:at + 12]!r}", pos=at
            )
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        value = match.group(kind)
        at = match.start(kind)
        if kind == "name" and value.lower() in _KEYWORDS:
            kind = "keyword"
        tokens.append((kind, value, at))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        #: every field reference so far: (table qualifier, field, position)
        self.fields: List[Tuple[Optional[str], int, int]] = []

    # ------------------------------------------------------------- plumbing

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek_pos(self) -> int:
        """Offset of the next token (end of statement when exhausted)."""
        token = self.peek()
        return token[2] if token is not None else len(self.text)

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SQLError("unexpected end of statement", pos=len(self.text))
        self.pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token and token[0] == "keyword" and token[1].lower() == word:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            token = self.peek()
            shown = token[:2] if token is not None else None
            raise SQLError(f"expected {word.upper()} near token {shown}",
                           pos=self.peek_pos())

    def accept_punct(self, char: str) -> bool:
        token = self.peek()
        if token and token[0] == "punct" and token[1] == char:
            self.pos += 1
            return True
        return False

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    # ------------------------------------------------------------- pieces

    def field(self) -> Tuple[Optional[str], int]:
        """A field reference: ``f10`` or ``Ta.f10``."""
        kind, value, at = self.next()
        if kind != "name":
            raise SQLError(f"expected a field, got {value!r}", pos=at)
        table = None
        if "." in value:
            table, value = value.split(".", 1)
        match = re.fullmatch(r"f(\d+)", value)
        if match is None:
            raise SQLError(f"fields are named f<N>, got {value!r}", pos=at)
        index = int(match.group(1))
        self.fields.append((table, index, at))
        return table, index

    def table(self) -> str:
        """A table name, resolved against :data:`SCHEMAS`."""
        kind, value, at = self.next()
        if kind != "name":
            raise SQLError(f"expected a table name, got {value!r}", pos=at)
        return _resolve("table", value, list(SCHEMAS), at)

    def resolve_fields(self, table: Optional[str]) -> None:
        """Check every field reference against its table's schema: the
        qualifier's (``Ta.f3``), else the statement's ``table``."""
        for qualifier, index, at in self.fields:
            name = _resolve("table", qualifier or table, list(SCHEMAS), at)
            known = [f"f{i}" for i in range(SCHEMAS[name].n_fields)]
            _resolve(f"field of {name}", f"f{index}", known, at)

    def number(self, what: str) -> int:
        """An integer literal (with a positioned error otherwise)."""
        kind, literal, at = self.next()
        if kind != "number":
            raise SQLError(f"expected {what}, got {literal!r}", pos=at)
        return int(literal)

    def comparison(self) -> Conjunct:
        _, field = self.field()
        kind, op, at = self.next()
        if kind != "op":
            raise SQLError(f"expected a comparison operator, got {op!r}",
                           pos=at)
        value = self.number("a literal value")
        if op in (">", ">="):
            selectivity = max(0.0, (PREDICATE_RANGE - value) / PREDICATE_RANGE)
            return Conjunct(field, ">", min(1.0, selectivity))
        if op in ("<", "<="):
            return Conjunct(field, "<", min(1.0, value / PREDICATE_RANGE))
        return Conjunct(field, "==", max(1, value) / PREDICATE_RANGE
                        if value < PREDICATE_RANGE else 1.0)

    def where_clause(self) -> Optional[Predicate]:
        if not self.accept_keyword("where"):
            return None
        conjuncts = [self.comparison()]
        while self.accept_keyword("and"):
            conjuncts.append(self.comparison())
        return Predicate(tuple(conjuncts))


def _resolve(what: str, name: str, known: List[str], at: int) -> str:
    """``name`` if it is ``known``, else an :class:`SQLError` at ``at``
    naming the close matches (or, failing those, every known name)."""
    if name not in known:
        close = difflib.get_close_matches(name, known)
        hint = (f"did you mean {' or '.join(close)}?" if close
                else f"known: {' '.join(known)}")
        raise SQLError(f"unknown {what} {name!r} ({hint})", pos=at)
    return name


def parse(statement: str, name: str = "adhoc") -> Query:
    """Parse one SQL statement into a query plan."""
    p = _Parser(statement)
    if p.accept_keyword("select"):
        return _parse_select(p, name)
    if p.accept_keyword("update"):
        return _parse_update(p, name)
    if p.accept_keyword("insert"):
        return _parse_insert(p, name)
    raise SQLError("statement must start with SELECT, UPDATE or INSERT",
                   pos=p.peek_pos())


def _parse_select(p: _Parser, name: str) -> Query:
    # aggregate?
    if p.accept_keyword("sum"):
        return _parse_aggregate(p, name, "SUM")
    if p.accept_keyword("avg"):
        return _parse_aggregate(p, name, "AVG")

    star = p.accept_punct("*")
    fields: List[Tuple[Optional[str], int]] = []
    if not star:
        fields.append(p.field())
        while p.accept_punct(","):
            fields.append(p.field())
    p.expect_keyword("from")
    table = p.table()
    if p.accept_punct(","):
        return _parse_join(p, name, table, p.table(), fields)
    predicate = p.where_clause()
    limit = None
    if p.accept_keyword("limit"):
        limit = p.number("a LIMIT count")
    if not p.done():
        raise SQLError(
            f"trailing tokens: {[t[:2] for t in p.tokens[p.pos:]]}",
            pos=p.peek_pos(),
        )
    p.resolve_fields(table)
    projected = None if star else tuple(f for _t, f in fields)
    prefers = "row" if star and predicate is None else (
        "row" if star and limit is not None else "column"
    )
    return SelectQuery(name, table, projected, predicate, limit, prefers)


def _parse_aggregate(p: _Parser, name: str, func: str) -> AggregateQuery:
    fields = []
    while True:
        if not p.accept_punct("("):
            raise SQLError("aggregate function needs parentheses",
                           pos=p.peek_pos())
        _, field = p.field()
        fields.append(field)
        if not p.accept_punct(")"):
            raise SQLError("unclosed aggregate parenthesis",
                           pos=p.peek_pos())
        if not p.accept_punct(","):
            break
        nxt = p.next()
        if nxt[0] != "keyword" or nxt[1].upper() != func:
            raise SQLError("mixed aggregate functions are not supported",
                           pos=nxt[2])
    p.expect_keyword("from")
    table = p.table()
    predicate = p.where_clause()
    p.resolve_fields(table)
    return AggregateQuery(name, table, func, tuple(fields), predicate)


def _parse_update(p: _Parser, name: str) -> UpdateQuery:
    table = p.table()
    p.expect_keyword("set")
    assignments = []
    while True:
        _, field = p.field()
        kind, op, at = p.next()
        if (kind, op) != ("op", "="):
            raise SQLError("assignments use '='", pos=at)
        value = p.number("a literal value")
        assignments.append((field, value))
        if not p.accept_punct(","):
            break
    predicate = p.where_clause()
    if predicate is None:
        raise SQLError("UPDATE requires a WHERE clause", pos=p.peek_pos())
    p.resolve_fields(table)
    return UpdateQuery(name, table, tuple(assignments), predicate)


def _parse_insert(p: _Parser, name: str) -> InsertQuery:
    p.expect_keyword("into")
    table = p.table()
    p.expect_keyword("values")
    n = 0
    token = p.peek()
    if token and token[0] == "number":
        n = int(p.next()[1])
    elif token and token[:2] == ("punct", "("):
        # a literal tuple: one record; count tuples
        n = 0
        while p.accept_punct("("):
            depth = 1
            while depth:
                tok = p.next()
                if tok[:2] == ("punct", "("):
                    depth += 1
                elif tok[:2] == ("punct", ")"):
                    depth -= 1
            n += 1
            if not p.accept_punct(","):
                break
    return InsertQuery(name, table, n_records=n)


def _parse_join(p: _Parser, name: str, table_a: str, table_b: str,
                fields) -> JoinQuery:
    if not p.accept_keyword("where"):
        raise SQLError("joins need a WHERE clause with the key equality",
                       pos=p.peek_pos())
    key_field = None
    extra = None
    while True:
        ta, fa = p.field()
        kind, op, at = p.next()
        tb, fb = p.field()
        if fa != fb or {ta, tb} != {table_a, table_b}:
            raise SQLError(
                "join comparisons must relate the same field of both tables",
                pos=at,
            )
        if op == "=":
            key_field = fa
        elif op == ">":
            extra = fa
        else:
            raise SQLError(f"unsupported join comparison {op!r}", pos=at)
        if not p.accept_keyword("and"):
            break
    if key_field is None:
        raise SQLError("joins need an equality key", pos=p.peek_pos())
    by_table = {t: f for t, f in fields}
    if set(by_table) != {table_a, table_b}:
        raise SQLError("project one field from each joined table")
    p.resolve_fields(None)
    # the narrow table is hashed (build side)
    return JoinQuery(
        name,
        build_table=table_b,
        probe_table=table_a,
        key_field=key_field,
        extra_compare_field=extra,
        project_probe=by_table[table_a],
        project_build=by_table[table_b],
    )
