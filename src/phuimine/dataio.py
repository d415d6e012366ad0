"""Text formats for databases, utility tables, results and stats.

In both input formats a line ends at \\n, \\r\\n or \\r only, and every
field is printable ASCII without `_`: no tab, vertical tab or form feed.

Database file: one transaction per non-empty, non-comment line, tokens
`item:quantity:probability` separated by single spaces. `#` starts a
comment (whole line or trailing). Tids follow line order. The parser
converts and checks a chunk of lines at a time and appends its columns
to the database's: it builds no row tuple and no Transaction.

Utility table file: `item:utility` tokens with signed, finite decimal
utilities, one entry per item.

Results file: one line per pattern, `<ids ascending> #UTIL: u #PROB: p`
sorted by (pattern length, item ids), numbers with at most six
fractional digits and trailing zeros trimmed.

Each input format is defined once, by its token table (_DB_TOKEN,
_PTABLE_TOKEN). A ParseError names, with its 1-based line and column,
the first token in reading order that the parser refuses together with
the tokens before it: in its line for a database, in the file for a
table. Serialization of databases and tables uses shortest
round-tripping decimal notation so that parse(serialize(x)) == x.
"""

import json
from collections import Counter
from dataclasses import asdict, dataclass
from decimal import Decimal
from functools import partial
from itertools import islice, repeat
from typing import Iterable

from .miner import MiningStats
from .model import MinedPattern, UncertainDatabase, UtilityTable, sorted_columns


@dataclass(frozen=True)
class ParseError(Exception):
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


def _raw_lines(text: str) -> list[str]:
    """The lines of a text. Lines end at \\n, \\r\\n or \\r only:
    str.splitlines would also end one at \\v, \\f, \\x1c-\\x1e, \\x85,
    U+2028 and U+2029."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _content_lines(lines: list[str], first_line: int = 1) -> list[tuple[int, str]]:
    """(line_no, content) of the lines, numbered from first_line, with
    comments stripped; blank lines skipped."""
    out = []
    for line_no, raw in enumerate(lines, start=first_line):
        hash_at = raw.find("#")
        content = raw if hash_at < 0 else raw[:hash_at]
        if content.strip():
            out.append((line_no, content))
    return out


def _tokens(content: str) -> Iterable[tuple[int, str]]:
    """Yield (1-based column, token) for space-separated tokens."""
    col = 0
    for token in content.split(" "):
        col += 1
        if token:
            yield col, token
        col += len(token)


# Each format's one definition, read by _columns and _token_error: the
# token's shape, then each field's name and type.
_DB_TOKEN = ("item:quantity:probability", ("item id", int), ("quantity", int),
             ("probability", float))
_PTABLE_TOKEN = ("item:utility", ("item id", int), ("utility", float))


def _columns(contents: list[str], kind: tuple) -> list[list]:
    """The fields of the lines' space-separated tokens, one converted
    column per field of `kind`. Raises ValueError unless every token
    has exactly the kind's fields and each converts. int and float also
    take digits other than ASCII, a `_` between digits and a tab,
    vertical tab or form feed around a field, which the formats refuse;
    one test of the joined text finds any of them."""
    _shape, *fields = kind
    text = " ".join(contents)
    if not (text.isascii() and text.isprintable()) or "_" in text:
        raise ValueError("a field holds a character other than printable ASCII, or '_'")
    tokens = list(filter(None, text.split(" ")))
    if set(map(str.count, tokens, repeat(":"))) - {len(fields) - 1}:
        raise ValueError(f"a token does not hold {len(fields)} fields")
    parts = ":".join(tokens).split(":") if tokens else []
    return [list(map(convert, parts[k::len(fields)]))
            for k, (_name, convert) in enumerate(fields)]


def _token_error(token: str, kind: tuple, exc: ValueError) -> str:
    """Why a token failed to become a value, looked up only then: its
    shape, the first field that is not printable ASCII without `_` or
    does not convert, else the model's rule."""
    shape, *fields = kind
    parts = token.split(":")
    if len(parts) != len(fields):
        return f"expected {shape}, got {token!r}"
    for text, (name, convert) in zip(parts, fields):
        try:
            convert(text)
            if text.isascii() and text.isprintable() and "_" not in text:
                continue
        except ValueError:
            pass
        return f"{name} must be {'an integer' if convert is int else 'a number'}, got {text!r}"
    return str(exc)


def _parse(convert, kind: tuple, scope: list[tuple[int, str]]):
    """convert(the contents of scope's (line_no, content) lines); when it
    raises ValueError, a ParseError at the first token in reading order
    that convert refuses together with the tokens before it. A refused
    prefix stays refused as it grows, so bisection finds the shortest,
    in O(log n) more conversions; convert's error on it names the rule."""
    try:
        return convert([content for _, content in scope])
    except ValueError as exc:
        error = exc
    at = [(line_no, col, token) for line_no, content in scope for col, token in _tokens(content)]
    taken, refused = 0, len(at)
    while refused - taken > 1:
        mid = (taken + refused) // 2
        try:
            convert([" ".join(token for _, _, token in at[:mid])])
            taken = mid
        except ValueError as exc:
            refused, error = mid, exc
    line_no, col, token = at[refused - 1]
    raise ParseError(line_no, col, _token_error(token, kind, error))


# Lines that parse_database converts and checks as one chunk.
# Chunks of 128 to 512 lines parse the c7-scan benchmark's file alike;
# 32 or 4k lines take longer, and the whole text at once nearly doubles
# the peak memory of a run.
_CHUNK_LINES = 256


def _rows(first_tid: int, contents: list[str]) -> tuple[list, ...]:
    """The item, quantity and probability columns of the lines, one
    transaction per line with tids from first_tid, each line holding a
    row per two colons, plus their sizes; model.sorted_columns checks
    all rows at once and sorts a line whose items do not ascend."""
    sizes = [colons // 2 for colons in map(str.count, contents, repeat(":"))]
    return (*sorted_columns(first_tid, *_columns(contents, _DB_TOKEN), sizes), sizes)


def parse_database(text: str) -> UncertainDatabase:
    """Parse a database file, _CHUNK_LINES lines at a time, into
    whole-database columns: no row tuple and no Transaction is built. A
    chunk that fails is parsed again line by line; the ParseError names
    the first token that its line refuses with the tokens before it."""
    columns: tuple[list, ...] = ([], [], [], [])
    lines = _raw_lines(text)
    for at in range(0, len(lines), _CHUNK_LINES):
        scope = _content_lines(lines[at:at + _CHUNK_LINES], at + 1)
        if not scope:
            continue
        tid = len(columns[3]) + 1
        try:
            parts = [_rows(tid, [content for _, content in scope])]
        except ValueError:
            parts = [_parse(partial(_rows, tid + k), _DB_TOKEN, [line])
                     for k, line in enumerate(scope)]
        for part in parts:
            for column, values in zip(columns, part):
                column += values
    return UncertainDatabase._of_checked(*columns)


def _table(contents: list[str]) -> UtilityTable:
    """The table of the lines' tokens. UtilityTable checks each item's
    last value, so a broken value rule is named before a repeat; in a
    shortest refused prefix, the repeat is its last token's item."""
    items, utilities = _columns(contents, _PTABLE_TOKEN)
    table = UtilityTable(dict(zip(items, utilities)))
    if len(table.entries) < len(items):
        raise ValueError(f"duplicate item {Counter(items).most_common(1)[0][0]} in utility table")
    return table


def parse_ptable(text: str) -> UtilityTable:
    """Parse a utility table file. The ParseError names the first token
    that the file refuses with the tokens before it: an item may repeat
    anywhere in the file."""
    return _parse(_table, _PTABLE_TOKEN, _content_lines(_raw_lines(text)))


def _exact_decimal(x: float) -> str:
    """Shortest decimal form that parses back to the same float.

    Plain positional notation (never scientific) for diff-friendly
    files; integral values print without a fractional part. `repr` is
    already that form unless it has an exponent; only exponent forms
    are expanded through `Decimal`.
    """
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    text = repr(x)
    return text if "e" not in text else format(Decimal(text), "f")


def _six_digits(x: float) -> str:
    """At most six fractional digits, trailing zeros trimmed."""
    text = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def serialize_database(db: UncertainDatabase) -> str:
    """The database file of `db`, one line per transaction, written
    straight from its columns."""
    tokens = map("{}:{}:{}".format, db.items, db.quantities,
                 map(_exact_decimal, db.probabilities))
    lines = [" ".join(islice(tokens, size)) for size in db.sizes]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_ptable(table: UtilityTable) -> str:
    lines = [f"{item}:{_exact_decimal(u)}" for item, u in sorted(table.entries.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_results(patterns: Iterable[MinedPattern]) -> str:
    ordered = sorted(patterns, key=lambda m: (len(m.pattern.items), m.pattern.items))
    lines = [
        " ".join(str(i) for i in m.pattern.items)
        + f" #UTIL: {_six_digits(m.utility)} #PROB: {_six_digits(m.expected_support)}"
        for m in ordered
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _stats_record(stats: MiningStats) -> dict:
    """Every MiningStats field in declaration order, each time in ms:
    elapsed as elapsed_ms, a phase's <phase>_s as <phase>_ms."""
    record = {}
    for name, value in asdict(stats).items():
        if name in MiningStats.TIMES:
            name = name.removesuffix("_s") + "_ms"
            value *= 1000.0
        record[name] = value
    return record


STATS_CSV_FIELDS = list(_stats_record(MiningStats()))


def stats_csv_row(stats: MiningStats) -> list[str]:
    return [
        _six_digits(v) if isinstance(v, float) else str(v)
        for v in _stats_record(stats).values()
    ]


def serialize_stats(stats: MiningStats, fmt: str) -> str:
    """One run's record: a csv header and row, or a one-element json array."""
    if fmt == "csv":
        return ",".join(STATS_CSV_FIELDS) + "\n" + ",".join(stats_csv_row(stats)) + "\n"
    if fmt == "json":
        return json.dumps([_stats_record(stats)], indent=2) + "\n"
    raise ValueError(f"unknown stats format {fmt!r}; expected 'csv' or 'json'")
