"""Text formats for databases, utility tables, results and stats.

Database file: one transaction per non-empty, non-comment line, tokens
`item:quantity:probability` separated by single spaces. `#` starts a
comment (whole line or trailing). Tids follow line order. The parser
converts and checks a chunk of lines at a time.

Utility table file: lines `item:utility` with a signed, finite decimal
utility.

Results file: one line per pattern, `<ids ascending> #UTIL: u #PROB: p`
sorted by (pattern length, item ids), numbers with at most six
fractional digits and trailing zeros trimmed.

Parsing reports precise 1-based line/column positions. Serialization of
databases and tables uses shortest round-tripping decimal notation so
that parse(serialize(x)) == x.
"""

import json
from dataclasses import asdict, dataclass
from decimal import Decimal
from itertools import islice, repeat
from typing import Iterable, NoReturn

from .miner import MiningStats
from .model import (
    MinedPattern,
    Transaction,
    TransactionEntry,
    UncertainDatabase,
    UtilityTable,
    make_database,
    sorted_transactions,
)


@dataclass(frozen=True)
class ParseError(Exception):
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    """Yield (line_no, content) with comments stripped; blank lines skipped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        content = raw if hash_at < 0 else raw[:hash_at]
        if content.strip():
            yield line_no, content


def _tokens(content: str) -> Iterable[tuple[int, str]]:
    """Yield (1-based column, token) for space-separated tokens."""
    col = 0
    for token in content.split(" "):
        col += 1
        if token:
            yield col, token
        col += len(token)


# Per kind of token: its shape, then each field's name and type.
_DB_TOKEN = ("item:quantity:probability", ("item id", int), ("quantity", int),
             ("probability", float))
_PTABLE_TOKEN = ("item:utility", ("item id", int), ("utility", float))


def _token_error(token: str, kind: tuple, exc: ValueError) -> str:
    """Why a token failed to become a value, looked up only then: its
    shape, the first field that does not convert, else the model's rule."""
    shape, *fields = kind
    parts = token.split(":")
    if len(parts) != len(fields):
        return f"expected {shape}, got {token!r}"
    for text, (name, convert) in zip(parts, fields):
        try:
            convert(text)
        except ValueError:
            return f"{name} must be {'an integer' if convert is int else 'a number'}, got {text!r}"
    return str(exc)


# Content lines that parse_database converts and checks as one chunk.
# Chunks of 128 to 512 lines parse the c7-scan benchmark's file alike;
# 32 or 4k lines take longer, and the whole text at once nearly doubles
# the peak memory of a run.
_CHUNK_LINES = 256


def parse_database(text: str) -> UncertainDatabase:
    """Parse a database file; raises ParseError at the offending token.

    The content lines are converted _CHUNK_LINES at a time: the chunk's
    tokens, each of exactly two colons, split into item, quantity and
    probability columns, which `map` converts, and each line holds its
    colon count // 2 of the rows. model.sorted_transactions checks the
    chunk's rows at once and makes one sorted Transaction per line. Only
    a chunk that fails is walked, line by line and token by token.
    """
    transactions: list[Transaction] = []
    lines = _content_lines(text)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        contents = [content for _, content in chunk]
        try:
            tokens = list(filter(None, " ".join(contents).split(" ")))
            if set(map(str.count, tokens, repeat(":"))) != {2}:
                raise ValueError("a token does not hold three fields")
            fields = ":".join(tokens).split(":")
            transactions += sorted_transactions(
                len(transactions) + 1, list(map(int, fields[0::3])),
                list(map(int, fields[1::3])), list(map(float, fields[2::3])),
                [colons // 2 for colons in map(str.count, contents, repeat(":"))])
        except ValueError:
            _raise_database_fault(chunk, len(transactions) + 1)
    return make_database(transactions)


def _raise_database_fault(chunk: list[tuple[int, str]], first_tid: int) -> NoReturn:
    """Raise the ParseError of the first token at fault in a chunk that
    failed: line by line, a token that does not convert or breaks a rule
    of its own, else the token that ends the shortest failing prefix."""
    for tid, (line_no, content) in enumerate(chunk, start=first_tid):
        rows = []
        for col, token in _tokens(content):
            try:
                item, quantity, probability = token.split(":")
                rows.append(TransactionEntry(int(item), int(quantity), float(probability)))
            except ValueError as exc:
                raise ParseError(line_no, col, _token_error(token, _DB_TOKEN, exc)) from None
        try:
            Transaction(tid, sorted(rows))
        except ValueError:
            # Sorted, the rows fail only by repeating an item: the token at
            # fault ends the shortest prefix of the line that fails too.
            for k, (col, _) in enumerate(_tokens(content), start=1):
                try:
                    Transaction(tid, sorted(rows[:k]))
                except ValueError as exc:
                    raise ParseError(line_no, col, str(exc)) from None
    raise AssertionError("some token is at fault")


def parse_ptable(text: str) -> UtilityTable:
    """Parse a utility table file (`item:utility` lines).

    UtilityTable checks the values. When it refuses them, or an item
    repeats, the ParseError points at the first token at fault.
    """
    pairs: list[tuple[int, float]] = []
    for line_no, content in _content_lines(text):
        for col, token in _tokens(content):
            try:
                item, utility = token.split(":")
                pairs.append((int(item), float(utility)))
            except ValueError as exc:
                raise ParseError(line_no, col, _token_error(token, _PTABLE_TOKEN, exc)) from None
    entries = dict(pairs)
    try:
        if len(entries) == len(pairs):
            return UtilityTable(entries)
    except ValueError:
        pass
    seen: set[int] = set()
    positions = ((n, col) for n, content in _content_lines(text) for col, _ in _tokens(content))
    for (line_no, col), (item, utility) in zip(positions, pairs):
        try:
            UtilityTable({item: utility})
        except ValueError as exc:
            raise ParseError(line_no, col, str(exc)) from None
        if item in seen:
            raise ParseError(line_no, col, f"duplicate item {item} in utility table")
        seen.add(item)
    raise AssertionError("some token is at fault")


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
    lines = []
    for tx in db.transactions:
        lines.append(" ".join(
            f"{item}:{quantity}:{_exact_decimal(probability)}"
            for item, quantity, probability in tx.rows
        ))
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
    """Every MiningStats field in declaration order, elapsed in ms."""
    record = asdict(stats)
    record["elapsed_ms"] = record.pop("elapsed") * 1000.0
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
