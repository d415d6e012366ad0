"""Text formats for databases, utility tables, results and stats.

Database file: one transaction per non-empty, non-comment line, tokens
`item:quantity:probability` separated by single spaces. `#` starts a
comment (whole line or trailing). Tids follow line order.

Utility table file: lines `item:utility` with a signed, finite decimal
utility.

Results file: one line per pattern, `<ids ascending> #UTIL: u #PROB: p`
sorted by (pattern length, item ids), numbers with at most six
fractional digits and trailing zeros trimmed.

Parsing reports precise 1-based line/column positions. Serialization of
databases and tables uses shortest round-tripping decimal notation so
that parse(serialize(x)) == x.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from decimal import Decimal
from typing import Iterable, Sequence

from .miner import MiningStats
from .model import (
    MinedPattern,
    Transaction,
    TransactionEntry,
    UncertainDatabase,
    UtilityTable,
    make_database,
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


def parse_database(text: str) -> UncertainDatabase:
    """Parse a database file; raises ParseError at the offending token."""
    transactions = []
    tid = 0
    for line_no, content in _content_lines(text):
        tid += 1
        entries: list[TransactionEntry] = []
        seen: set[int] = set()
        for col, token in _tokens(content):
            parts = token.split(":")
            if len(parts) != 3:
                raise ParseError(line_no, col, f"expected item:quantity:probability, got {token!r}")
            try:
                item = int(parts[0])
            except ValueError:
                raise ParseError(line_no, col, f"item id must be an integer, got {parts[0]!r}") from None
            if item < 0:
                raise ParseError(line_no, col, f"item id must be >= 0, got {item}")
            try:
                quantity = int(parts[1])
            except ValueError:
                raise ParseError(line_no, col, f"quantity must be an integer, got {parts[1]!r}") from None
            if quantity < 1:
                raise ParseError(line_no, col, f"quantity must be >= 1, got {quantity}")
            try:
                probability = float(parts[2])
            except ValueError:
                raise ParseError(line_no, col, f"probability must be a number, got {parts[2]!r}") from None
            if not 0.0 < probability <= 1.0:
                raise ParseError(line_no, col, f"probability must be in (0, 1], got {parts[2]}")
            if item in seen:
                raise ParseError(line_no, col, f"duplicate item {item} in transaction")
            seen.add(item)
            entries.append(TransactionEntry(item, quantity, probability))
        entries.sort(key=lambda e: e.item)
        transactions.append(Transaction(tid, tuple(entries)))
    return make_database(transactions)


def parse_ptable(text: str) -> UtilityTable:
    """Parse a utility table file (`item:utility` lines)."""
    entries: dict[int, float] = {}
    for line_no, content in _content_lines(text):
        for col, token in _tokens(content):
            parts = token.split(":")
            if len(parts) != 2:
                raise ParseError(line_no, col, f"expected item:utility, got {token!r}")
            try:
                item = int(parts[0])
            except ValueError:
                raise ParseError(line_no, col, f"item id must be an integer, got {parts[0]!r}") from None
            try:
                utility = float(parts[1])
            except ValueError:
                raise ParseError(line_no, col, f"utility must be a number, got {parts[1]!r}") from None
            if not math.isfinite(utility):
                raise ParseError(line_no, col, f"utility must be finite, got {parts[1]!r}")
            if item in entries:
                raise ParseError(line_no, col, f"duplicate item {item} in utility table")
            entries[item] = utility
    return UtilityTable(entries)


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
            f"{e.item}:{e.quantity}:{_exact_decimal(e.probability)}" for e in tx.entries
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


def serialize_stats(runs: MiningStats | Sequence[MiningStats], fmt: str = "csv") -> str:
    """One row per run in csv (single header), or a json array."""
    stats_list = [runs] if isinstance(runs, MiningStats) else list(runs)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(STATS_CSV_FIELDS)
        for s in stats_list:
            writer.writerow(stats_csv_row(s))
        return buf.getvalue()
    if fmt == "json":
        payload = [_stats_record(s) for s in stats_list]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown stats format {fmt!r}; expected 'csv' or 'json'")

