"""Domain types for uncertain quantitative transaction databases.

A database holds its transactions as whole-database columns: every
occurrence's item, quantity and probability, transaction after
transaction, plus each transaction's size; the tids are the positions
1..n. Its transactions view gives the same data as Transaction records,
named tuples (tid, rows) whose rows are plain (item, quantity,
probability) tuples; Transaction.entries views them as
TransactionEntry, with named fields. Unit utilities (signed, e.g.
profit per unit) live in a utility table, read as table.entries[item].
Transactions, entries, patterns and results are named tuples: each
equals its plain tuple.

Each type checks its own rules once, when it is built, and raises
ValueError: _check_types holds the type rules of a row's values (item
ids and quantities are ints, probabilities floats or ints, by exact
type) for a Transaction, a TransactionEntry and a database built from
columns; _rules_hold holds the occurrence rules over columns, and
_raise_broken_rule names the first one broken, for the same three and
for all the rows of a parsed chunk of lines, which sorted_columns checks
at once; a transaction is non-empty; a database's tids run 1..n; a
table's ids are ints >= 0 and its utilities finite floats or ints
within 2**53; thresholds have their ranges. The type rules
refuse what the text formats would write back as another value, or as
text that does not parse: a bool, a float item id, a Fraction.
check_utilities, which mine() and the oracle call first, checks a
database against its table and returns its utility column.

All types are immutable after construction and safe to share across
threads. Every database holds its four columns and its item set from
the moment it is built, whichever way it is built; only its
transactions view and its row offsets (bounds) are formed later, on
first use, and then cached. Two threads that race to form either each
build an equal one, and one of them is kept, so
`db.transactions is db.transactions` need not hold across threads, nor
`db.bounds is db.bounds`.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import attrgetter, ge, itemgetter, lt, mul
from typing import Iterable, Mapping, NamedTuple

Item = int  # non-negative integer identifier


class TransactionEntry(namedtuple("TransactionEntry", "item quantity probability")):
    """One occurrence, equal to its plain row; checked when built or
    by _replace, as the one row of a Transaction. _make and
    tuple.__new__ stay unchecked: Transaction.entries uses tuple.__new__
    to view rows that Transaction has already checked."""

    __slots__ = ()

    def __new__(cls, item: Item, quantity: int, probability: float) -> "TransactionEntry":
        Transaction(1, ((item, quantity, probability),))
        return tuple.__new__(cls, (item, quantity, probability))

    def _replace(self, **changes) -> "TransactionEntry":
        """A copy with the named fields changed, checked as when built."""
        return TransactionEntry(*super()._replace(**changes))


def _rules_hold(items, quantities, probabilities, starts=frozenset()) -> bool:
    """Whether the columns of some rows keep every occurrence rule: item
    >= 0, quantity >= 1, probability in (0, 1] (NaN fails) and items
    ascending strictly, except at the positions in `starts`, where a new
    transaction begins. Only C-level calls walk the columns; the items of
    one transaction need no more than the first test of the order, and
    its first item is its least when they pass it."""
    return ((min(items) if starts else items[0]) >= 0 and min(quantities) >= 1
            and all(map(lt, repeat(0.0), probabilities))
            and all(map(ge, repeat(1.0), probabilities))
            and (all(map(lt, items, items[1:]))
                 or starts.issuperset(compress(count(1), map(ge, items, items[1:])))))


def _raise_broken_rule(items, quantities, probabilities, starts=frozenset()) -> None:
    """Raise ValueError for the first occurrence rule that the columns of
    some rows break, every row's values before the order; called once
    _rules_hold has found that they break one."""
    for item, quantity, probability in zip(items, quantities, probabilities):
        if item < 0:
            raise ValueError(f"item id must be >= 0, got {item}")
        if quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {quantity}")
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
    for at, prev, item in zip(count(1), items, items[1:]):
        if item <= prev and at not in starts:
            raise ValueError(f"duplicate item {item} in transaction" if item == prev
                             else f"items must ascend, got {item} after {prev}")


# The exact types of the values that the text formats write back as
# they are; a bool, a float item id or a Fraction would become text that
# parses to another value, or not at all. Per column (items, quantities,
# probabilities, sizes): its values' name and types.
_INT, _REAL = frozenset({int}), frozenset({int, float})
_TYPES = (("item id", _INT), ("quantity", _INT), ("probability", _REAL), ("size", _INT))


def _check_types(items, quantities, probabilities, sizes=()) -> None:
    """Raise ValueError unless each value of the columns (tuples of
    items, quantities, probabilities and, for a database, sizes) has one
    of its column's exact types: an int, or for a probability a float or an
    int. Two C-level passes, one over the int columns and one over the
    probabilities; only a failure looks for the column and the value to
    name. The parser's values come from int() and float(), so
    sorted_columns does not call this."""
    if not (_INT.issuperset(map(type, items + quantities + sizes))
            and _REAL.issuperset(map(type, probabilities))):
        for (name, types), column in zip(_TYPES, (items, quantities, probabilities, sizes)):
            for value in (v for v in column if type(v) not in types):
                raise ValueError(f"{name} must not be a {type(value).__name__}, got {value!r}")


class Transaction(namedtuple("Transaction", "tid rows")):
    """A tid (1-based position) plus its rows, one exact (item, quantity,
    probability) tuple per occurrence, from any iterable of triples;
    equal to the plain tuple (tid, rows). Checked when built, by
    _replace and when unpickled; _make and tuple.__new__ stay unchecked,
    for rows that are known to keep every rule. A ValueError names the
    first type or occurrence rule that the rows break."""

    __slots__ = ()

    def __new__(cls, tid: int, entries: Iterable[tuple[Item, int, float]]) -> "Transaction":
        rows = tuple(map(tuple, entries))
        if not rows:
            raise ValueError(f"transaction {tid} is empty")
        items, quantities, probabilities = zip(*rows, strict=True)
        _check_types(items, quantities, probabilities)
        if not _rules_hold(items, quantities, probabilities):
            _raise_broken_rule(items, quantities, probabilities)
        return tuple.__new__(cls, (tid, rows))

    def _replace(self, **changes) -> "Transaction":
        """A copy with the named fields changed, checked as when built."""
        return Transaction(*super()._replace(**changes))

    @property
    def entries(self) -> tuple[TransactionEntry, ...]:
        return tuple(map(tuple.__new__, repeat(TransactionEntry), self.rows))


def sorted_columns(first_tid: int, items: list[Item], quantities: list[int],
                   probabilities: list[float], sizes: list[int]) -> tuple[list, list, list]:
    """The columns of transactions first_tid, first_tid + 1, ..., one per
    size, with each transaction's rows sorted: the columns of
    Transaction(tid, its rows) for each. The rows are checked once, all
    together; the lines are sorted only when one of them does not ascend.
    Raises ValueError for the first broken rule, or an empty transaction."""
    if 0 in sizes:
        raise ValueError(f"transaction {first_tid + sizes.index(0)} is empty")
    ends = list(accumulate(sizes))
    if _rules_hold(items, quantities, probabilities, set(ends)):
        return items, quantities, probabilities
    rows = list(zip(items, quantities, probabilities))
    rows = list(chain.from_iterable(sorted(rows[a:b]) for a, b in zip([0, *ends], ends)))
    items, quantities, probabilities = map(list, zip(*rows))
    if not _rules_hold(items, quantities, probabilities, set(ends)):
        _raise_broken_rule(items, quantities, probabilities, set(ends))
    return items, quantities, probabilities


_COLUMNS = ("items", "quantities", "probabilities", "sizes")


class UncertainDatabase:
    """Transactions stored as whole-database columns: every occurrence's
    item, quantity and probability, transaction after transaction, and
    each transaction's number of rows (its size). The tids are the
    positions 1..n. Equality and hashing look at the columns alone.

    A database holds its four columns and its item set (item_universe),
    both formed when it is built, and two views formed from the columns
    on first use and then cached: its transactions and its row offsets
    (bounds: the rows of tid t lie at bounds[t - 1]:bounds[t]).

    UncertainDatabase(items, quantities, probabilities, sizes) checks
    the columns as Transaction checks its rows: every item id, quantity
    and size an int, every probability a float or an int, every
    transaction non-empty, its items ascending. parse_database builds
    one from checked chunks of lines, prefix(n) from a prefix of the
    columns and make_database from checked Transactions, none checking
    again; unpickling runs the checks again, on the columns alone.

    The size (number of transactions) is fixed at load time and is the
    |D| used in the probability bound, even if later processing drops
    items from transactions.
    """

    # items, quantities and probabilities hold one entry per row, sizes
    # one per transaction
    __slots__ = _COLUMNS + ("item_universe", "_transactions", "_bounds")

    def __init__(self, items: Iterable[Item], quantities: Iterable[int],
                 probabilities: Iterable[float], sizes: Iterable[int]) -> None:
        columns = tuple(map(tuple, (items, quantities, probabilities, sizes)))
        *rows, sizes = columns
        _check_types(*columns)
        if set(map(len, rows)) - {sum(sizes)}:
            raise ValueError(f"columns of {', '.join(map(str, map(len, rows)))} rows "
                             f"for transactions of {sum(sizes)}")
        if sizes and min(sizes) < 1:
            raise ValueError(f"transaction {sizes.index(min(sizes)) + 1} is empty")
        if sizes and not _rules_hold(*rows, set(accumulate(sizes))):
            _raise_broken_rule(*rows, set(accumulate(sizes)))
        self._set(columns)

    def _set(self, columns) -> None:
        for name, column in zip(_COLUMNS, map(tuple, columns)):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "item_universe", frozenset(self.items))
        object.__setattr__(self, "_transactions", None)
        object.__setattr__(self, "_bounds", None)

    @classmethod
    def _of_checked(cls, items, quantities, probabilities, sizes) -> "UncertainDatabase":
        """A database of columns that are known to keep every rule."""
        db = object.__new__(cls)
        db._set((items, quantities, probabilities, sizes))
        return db

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a database is immutable")

    __delattr__ = __setattr__

    @property
    def columns(self) -> tuple[tuple, tuple, tuple, tuple]:
        """(items, quantities, probabilities, sizes)."""
        return self.items, self.quantities, self.probabilities, self.sizes

    def __reduce__(self):
        return UncertainDatabase, self.columns

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return "UncertainDatabase({}={!r}, {}={!r}, {}={!r}, {}={!r})".format(
            *chain.from_iterable(zip(_COLUMNS, self.columns)))

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The Transactions, a read-only view of the columns, formed on
        first use and cached."""
        if self._transactions is None:
            rows = zip(self.items, self.quantities, self.probabilities)
            object.__setattr__(self, "_transactions", tuple(map(
                tuple.__new__, repeat(Transaction),
                zip(count(1), map(tuple, map(islice, repeat(rows), self.sizes))))))
        return self._transactions

    @property
    def bounds(self) -> tuple[int, ...]:
        """The row offsets, a leading 0 and then each transaction's end:
        the rows of tid t lie at bounds[t - 1]:bounds[t]. Formed on
        first use and cached."""
        if self._bounds is None:
            object.__setattr__(self, "_bounds", tuple(accumulate(self.sizes, initial=0)))
        return self._bounds

    def prefix(self, n: int) -> "UncertainDatabase":
        """The database of the first n transactions, cut from the columns."""
        if not 0 <= n <= self.size:
            raise ValueError(f"prefix of {n} transactions outside 0..{self.size}")
        end = sum(self.sizes[:n])
        return UncertainDatabase._of_checked(self.items[:end], self.quantities[:end],
                                             self.probabilities[:end], self.sizes[:n])

    def utilities(self, table: "UtilityTable") -> list[float]:
        """Every row's utility, unit utility x quantity, as one column.
        Raises KeyError for an item that the table lacks."""
        return list(map(mul, map(table.entries.__getitem__, self.items), self.quantities))

    @property
    def size(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class UtilityTable:
    """Signed unit utility per item (may be negative, zero or positive);
    item ids must be ints >= 0 and every utility a finite float or an
    int within 2**53 (which a float holds exactly), so that the table
    file writes each back as it is."""

    entries: Mapping[Item, float]

    def __post_init__(self) -> None:
        for item, u in self.entries.items():
            # a float holds every int within 2**53 exactly, but not every one beyond
            if type(item) is not int or type(u) not in _REAL or type(u) is int and abs(u) > 2**53:
                raise ValueError(f"an entry must be an int item id and a float utility or an "
                                 f"int one within 2**53, got {item!r}: {u!r}")
            if item < 0:
                raise ValueError(f"item id must be >= 0, got {item}")
            if not math.isfinite(u):
                raise ValueError(f"utility must be finite, got {u} for item {item}")


@dataclass(frozen=True)
class Thresholds:
    """Minimum utility (absolute) and minimum probability (relative).

    Raises ValueError unless min_util is finite and min_pro is in [0, 1].
    """

    min_util: float
    min_pro: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_pro <= 1.0:
            raise ValueError(f"min_pro must be in [0, 1], got {self.min_pro}")
        if not math.isfinite(self.min_util):
            raise ValueError(f"min_util must be finite, got {self.min_util}")

    def probability_bound(self, db_size: int) -> float:
        """Effective absolute probability bound; compute once per database."""
        return self.min_pro * db_size


class Pattern(NamedTuple):
    """A non-empty itemset, canonically stored sorted by ascending id.

    A one-field named tuple: Patterns compare and sort by their ids, and
    equal the plain tuple ((1, 2),). So len(p) is 1; a pattern's length
    is len(p.items)."""

    items: tuple[Item, ...]

    @classmethod
    def of(cls, items: Iterable[Item]) -> "Pattern":
        return cls(tuple(sorted(items)))


class MinedPattern(NamedTuple):
    """A pattern together with its exact utility and expected support."""

    pattern: Pattern
    utility: float
    expected_support: float


class DatabaseValidationError(ValueError):
    """Raised by check_utilities for a database its table cannot mine."""


def check_utilities(db: UncertainDatabase, table: UtilityTable) -> list[float]:
    """Check a database against its utility table and return its utility
    column, db.utilities(table): every occurring item needs a unit
    utility, and S, the sum over rows of |unit utility x quantity|, must
    be at most half the largest float. The column is formed in one pass
    over the rows and S added up over it at C level.

    That bound is enough: each utility sum the miner or the oracle forms
    (a pattern's utility, pu, nu and rpu, a transaction's rtu, an item's
    rtwu, an EUCS cell, s1's m_util, the oracle's totals) counts every
    occurrence's u x quantity at most once, so it is at most S in
    magnitude; the factor of two leaves room for rounding.

    Raises DatabaseValidationError.
    """
    missing = sorted(db.item_universe - table.entries.keys())
    if missing:
        raise DatabaseValidationError(f"invalid database: {len(missing)} item(s) missing "
                                      f"from utility table, first {missing[:5]}")
    limit = sys.float_info.max / 2
    try:
        utilities = db.utilities(table)
        total = sum(map(abs, utilities))
    except OverflowError:  # a quantity too large to become a float
        total = math.inf
    if not total <= limit:
        raise DatabaseValidationError(
            f"invalid database: summed |utility| x quantity, {total}, is not finite "
            f"or above {limit} (half the largest float)")
    return utilities


def make_database(transactions: Iterable[Transaction]) -> UncertainDatabase:
    """The database of the Transactions, whose tids must run 1..n: their
    rows, which each Transaction checked when built, become its columns
    at once. It keeps no reference to them; its transactions view is
    formed from the columns."""
    transactions = tuple(transactions)
    for pos, tx in enumerate(transactions, start=1):
        if tx.tid != pos:
            raise ValueError(f"tid {tx.tid} at position {pos}; tids must be 1..n")
    groups = tuple(map(attrgetter("rows"), transactions))
    rows = tuple(chain.from_iterable(groups))
    return UncertainDatabase._of_checked(*(map(itemgetter(k), rows) for k in range(3)),
                                         map(len, groups))
