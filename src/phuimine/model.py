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
ValueError: _rules_hold holds the occurrence rules over columns, and
_raise_broken_rule names the first one broken, for a Transaction, a
TransactionEntry, a database built from columns or all the rows of a
parsed chunk of lines, which sorted_columns checks at once; a
transaction is non-empty; a database's tids run 1..n; a table's ids are
>= 0 and its utilities finite; thresholds have their ranges.
check_utilities, which mine() and the oracle call first, checks a
database against its table.

All types are immutable after construction and safe to share across
threads. UncertainDatabase caches what it derives: a database that
make_database built forms its columns on first use, and one built from
columns forms its transactions view on first use. Two threads that
race there each build equal values, and one of them is kept, so
`db.transactions is db.transactions` need not hold across threads.
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
    by _replace. _make stays unchecked: Transaction.entries uses it to
    view rows that Transaction has already checked."""

    __slots__ = ()

    def __new__(cls, item: Item, quantity: int, probability: float) -> "TransactionEntry":
        _check_rows(((item, quantity, probability),))
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


def _check_rows(rows: tuple[tuple[Item, int, float], ...]) -> None:
    """Raise ValueError for the first occurrence rule that the (item,
    quantity, probability) rows of one transaction break; only a failure
    walks the rows."""
    items, quantities, probabilities = zip(*rows, strict=True)
    if not _rules_hold(items, quantities, probabilities):
        _raise_broken_rule(items, quantities, probabilities)


class Transaction(namedtuple("Transaction", "tid rows")):
    """A tid (1-based position) plus its rows, one exact (item, quantity,
    probability) tuple per occurrence, from any iterable of triples;
    equal to the plain tuple (tid, rows). Checked when built, by
    _replace and when unpickled; _make and tuple.__new__ stay unchecked,
    for rows that are known to keep every rule."""

    __slots__ = ()

    def __new__(cls, tid: int, entries: Iterable[tuple[Item, int, float]]) -> "Transaction":
        rows = tuple(map(tuple, entries))
        if not rows:
            raise ValueError(f"transaction {tid} is empty")
        _check_rows(rows)
        return tuple.__new__(cls, (tid, rows))

    def _replace(self, **changes) -> "Transaction":
        """A copy with the named fields changed, checked as when built."""
        return Transaction(*super()._replace(**changes))

    @property
    def entries(self) -> tuple[TransactionEntry, ...]:
        return tuple(map(TransactionEntry._make, self.rows))


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


def _item_totals(items: Iterable[Item], quantities: Iterable[int]) -> dict[Item, int]:
    """Each item's summed quantity, keyed in order of first occurrence."""
    totals: dict[Item, int] = {}
    get = totals.get
    for item, quantity in zip(items, quantities):
        totals[item] = get(item, 0) + quantity
    return totals


_COLUMNS = ("items", "quantities", "probabilities", "sizes")


class UncertainDatabase:
    """Transactions stored as whole-database columns: every occurrence's
    item, quantity and probability, transaction after transaction, and
    each transaction's number of rows (its size). The tids are the
    positions 1..n. Each occurring item's total quantity is derived when
    the database is built; equality and hashing look at the columns
    alone.

    UncertainDatabase(items, quantities, probabilities, sizes) checks
    the columns as Transaction checks its rows: every transaction
    non-empty, its items ascending. parse_database builds one from
    checked chunks of lines and prefix(n) from a prefix of the columns,
    neither checking again; unpickling runs the checks again, on the
    columns alone. make_database keeps the Transactions it is given as
    the transactions view and forms the columns from them on first use;
    a database built from columns forms the view on first use.

    The size (number of transactions) is fixed at load time and is the
    |D| used in the probability bound, even if later processing drops
    items from transactions.
    """

    # items, quantities and probabilities hold one entry per row, sizes
    # one per transaction; a database that make_database built has them
    # unset until first use, when __getattr__ forms them from the view
    __slots__ = _COLUMNS + ("_transactions", "item_quantity")

    def __init__(self, items: Iterable[Item], quantities: Iterable[int],
                 probabilities: Iterable[float], sizes: Iterable[int]) -> None:
        columns = tuple(map(tuple, (items, quantities, probabilities, sizes)))
        *rows, sizes = columns
        if set(map(len, rows)) - {sum(sizes)}:
            raise ValueError(f"columns of {', '.join(map(str, map(len, rows)))} rows "
                             f"for transactions of {sum(sizes)}")
        if sizes and min(sizes) < 1:
            raise ValueError(f"transaction {sizes.index(min(sizes)) + 1} is empty")
        if sizes and not _rules_hold(*rows, set(accumulate(sizes))):
            _raise_broken_rule(*rows, set(accumulate(sizes)))
        self._set(columns, None, _item_totals(*rows[:2]))

    def _set(self, columns, transactions, item_quantity) -> None:
        for name, column in zip(_COLUMNS, columns or ()):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_transactions", transactions)
        object.__setattr__(self, "item_quantity", item_quantity)

    @classmethod
    def _of_checked(cls, items, quantities, probabilities, sizes) -> "UncertainDatabase":
        """A database of columns that are known to keep every rule."""
        db = object.__new__(cls)
        columns = tuple(map(tuple, (items, quantities, probabilities, sizes)))
        db._set(columns, None, _item_totals(*columns[:2]))
        return db

    def __getattr__(self, name: str):
        """A column not yet formed: form all four from the transactions."""
        if name not in _COLUMNS:
            raise AttributeError(name)
        groups = tuple(map(attrgetter("rows"), self._transactions))
        rows = tuple(chain.from_iterable(groups))
        self._set((*(tuple(map(itemgetter(k), rows)) for k in range(3)), tuple(map(len, groups))),
                  self._transactions, self.item_quantity)
        return object.__getattribute__(self, name)

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
        """The Transactions, a read-only view: make_database keeps the
        ones it was given; otherwise they are formed once, on first use."""
        if self._transactions is None:
            rows = zip(self.items, self.quantities, self.probabilities)
            object.__setattr__(self, "_transactions", tuple(map(
                tuple.__new__, repeat(Transaction),
                zip(count(1), map(tuple, map(islice, repeat(rows), self.sizes))))))
        return self._transactions

    def prefix(self, n: int) -> "UncertainDatabase":
        """The database of the first n transactions, cut from the columns."""
        if not 0 <= n <= self.size:
            raise ValueError(f"prefix of {n} transactions outside 0..{self.size}")
        items, quantities, probabilities, sizes = self.columns
        end = sum(sizes[:n])
        return UncertainDatabase._of_checked(items[:end], quantities[:end],
                                             probabilities[:end], sizes[:n])

    def utilities(self, table: "UtilityTable") -> list[float]:
        """Every row's utility, unit utility x quantity, as one column.
        Raises KeyError for an item that the table lacks."""
        return list(map(mul, map(table.entries.__getitem__, self.items), self.quantities))

    @property
    def item_universe(self) -> frozenset[Item]:
        """The items that occur in the transactions."""
        return frozenset(self.item_quantity)

    @property
    def size(self) -> int:
        if self._transactions is not None:
            return len(self._transactions)
        return len(self.sizes)


@dataclass(frozen=True)
class UtilityTable:
    """Signed unit utility per item (may be negative, zero or positive);
    item ids must be >= 0 and every utility finite."""

    entries: Mapping[Item, float]

    def __post_init__(self) -> None:
        for item, u in self.entries.items():
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


def check_utilities(db: UncertainDatabase, table: UtilityTable) -> None:
    """Check a database against its utility table, in O(items): every
    occurring item needs a unit utility, and S, the sum over items of
    |u| x (total quantity), must be at most half the largest float.

    That bound is enough: each utility sum the miner or the oracle forms
    (a pattern's utility, pu, nu and rpu, a transaction's rtu, an item's
    rtwu, an EUCS cell, s1's m_util, the oracle's totals) counts every
    occurrence's u x quantity at most once, so it is at most S in
    magnitude; the factor of two leaves room for rounding.

    Raises DatabaseValidationError.
    """
    units = table.entries
    missing = sorted(i for i in db.item_quantity if i not in units)
    if missing:
        raise DatabaseValidationError(f"invalid database: {len(missing)} item(s) missing "
                                      f"from utility table, first {missing[:5]}")
    limit = sys.float_info.max / 2
    try:
        total = sum(abs(units[i]) * q for i, q in db.item_quantity.items())
    except OverflowError:  # a quantity too large to become a float
        total = math.inf
    if not total <= limit:
        raise DatabaseValidationError(
            f"invalid database: summed |utility| x quantity, {total}, is not finite "
            f"or above {limit} (half the largest float)")


def make_database(transactions: Iterable[Transaction]) -> UncertainDatabase:
    """The database of the Transactions, whose tids must run 1..n. It
    keeps them as its transactions view; its columns are formed from
    them on first use."""
    transactions = tuple(transactions)
    for pos, tx in enumerate(transactions, start=1):
        if tx.tid != pos:
            raise ValueError(f"tid {tx.tid} at position {pos}; tids must be 1..n")
    rows = tuple(chain.from_iterable(map(attrgetter("rows"), transactions)))
    db = object.__new__(UncertainDatabase)
    db._set(None, transactions, _item_totals(map(itemgetter(0), rows), map(itemgetter(1), rows)))
    return db
