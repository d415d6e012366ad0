"""Domain types for uncertain quantitative transaction databases.

A database is an ordered sequence of transactions; each holds its
occurrences as rows of plain (item, quantity, probability) tuples, and
Transaction.entries views them as TransactionEntry, with named fields.
Unit utilities (signed, e.g. profit per unit) live in a utility table.

Each type checks its own rules once, when it is built, and raises
ValueError: _check_rows holds the occurrence rules for Transaction and
TransactionEntry; a transaction is non-empty; a database's tids run
1..n; a table's ids are >= 0 and its utilities finite; thresholds have
their ranges. check_utilities, which mine() and the oracle call first,
checks a database against its table.

All types are immutable after construction and safe to share across
threads.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from operator import ge, lt
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


def _check_rows(rows: tuple[tuple[Item, int, float], ...]) -> None:
    """Raise ValueError unless every (item, quantity, probability) row has
    item >= 0, quantity >= 1, probability in (0, 1] and the items ascend
    strictly. C-level calls check the columns (NaN fails them); only a
    failure walks the rows, every row's values before the order."""
    items, quantities, probabilities = zip(*rows, strict=True)
    if (items[0] >= 0 and min(quantities) >= 1
            and all(map(lt, repeat(0.0), probabilities))
            and all(map(ge, repeat(1.0), probabilities))
            and all(map(lt, items, items[1:]))):
        return
    for item, quantity, probability in rows:
        if item < 0:
            raise ValueError(f"item id must be >= 0, got {item}")
        if quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {quantity}")
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
    for prev, item in zip(items, items[1:]):
        if item <= prev:
            raise ValueError(f"duplicate item {item} in transaction" if item == prev
                             else f"items must ascend, got {item} after {prev}")


@dataclass(frozen=True, init=False, slots=True)
class Transaction:
    """A tid (1-based position) plus its rows, one exact (item, quantity,
    probability) tuple per occurrence, from any iterable of triples."""

    tid: int
    rows: tuple[tuple[Item, int, float], ...]

    def __init__(self, tid: int, entries: Iterable[tuple[Item, int, float]]) -> None:
        rows = tuple(map(tuple, entries))
        if not rows:
            raise ValueError(f"transaction {tid} is empty")
        _check_rows(rows)
        object.__setattr__(self, "tid", tid)
        object.__setattr__(self, "rows", rows)

    @property
    def entries(self) -> tuple[TransactionEntry, ...]:
        return tuple(map(TransactionEntry._make, self.rows))


@dataclass(frozen=True)
class UncertainDatabase:
    """Ordered transactions, whose tids must run 1..n, plus each
    occurring item's total quantity, derived from them (so equality and
    hashing look at the transactions alone).

    The size (number of transactions) is fixed at load time and is the
    |D| used in the probability bound, even if later processing drops
    items from transactions.
    """

    transactions: tuple[Transaction, ...]
    item_quantity: dict[Item, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        totals: dict[Item, int] = {}
        for pos, tx in enumerate(self.transactions, start=1):
            if tx.tid != pos:
                raise ValueError(f"tid {tx.tid} at position {pos}; tids must be 1..n")
            for item, quantity, _probability in tx.rows:
                totals[item] = totals.get(item, 0) + quantity
        object.__setattr__(self, "item_quantity", totals)

    @property
    def item_universe(self) -> frozenset[Item]:
        """The items that occur in the transactions."""
        return frozenset(self.item_quantity)

    @property
    def size(self) -> int:
        return len(self.transactions)


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

    def unit_utility(self, item: Item) -> float:
        return self.entries[item]

    def is_positive_group(self, item: Item) -> bool:
        # Zero-utility items count as positive: they contribute nothing
        # either way and this keeps the item ordering total.
        return self.entries[item] >= 0


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
    return UncertainDatabase(tuple(transactions))
