"""Domain types for uncertain quantitative transaction databases.

An uncertain database is an ordered sequence of transactions. Each
transaction entry carries an item id, a purchase quantity and an
existence probability. Unit utilities (signed, e.g. profit per unit)
live in a separate utility table. Every other module works purely in
terms of these types.

Each type checks its own rules once, when it is built, and raises
ValueError: an entry's item >= 0, quantity >= 1 and probability in
(0, 1]; a transaction's non-empty, strictly ascending items; a
database's tids 1..n; a table's ids >= 0 and finite utilities; the
thresholds' ranges. check_utilities, which mine() and the oracle call
first, checks a database against its table.

All types are immutable after construction and safe to share across
threads.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping

Item = int  # non-negative integer identifier


@dataclass(frozen=True)
class TransactionEntry:
    """One item occurrence: item >= 0, quantity >= 1, probability in (0, 1]."""

    item: Item
    quantity: int
    probability: float

    def __post_init__(self) -> None:
        if self.item < 0:
            raise ValueError(f"item id must be >= 0, got {self.item}")
        if self.quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {self.quantity}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")


@dataclass(frozen=True)
class Transaction:
    """A tid (1-based position) plus its entries, which must be non-empty
    and in strictly ascending item order."""

    tid: int
    entries: tuple[TransactionEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"transaction {self.tid} is empty")
        prev = -1
        for e in self.entries:
            if e.item <= prev:
                raise ValueError(f"duplicate item {e.item} in transaction" if e.item == prev
                                 else f"items must ascend, got {e.item} after {prev}")
            prev = e.item


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
            for e in tx.entries:
                totals[e.item] = totals.get(e.item, 0) + e.quantity
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


@dataclass(frozen=True, order=True)
class Pattern:
    """A non-empty itemset, canonically stored sorted by ascending id."""

    items: tuple[Item, ...]

    @classmethod
    def of(cls, items: Iterable[Item]) -> "Pattern":
        return cls(tuple(sorted(items)))

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class MinedPattern:
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


def make_transaction(tid: int, entries: Iterable[TransactionEntry]) -> Transaction:
    """Build a transaction with entries normalized to ascending item id."""
    return Transaction(tid, tuple(sorted(entries, key=lambda e: e.item)))


def make_database(transactions: Iterable[Transaction]) -> UncertainDatabase:
    return UncertainDatabase(tuple(transactions))
