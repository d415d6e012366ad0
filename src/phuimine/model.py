"""Domain types for uncertain quantitative transaction databases.

An uncertain database is an ordered sequence of transactions. Each
transaction entry carries an item id, a purchase quantity and an
existence probability in (0, 1]. Unit utilities (signed, e.g. profit
per unit) live in a separate utility table. Every other module works
purely in terms of these types.

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
    """One item occurrence: quantity >= 1, probability in (0, 1]."""

    item: Item
    quantity: int
    probability: float


@dataclass(frozen=True)
class Transaction:
    """A tid (1-based position) plus its entries, sorted by item id."""

    tid: int
    entries: tuple[TransactionEntry, ...]

    def items(self) -> frozenset[Item]:
        return frozenset(e.item for e in self.entries)

    def entry_for(self, item: Item) -> TransactionEntry | None:
        for e in self.entries:
            if e.item == item:
                return e
        return None


@dataclass(frozen=True)
class UncertainDatabase:
    """Ordered transactions plus the set of items that occur in them.

    The size (number of transactions) is fixed at load time and is the
    |D| used in the probability bound, even if later processing drops
    items from transactions.
    """

    transactions: tuple[Transaction, ...]
    item_universe: frozenset[Item]

    @property
    def size(self) -> int:
        return len(self.transactions)


@dataclass(frozen=True)
class UtilityTable:
    """Signed unit utility per item (may be negative, zero or positive)."""

    entries: Mapping[Item, float]

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


@dataclass(frozen=True)
class Violation:
    """One validation finding; tid 0 means a database-level problem."""

    tid: int
    item: Item | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


class DatabaseValidationError(ValueError):
    """Raised by consumers that require a valid database."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(
            f"T{v.tid}" + (f" item {v.item}" if v.item is not None else "") + f": {v.message}"
            for v in report.violations[:5]
        )
        more = "" if len(report.violations) <= 5 else f" (+{len(report.violations) - 5} more)"
        super().__init__(f"invalid database: {lines}{more}")


def validate_database(db: UncertainDatabase, table: UtilityTable) -> ValidationReport:
    """Check a database against its utility table.

    Returns a report rather than raising; an empty report means success.
    Checks: duplicate items within a transaction, probability outside
    (0, 1], quantity < 1, items without a utility-table entry, a
    non-finite unit utility, an occurrence whose utility (unit utility
    times quantity) is not a finite float, empty transactions and
    non-consecutive tids.
    """
    violations: list[Violation] = [
        Violation(0, item, f"utility {u} is not finite")
        for item, u in sorted(table.entries.items())
        if not math.isfinite(u)
    ]
    # Only a quantity above its item's bound can make unit * quantity
    # overflow (or be too large to become a float); the exact test runs
    # on those alone.
    quantity_bound = {
        item: sys.float_info.max / 2 / max(abs(u), 1.0) if math.isfinite(u) else math.inf
        for item, u in table.entries.items()
    }
    for pos, tx in enumerate(db.transactions, start=1):
        if tx.tid != pos:
            violations.append(Violation(tx.tid, None, f"tid {tx.tid} at position {pos}; tids must be 1..n"))
        if not tx.entries:
            violations.append(Violation(tx.tid, None, "empty transaction"))
        seen: set[Item] = set()
        for e in tx.entries:
            if e.item in seen:
                violations.append(Violation(tx.tid, e.item, "duplicate item"))
            seen.add(e.item)
            if not (0.0 < e.probability <= 1.0):
                violations.append(Violation(tx.tid, e.item, f"probability {e.probability} out of range (0, 1]"))
            if e.quantity < 1:
                violations.append(Violation(tx.tid, e.item, f"quantity {e.quantity} must be >= 1"))
            bound = quantity_bound.get(e.item)
            if bound is None:
                violations.append(Violation(tx.tid, e.item, "item missing from utility table"))
            elif e.quantity > bound and not _finite_product(table.entries[e.item], e.quantity):
                violations.append(Violation(
                    tx.tid, e.item,
                    f"utility {table.entries[e.item]} x quantity {e.quantity} is not finite"))
    return ValidationReport(tuple(violations))


def _finite_product(unit: float, quantity: int) -> bool:
    try:
        return math.isfinite(unit * quantity)
    except OverflowError:  # a quantity too large to become a float
        return False


def make_transaction(tid: int, entries: Iterable[TransactionEntry]) -> Transaction:
    """Build a transaction with entries normalized to ascending item id."""
    return Transaction(tid, tuple(sorted(entries, key=lambda e: e.item)))


def make_database(transactions: Iterable[Transaction]) -> UncertainDatabase:
    txs = tuple(transactions)
    universe = frozenset(e.item for tx in txs for e in tx.entries)
    return UncertainDatabase(txs, universe)
