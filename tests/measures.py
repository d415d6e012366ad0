"""Reference implementations of the scalar measures.

These are the slow-but-obvious definitions of utility, expected
support, (redefined) transaction utility and the pattern acceptance
predicate. The test suite uses them as ground truth against the
list-based miner and the oracle; they read transactions through the
TransactionEntry view, tx.entries.

All database-wide sums accumulate in ascending tid order so results
are bit-deterministic.
"""

from phuimine.model import (
    Item,
    Pattern,
    Thresholds,
    Transaction,
    UncertainDatabase,
    UtilityTable,
)


class ItemNotInTransactionError(ValueError):
    pass


class PatternNotInTransactionError(ValueError):
    pass


def item_utility(item: Item, tx: Transaction, table: UtilityTable) -> float:
    """Utility of one item in one transaction: unit utility x quantity."""
    entry = next((e for e in tx.entries if e.item == item), None)
    if entry is None:
        raise ItemNotInTransactionError(f"item {item} not in transaction {tx.tid}")
    return table.entries[item] * entry.quantity


def pattern_utility_in_tx(pattern: Pattern, tx: Transaction, table: UtilityTable) -> float:
    """Sum of member-item utilities; the pattern must be contained in tx."""
    present = {e.item for e in tx.entries}
    if not set(pattern.items) <= present:
        raise PatternNotInTransactionError(
            f"pattern {pattern.items} not contained in transaction {tx.tid}"
        )
    return sum(item_utility(i, tx, table) for i in pattern.items)


def pattern_utility(pattern: Pattern, db: UncertainDatabase, table: UtilityTable) -> float:
    """Total utility over all supporting transactions (0 if unsupported)."""
    want = set(pattern.items)
    total = 0.0
    for tx in db.transactions:
        if want <= {e.item for e in tx.entries}:
            total += pattern_utility_in_tx(pattern, tx, table)
    return total


def pattern_probability_in_tx(pattern: Pattern, tx: Transaction) -> float:
    """Product of member-item existence probabilities."""
    probs = {e.item: e.probability for e in tx.entries}
    if not set(pattern.items) <= probs.keys():
        raise PatternNotInTransactionError(
            f"pattern {pattern.items} not contained in transaction {tx.tid}"
        )
    p = 1.0
    for i in pattern.items:
        p *= probs[i]
    return p


def expected_support(pattern: Pattern, db: UncertainDatabase) -> float:
    """Sum of per-transaction probabilities over supporting transactions."""
    want = set(pattern.items)
    total = 0.0
    for tx in db.transactions:
        if want <= {e.item for e in tx.entries}:
            total += pattern_probability_in_tx(pattern, tx)
    return total


def transaction_utility(tx: Transaction, table: UtilityTable) -> float:
    """Sum of all item utilities in the transaction, negatives included."""
    return sum(table.entries[e.item] * e.quantity for e in tx.entries)


def redefined_transaction_utility(tx: Transaction, table: UtilityTable) -> float:
    """Transaction utility restricted to positive-group items.

    Always >= 0 and >= transaction_utility; this is the per-transaction
    weight behind the anti-monotone rtwu bound.
    """
    return sum(
        table.entries[e.item] * e.quantity
        for e in tx.entries
        if table.entries[e.item] >= 0
    )


def rtwu(pattern: Pattern, db: UncertainDatabase, table: UtilityTable) -> float:
    """Redefined transaction-weighted utilization: sum of positive-group
    transaction utility over supporting transactions. Upper-bounds the
    pattern's utility and is anti-monotone under pattern extension."""
    want = set(pattern.items)
    total = 0.0
    for tx in db.transactions:
        if want <= {e.item for e in tx.entries}:
            total += redefined_transaction_utility(tx, table)
    return total


def is_phui(
    pattern: Pattern,
    db: UncertainDatabase,
    table: UtilityTable,
    thresholds: Thresholds,
) -> bool:
    """The acceptance predicate: utility and expected support both reach
    their bounds. Comparisons are exact >= with no epsilon."""
    if pattern_utility(pattern, db, table) < thresholds.min_util:
        return False
    return expected_support(pattern, db) >= thresholds.probability_bound(db.size)
