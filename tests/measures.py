"""Reference implementations of the scalar measures.

These are the slow-but-obvious definitions of utility, expected
support, (redefined) transaction utility and the pattern acceptance
predicate. The test suite uses them as ground truth against the
list-based miner and the oracle; they read each transaction's rows,
tx.rows, as (item, quantity, probability) tuples.

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
    quantity = next((q for i, q, _p in tx.rows if i == item), None)
    if quantity is None:
        raise ItemNotInTransactionError(f"item {item} not in transaction {tx.tid}")
    return table.entries[item] * quantity


def pattern_utility_in_tx(pattern: Pattern, tx: Transaction, table: UtilityTable) -> float:
    """Sum of member-item utilities; the pattern must be contained in tx."""
    present = {i for i, _q, _p in tx.rows}
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
        if want <= {i for i, _q, _p in tx.rows}:
            total += pattern_utility_in_tx(pattern, tx, table)
    return total


def pattern_probability_in_tx(pattern: Pattern, tx: Transaction) -> float:
    """Product of member-item existence probabilities."""
    probs = {i: p for i, _q, p in tx.rows}
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
        if want <= {i for i, _q, _p in tx.rows}:
            total += pattern_probability_in_tx(pattern, tx)
    return total


def transaction_utility(tx: Transaction, table: UtilityTable) -> float:
    """Sum of all item utilities in the transaction, negatives included."""
    return sum(table.entries[i] * q for i, q, _p in tx.rows)


def redefined_transaction_utility(tx: Transaction, table: UtilityTable) -> float:
    """Transaction utility restricted to positive-group items.

    Always >= 0 and >= transaction_utility; this is the per-transaction
    weight behind the anti-monotone rtwu bound.
    """
    return sum(
        table.entries[i] * q
        for i, q, _p in tx.rows
        if table.entries[i] >= 0
    )


def rtwu(pattern: Pattern, db: UncertainDatabase, table: UtilityTable) -> float:
    """Redefined transaction-weighted utilization: sum of positive-group
    transaction utility over supporting transactions. Upper-bounds the
    pattern's utility and is anti-monotone under pattern extension."""
    want = set(pattern.items)
    total = 0.0
    for tx in db.transactions:
        if want <= {i for i, _q, _p in tx.rows}:
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
