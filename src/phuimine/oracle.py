"""Brute-force reference miner.

Enumerates every itemset that occurs in at least one transaction,
totals its utility and expected support directly from the definitions,
and applies the two threshold tests. Deliberately naive; its only job
is to be obviously correct so the list-based miner can be checked
against it. Patterns with zero support are never emitted, even under
degenerate thresholds.
"""

from .model import (
    MinedPattern,
    Pattern,
    Thresholds,
    UncertainDatabase,
    UtilityTable,
    check_utilities,
)


# Largest item universe the oracle enumerates unless told otherwise.
MAX_ITEMS = 20


class UniverseTooLargeError(ValueError):
    pass


def enumerate_supported(
    db: UncertainDatabase,
    table: UtilityTable,
    max_items: int = MAX_ITEMS,
) -> dict[tuple[int, ...], tuple[float, float]]:
    """Exact (utility, expected support) for every supported itemset.

    Lists the subsets of each transaction by extension: starting from
    the empty set (utility 0.0, probability 1.0), each item in ascending
    id order extends every subset listed so far, adding its utility and
    multiplying its probability. A subset's measures are thus formed in
    ascending item order, exactly as a per-combination loop would. The
    list holds at most 2^|T| entries, as many as the transaction
    contributes to the totals anyway, and the walk over all transactions
    is bounded by the sum of 2^|T|, far below 2^universe on sparse data.
    Per-pattern totals accumulate in ascending tid order. Raises
    DatabaseValidationError as mine() does, and UniverseTooLargeError.
    """
    check_utilities(db, table)
    if len(db.item_universe) > max_items:
        raise UniverseTooLargeError(
            f"item universe has {len(db.item_universe)} items, limit is {max_items}"
        )
    totals: dict[tuple[int, ...], tuple[float, float]] = {}
    for tx in db.transactions:
        subsets: list[tuple[tuple[int, ...], float, float]] = [((), 0.0, 1.0)]
        for item, quantity, ip in tx.rows:
            iu = table.unit_utility(item) * quantity
            subsets += [(key + (item,), u + iu, p * ip) for key, u, p in subsets]
        for key, u, p in subsets[1:]:
            acc = totals.get(key)
            totals[key] = (u, p) if acc is None else (acc[0] + u, acc[1] + p)
    return totals


def qualifying_patterns(
    measures: dict[tuple[int, ...], tuple[float, float]],
    thresholds: Thresholds,
    db_size: int,
) -> list[MinedPattern]:
    """Apply the two threshold tests to pre-enumerated measures."""
    bound = thresholds.probability_bound(db_size)
    hits = [
        MinedPattern(Pattern(items), u, p)
        for items, (u, p) in measures.items()
        if u >= thresholds.min_util and p >= bound
    ]
    hits.sort(key=lambda m: (len(m.pattern.items), m.pattern.items))
    return hits


def brute_force_mine(
    db: UncertainDatabase,
    table: UtilityTable,
    thresholds: Thresholds,
    max_items: int = MAX_ITEMS,
) -> list[MinedPattern]:
    """All qualifying patterns, sorted by (length, item ids)."""
    return qualifying_patterns(
        enumerate_supported(db, table, max_items), thresholds, db.size
    )
