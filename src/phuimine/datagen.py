"""Seedable synthetic databases for tests and benchmarks.

The full generator follows the usual protocol for this kind of
benchmark data: signed unit utilities with log-normally distributed
magnitudes, small uniform quantities, and uniform existence
probabilities. A separate small-instance generator feeds the
miner-vs-oracle equivalence tests; it restricts probabilities to
multiples of 1/8 so that every probability product and sum both the
miner and the oracle can form is exact in binary floating point, which
makes threshold comparisons at exact boundaries deterministic.

Randomness is consumed in a fixed order (utility table, then
transaction lengths, then per-transaction entries) so a seed pins the
output byte for byte across platforms.
"""

import math
import random
from dataclasses import dataclass

from .model import Transaction, UncertainDatabase, UtilityTable, make_database


@dataclass(frozen=True)
class GenParams:
    n_transactions: int
    n_items: int
    avg_tx_len: float = 5.0
    max_tx_len: int = 12
    utility_range: tuple[float, float] = (-1000.0, 1000.0)
    lognormal_mu: float = 5.0
    lognormal_sigma: float = 1.0
    quantity_range: tuple[int, int] = (1, 5)
    negative_fraction: float = 0.2
    seed: int = 0
    per_item_probability: bool = False

    def validate(self) -> None:
        lo, hi = self.utility_range
        if self.n_transactions < 0 or self.n_items < 0:
            raise ValueError("n_transactions and n_items must be >= 0")
        if self.n_transactions > 0 and self.n_items == 0:
            raise ValueError("cannot generate transactions without items")
        if not 0.0 <= self.negative_fraction <= 1.0:
            raise ValueError("negative_fraction must be in [0, 1]")
        if self.negative_fraction > 0 and not lo < 0 < hi:
            raise ValueError("utility_range must straddle zero when negative items are requested")
        if self.negative_fraction == 0 and hi <= 0:
            raise ValueError("utility_range upper bound must be positive")
        if self.avg_tx_len < 1 or self.max_tx_len < 1:
            raise ValueError("transaction lengths must be >= 1")
        q_lo, q_hi = self.quantity_range
        if q_lo != 1 or q_hi < 1:
            raise ValueError("quantity_range must be [1, qmax] with qmax >= 1")


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's method; lam stays small (transaction lengths).
    if lam <= 0.0:
        return 0
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _open_unit(rng: random.Random) -> float:
    p = rng.random()
    while p == 0.0:
        p = rng.random()
    return p


def generate(params: GenParams) -> tuple[UncertainDatabase, UtilityTable]:
    """Deterministic (database, utility table) pair for the given params.

    Unit utilities are integers: magnitude = round(lognormal) clamped to
    [1, hi] (or [1, -lo] for the negative_fraction share of items that
    get a flipped sign). Quantities are uniform in quantity_range and
    probabilities uniform in the open interval (0, 1).
    """
    params.validate()
    rng = random.Random(params.seed)
    lo, hi = params.utility_range

    # Phase 1: utility table (magnitudes, then the negative item set,
    # then optional per-item probabilities).
    items = list(range(1, params.n_items + 1))
    magnitudes = [
        round(rng.lognormvariate(params.lognormal_mu, params.lognormal_sigma))
        for _ in items
    ]
    n_negative = round(params.negative_fraction * params.n_items)
    negative_items = set(rng.sample(items, n_negative)) if n_negative else set()
    table_entries = {}
    for item, mag in zip(items, magnitudes):
        if item in negative_items:
            table_entries[item] = -float(min(max(mag, 1), int(-lo)))
        else:
            table_entries[item] = float(min(max(mag, 1), int(hi)))
    item_probability = (
        {item: _open_unit(rng) for item in items} if params.per_item_probability else None
    )

    # Phase 2: transaction lengths.
    len_cap = min(params.max_tx_len, params.n_items)
    lengths = [
        max(1, min(_poisson(rng, params.avg_tx_len - 1.0) + 1, len_cap))
        for _ in range(params.n_transactions)
    ]

    # Phase 3: transaction contents.
    q_lo, q_hi = params.quantity_range
    transactions = []
    for tid, length in enumerate(lengths, start=1):
        chosen = sorted(rng.sample(items, length))
        # per item: its quantity, then its probability, drawn in that order
        transactions.append(Transaction(tid, [
            (item, rng.randint(q_lo, q_hi),
             item_probability[item] if item_probability is not None else _open_unit(rng))
            for item in chosen
        ]))

    return make_database(transactions), UtilityTable(table_entries)


# Probability palette for small instances: multiples of 1/8 in (0, 1].
# Products of up to ~18 of these (and their sums over <= 30 rows) stay
# exactly representable in an IEEE double, so the miner's join-built
# probabilities and the oracle's direct products agree bit for bit.
_SMALL_PROBS = [i / 8.0 for i in range(1, 9)]


def generate_small(
    seed: int,
    *,
    max_items: int = 12,
    max_transactions: int = 30,
    negative_fraction: float = 0.2,
    max_unit_utility: int = 20,
    max_quantity: int = 5,
) -> tuple[UncertainDatabase, UtilityTable]:
    """Small random instance for oracle-equivalence fuzzing.

    Integer unit utilities and eighth-grid probabilities keep all
    measure arithmetic exact (see module docstring). Transaction
    lengths are capped at 10 to preserve that exactness.
    """
    rng = random.Random(seed)
    n_items = rng.randint(1, max_items)
    n_tx = rng.randint(1, max_transactions)
    items = list(range(1, n_items + 1))

    n_negative = round(negative_fraction * n_items)
    negative_items = set(rng.sample(items, n_negative)) if n_negative else set()
    table_entries = {}
    for item in items:
        mag = float(rng.randint(1, max_unit_utility))
        table_entries[item] = -mag if item in negative_items else mag

    len_cap = min(10, n_items)
    transactions = []
    for tid in range(1, n_tx + 1):
        length = rng.randint(1, len_cap)
        chosen = sorted(rng.sample(items, length))
        transactions.append(Transaction(tid, [
            (item, rng.randint(1, max_quantity), rng.choice(_SMALL_PROBS)) for item in chosen
        ]))

    return make_database(transactions), UtilityTable(table_entries)
