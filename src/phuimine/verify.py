"""Miner-vs-oracle equivalence harness.

Drives the miner under every preset against the brute-force reference
on fixed inputs or on seeded fuzz instances, comparing result sets
exactly on membership and utility and within a relative tolerance
(`PRO_REL_TOL`) on expected support, and reporting the first
divergence in (length, item ids) order. Shared by the CLI `verify`
command and the test suite.
"""

import random
from collections import Counter
from dataclasses import dataclass

from . import oracle
from .datagen import generate_small
from .miner import PRESETS, MiningConfig, mine
from .model import (
    MinedPattern,
    Pattern,
    Thresholds,
    UncertainDatabase,
    UtilityTable,
)

PRO_REL_TOL = 1e-9

PRESET_SEQUENCE = list(PRESETS)


def probabilities_close(a: float, b: float) -> bool:
    return abs(a - b) <= PRO_REL_TOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class Divergence:
    """First difference found between two result sets."""

    label_a: str
    label_b: str
    pattern: Pattern
    detail: str

    def __str__(self) -> str:
        ids = " ".join(str(i) for i in self.pattern.items)
        return f"{self.label_a} vs {self.label_b}: pattern {{{ids}}}: {self.detail}"


def compare_results(
    label_a: str,
    results_a: list[MinedPattern],
    label_b: str,
    results_b: list[MinedPattern],
) -> Divergence | None:
    """None when the sets agree; otherwise the first divergent pattern.

    Two sets agree when they hold the same patterns, each with the same
    utility (exact float equality) and expected supports within
    `PRO_REL_TOL` relative. The first divergence is the shortest, then
    lowest-id, pattern that is missing from one side or differs in a
    measure, or that one side lists more than once. Both sets are keyed
    on their item tuples, which hash and compare in C; the ordered walk
    runs only when the sets differ.
    """
    by_items_a = {m.pattern.items: m for m in results_a}
    by_items_b = {m.pattern.items: m for m in results_b}
    repeated_a = _repeated(results_a, by_items_a)
    repeated_b = _repeated(results_b, by_items_b)
    if len(by_items_a) == len(by_items_b) and not repeated_a and not repeated_b:
        # equal supports are close; the call is made only for the rest
        for items, ma in by_items_a.items():
            mb = by_items_b.get(items)
            if (mb is None or ma.utility != mb.utility
                    or (ma.expected_support != mb.expected_support
                        and not probabilities_close(ma.expected_support,
                                                    mb.expected_support))):
                break
        else:
            return None
    for items in sorted(by_items_a.keys() | by_items_b.keys(),
                        key=lambda k: (len(k), k)):
        ma = by_items_a.get(items)
        mb = by_items_b.get(items)
        if items in repeated_a:
            return Divergence(label_a, label_b, ma.pattern,
                              f"listed {repeated_a[items]} times in {label_a}")
        if items in repeated_b:
            return Divergence(label_a, label_b, mb.pattern,
                              f"listed {repeated_b[items]} times in {label_b}")
        if ma is None:
            return Divergence(label_a, label_b, mb.pattern, f"missing from {label_a}")
        if mb is None:
            return Divergence(label_a, label_b, ma.pattern, f"missing from {label_b}")
        if ma.utility != mb.utility:
            return Divergence(label_a, label_b, ma.pattern,
                              f"utility {ma.utility} != {mb.utility}")
        if not probabilities_close(ma.expected_support, mb.expected_support):
            return Divergence(label_a, label_b, ma.pattern,
                              f"expected support {ma.expected_support} != {mb.expected_support}")
    return None


def _repeated(results: list[MinedPattern], by_items: dict) -> dict:
    """{items: count} for the patterns that results lists more than
    once; by_items, results keyed on their items, holds one record per
    pattern, so it is shorter exactly when some pattern repeats."""
    if len(by_items) == len(results):
        return {}
    counts = Counter(m.pattern.items for m in results)
    return {items: n for items, n in counts.items() if n > 1}


def check_instance(
    db: UncertainDatabase,
    table: UtilityTable,
    thresholds: Thresholds,
    mine_fn=mine,
) -> Divergence | None:
    """Run the oracle and every preset of PRESET_SEQUENCE on one instance;
    first divergence or None. `mine_fn` is swappable so the harness can
    be self-tested against a deliberately broken miner."""
    reference = oracle.brute_force_mine(db, table, thresholds)
    return check_against(reference, db, table, thresholds, mine_fn)


def check_against(
    reference: list[MinedPattern],
    db: UncertainDatabase,
    table: UtilityTable,
    thresholds: Thresholds,
    mine_fn=mine,
) -> Divergence | None:
    """Run every preset on one instance and compare each with the given
    oracle result; first divergence or None."""
    for preset in PRESET_SEQUENCE:
        found, _stats = mine_fn(db, table, thresholds, MiningConfig.from_preset(preset))
        diff = compare_results("oracle", reference, preset, found)
        if diff is not None:
            return diff
    return None


NEGATIVE_FRACTIONS = [0.0, 0.2, 0.5, 1.0]


@dataclass(frozen=True)
class FuzzCase:
    seed: int
    db: UncertainDatabase
    table: UtilityTable
    thresholds_list: tuple[Thresholds, ...]
    # exact (utility, expected support) per supported itemset, from the
    # oracle's enumeration; reusable for reference filtering
    measures: dict


def make_fuzz_case(
    seed: int,
    *,
    max_items: int = 12,
    max_transactions: int = 30,
) -> FuzzCase:
    """One seeded instance plus a spread of threshold pairs.

    Thresholds mix random values with exact boundaries taken from a
    supported pattern's own measures, so the non-strict >= comparisons
    get exercised on both sides of equality.
    """
    negative_fraction = NEGATIVE_FRACTIONS[seed % len(NEGATIVE_FRACTIONS)]
    db, table = generate_small(
        seed,
        max_items=max_items,
        max_transactions=max_transactions,
        negative_fraction=negative_fraction,
    )
    rng = random.Random(seed ^ 0x5EED)
    measures = oracle.enumerate_supported(db, table)
    patterns = sorted(measures)
    n = db.size

    thresholds_list = []
    max_u = max(u for u, _ in measures.values())
    # Random thresholds; min_util occasionally negative or zero.
    u_pick = rng.choice([0.0, rng.uniform(-10.0, 0.0), rng.uniform(0.0, max(1.0, max_u))])
    thresholds_list.append(Thresholds(u_pick, rng.random()))
    # Exact boundary: both thresholds sit on one pattern's measures.
    u, p = measures[patterns[rng.randrange(len(patterns))]]
    thresholds_list.append(Thresholds(u, min(1.0, p / n)))
    # Boundary utility with an easy probability, and vice versa.
    u2, p2 = measures[patterns[rng.randrange(len(patterns))]]
    thresholds_list.append(Thresholds(u2, 0.0))
    thresholds_list.append(Thresholds(min(0.0, -max_u), min(1.0, p2 / n)))
    return FuzzCase(seed, db, table, tuple(thresholds_list), measures)


def run_fuzz(
    n_cases: int,
    seed: int = 0,
    *,
    max_items: int = 12,
    max_transactions: int = 30,
    mine_fn=mine,
) -> Divergence | None:
    """Fuzz sweep; None when every case agrees under every preset.

    Each case's subsets are enumerated once, by make_fuzz_case; the
    oracle result for each threshold pair is filtered from those
    measures."""
    for index in range(n_cases):
        case = make_fuzz_case(
            seed + index, max_items=max_items, max_transactions=max_transactions
        )
        for thresholds in case.thresholds_list:
            reference = oracle.qualifying_patterns(case.measures, thresholds, case.db.size)
            diff = check_against(reference, case.db, case.table, thresholds, mine_fn)
            if diff is not None:
                return diff
    return None


__all__ = [
    "Divergence",
    "FuzzCase",
    "NEGATIVE_FRACTIONS",
    "PRESET_SEQUENCE",
    "PRO_REL_TOL",
    "check_against",
    "check_instance",
    "compare_results",
    "make_fuzz_case",
    "probabilities_close",
    "run_fuzz",
]
