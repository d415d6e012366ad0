"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with `pytest -s`). Criteria 3-6 and 8 share one seeded
fuzz sweep so the whole corpus is mined and cross-checked exactly once.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

from phuimine import dataio, verify
from phuimine.datagen import GenParams, generate
from phuimine.miner import MiningConfig, initial_scan, mine
from phuimine.model import Pattern, Thresholds, make_database
from phuimine.oracle import qualifying_patterns
from phuimine.pulist import (
    build_initial_pulists,
    compute_processing_order,
    construct,
)

import measures
from helpers import (
    A, B, C, D, E,
    EXAMPLE_PHUIS,
    entries_of,
    example_db,
    example_table,
    join_equivalence_walk,
    rel_close,
)

N_FUZZ_CASES = 500
FUZZ_BASE_SEED = 0
COUNTER_PRESETS = ["P12", "P123", "P1234", "ALL"]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    print(f"\n[acceptance] {label}: PASS")


# --- shared fuzz sweep -------------------------------------------------

@dataclass
class SweepOutcome:
    n_cases: int = 0
    elapsed: float = 0.0
    equivalence_failures: list = field(default_factory=list)   # criterion 3
    counter_failures: list = field(default_factory=list)       # criterion 4
    subset_failures: list = field(default_factory=list)        # criterion 5
    join_failures: list = field(default_factory=list)          # criterion 6
    roundtrip_failures: list = field(default_factory=list)     # criterion 8


def _non_increasing(values):
    return all(a >= b for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def sweep():
    import random

    outcome = SweepOutcome(n_cases=N_FUZZ_CASES)
    started = time.perf_counter()
    rng = random.Random(0xACCE97)
    for index in range(N_FUZZ_CASES):
        seed = FUZZ_BASE_SEED + index
        case = verify.make_fuzz_case(seed)
        db, table = case.db, case.table

        if dataio.parse_database(dataio.serialize_database(db)) != db:
            outcome.roundtrip_failures.append(f"seed {seed}: database")
        if dataio.parse_ptable(dataio.serialize_ptable(table)) != table:
            outcome.roundtrip_failures.append(f"seed {seed}: ptable")

        mismatches = join_equivalence_walk(db, table)
        if mismatches:
            outcome.join_failures.append(f"seed {seed}: {mismatches[:3]}")

        strict_set = None
        for thresholds in case.thresholds_list:
            reference = qualifying_patterns(case.measures, thresholds, db.size)
            stats_by_preset = {}
            for preset in verify.PRESET_SEQUENCE:
                found, stats = mine(db, table, thresholds, MiningConfig.from_preset(preset))
                stats_by_preset[preset] = stats
                diff = verify.compare_results("oracle", reference, preset, found)
                if diff is not None:
                    outcome.equivalence_failures.append(f"seed {seed}: {diff}")
                if preset == "ALL" and strict_set is None:
                    strict_set = {m.pattern for m in found}
            chain = [stats_by_preset[p].visited_nodes for p in COUNTER_PRESETS]
            found_counts = {stats_by_preset[p].phuis_found for p in COUNTER_PRESETS}
            if not _non_increasing(chain) or min(chain) < max(found_counts):
                outcome.counter_failures.append(
                    f"seed {seed}: visited {chain} phuis {sorted(found_counts)}")
            if found_counts != {len(reference)}:
                outcome.counter_failures.append(
                    f"seed {seed}: result counts differ across presets: {found_counts}")

        # nested thresholds: loosening both bounds may only add patterns
        strict = case.thresholds_list[0]
        loose = Thresholds(strict.min_util - rng.uniform(0.0, 40.0),
                           max(0.0, strict.min_pro - rng.uniform(0.0, 0.4)))
        loose_set = {m.pattern for m in mine(db, table, loose)[0]}
        if not strict_set <= loose_set:
            outcome.subset_failures.append(
                f"seed {seed}: {sorted(strict_set - loose_set)[:3]}")

    outcome.elapsed = time.perf_counter() - started
    return outcome


# --- criteria ----------------------------------------------------------

def test_c1_running_example_exactness():
    with criterion("C1 running-example exactness"):
        db, table = example_db(), example_table()
        thresholds = Thresholds(20, 0.25)
        results, _ = mine(db, table, thresholds)
        got = {m.pattern.items: m for m in results}
        assert set(got) == set(EXAMPLE_PHUIS), "pattern membership differs"
        for items, (utility, pro) in EXAMPLE_PHUIS.items():
            assert got[items].utility == utility  # exact
            assert rel_close(got[items].expected_support, pro, 1e-9)
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            mine(db, table, thresholds)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 1e-3, f"mine took {min(timings) * 1e3:.3f} ms"


def test_c2_intermediate_values():
    with criterion("C2 intermediate-value checks"):
        db, table = example_db(), example_table()
        assert measures.redefined_transaction_utility(db.transactions[1], table) == 26

        rtwu = initial_scan(db, table, Thresholds(20, 0.25))
        assert rtwu == {A: 185, B: 259, C: 202, D: 231, E: 285}
        assert measures.rtwu(Pattern.of([A, B, E]), db, table) == 161

        order = compute_processing_order(table, rtwu)
        assert order.ordered_items == (A, D, B, E, C)

        lists = dict(zip(order.ordered_items, build_initial_pulists(db, table, order)))
        c_entries = entries_of(lists[C])
        expected_c = [(2, 0.75, 0.0, -2.0, 0.0), (3, 0.70, 0.0, -4.0, 0.0),
                      (4, 0.90, 0.0, -2.0, 0.0), (5, 0.95, 0.0, -8.0, 0.0)]
        for got, want in zip(c_entries, expected_c):
            assert got[0] == want[0] and got[2:] == want[2:]
            assert rel_close(got[1], want[1], 1e-9)
        assert len(c_entries) == len(expected_c)

        ac = construct(lists[A], lists[C])
        expected_ac = [(3, 0.70, 32.0, -4.0, 0.0), (4, 0.81, 24.0, -2.0, 0.0)]
        got_ac = entries_of(ac)
        for got, want in zip(got_ac, expected_ac):
            assert got[0] == want[0] and got[2:] == want[2:]
            assert rel_close(got[1], want[1], 1e-9)
        assert len(got_ac) == len(expected_ac)


def test_c3_oracle_equivalence(sweep):
    with criterion("C3 oracle equivalence (500 fuzz cases, all presets)"):
        assert sweep.n_cases == N_FUZZ_CASES
        assert sweep.equivalence_failures == []
        assert sweep.elapsed < 60.0, f"sweep took {sweep.elapsed:.1f}s"


@pytest.fixture(scope="module")
def ten_k_dataset():
    return generate(GenParams(n_transactions=10_000, n_items=100, avg_tx_len=5.0,
                              max_tx_len=10, negative_fraction=0.2, seed=1234))


def test_c4_pruning_safety_and_counter_monotonicity(sweep, ten_k_dataset):
    with criterion("C4 pruning safety + counter monotonicity"):
        assert sweep.counter_failures == []

        db, table = ten_k_dataset
        levels = [Thresholds(200_000, 0.001), Thresholds(100_000, 0.002),
                  Thresholds(50_000, 0.003)]
        for thresholds in levels:
            outputs = set()
            chain = []
            for preset in COUNTER_PRESETS:
                results, stats = mine(db, table, thresholds, MiningConfig.from_preset(preset))
                outputs.add(dataio.serialize_results(results))
                chain.append(stats.visited_nodes)
                assert stats.visited_nodes >= stats.phuis_found
            assert len(outputs) == 1, f"result sets differ at {thresholds}"
            assert _non_increasing(chain), f"visited {chain} at {thresholds}"


def test_c5_threshold_monotonicity(sweep):
    with criterion("C5 threshold monotonicity"):
        assert sweep.subset_failures == []


def test_c6_join_equivalence(sweep):
    with criterion("C6 join-built vs scan-built list equivalence"):
        assert sweep.join_failures == []


def test_c7_scalability_shape():
    with criterion("C7 scalability shape (100k transactions)"):
        started = time.perf_counter()
        db, table = generate(GenParams(
            n_transactions=100_000, n_items=100, avg_tx_len=5.0, max_tx_len=10,
            negative_fraction=0.2, seed=20_260_810))
        # selective at the full size so the co-occurrence pruning has
        # joins to save; the shape claim is about trends, not counts
        thresholds = Thresholds(1_000_000, 0.001)
        prefixes = [20_000, 40_000, 60_000, 80_000, 100_000]
        elapsed = {}
        for preset in COUNTER_PRESETS:
            series = []
            for prefix in prefixes:
                head = make_database(db.transactions[:prefix])
                _, stats = mine(head, table, thresholds, MiningConfig.from_preset(preset))
                series.append(stats.elapsed)
            assert series == sorted(series), f"{preset}: not non-decreasing: {series}"
            elapsed[preset] = series
        assert elapsed["ALL"][-1] <= elapsed["P12"][-1], (
            f"ALL {elapsed['ALL'][-1]:.2f}s above P12 {elapsed['P12'][-1]:.2f}s "
            "on the full prefix")
        total = time.perf_counter() - started
        assert total < 300.0, f"scalability run took {total:.0f}s"


def test_c8_format_round_trip(sweep):
    with criterion("C8 parse/serialize/parse identity"):
        assert sweep.roundtrip_failures == []
