from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phuimine.datagen import GenParams, generate, generate_small
from phuimine.model import (
    Pattern,
    Thresholds,
    Transaction,
    UtilityTable,
    make_database,
)
from phuimine.oracle import UniverseTooLargeError, brute_force_mine, enumerate_supported

import measures
from helpers import EXAMPLE_PHUIS, rel_close, results_map


def test_example_results(ex_db, ex_table):
    results = brute_force_mine(ex_db, ex_table, Thresholds(20, 0.25))
    got = results_map(results)
    assert set(got) == set(EXAMPLE_PHUIS)
    for items, (u, pro) in EXAMPLE_PHUIS.items():
        assert got[items][0] == u
        assert rel_close(got[items][1], pro)


def test_min_util_beyond_best_pattern(ex_db, ex_table):
    # the highest-utility pattern is worth 166
    assert brute_force_mine(ex_db, ex_table, Thresholds(170, 0.0)) == []


def test_single_transaction_boundary():
    db = make_database([Transaction(1, ((1, 1, 1.0),))])
    table = UtilityTable({1: 5.0})
    results = brute_force_mine(db, table, Thresholds(5, 1.0))
    assert results_map(results) == {(1,): (5.0, 1.0)}


def test_universe_guard():
    txs = [Transaction(1, [(i, 1, 0.5) for i in range(1, 22)])]
    db = make_database(txs)
    table = UtilityTable({i: 1.0 for i in range(1, 22)})
    with pytest.raises(UniverseTooLargeError):
        brute_force_mine(db, table, Thresholds(0, 0))
    assert brute_force_mine(db, table, Thresholds(1e18, 0.5), max_items=21) == []


def test_zero_support_patterns_never_emitted(ex_db):
    # item 9 exists in the table but in no transaction; degenerate
    # thresholds accept zero utility/support, yet only supported
    # patterns may appear
    table = UtilityTable({1: 8.0, 2: 5.0, 3: -2.0, 4: 12.0, 5: 7.0, 9: 3.0})
    results = brute_force_mine(ex_db, table, Thresholds(-1e9, 0.0))
    assert all(9 not in m.pattern.items for m in results)
    assert all(m.expected_support > 0 for m in results)


def test_results_sorted_by_length_then_ids(ex_db, ex_table):
    results = brute_force_mine(ex_db, ex_table, Thresholds(20, 0.25))
    keys = [(len(m.pattern.items), m.pattern.items) for m in results]
    assert keys == sorted(keys)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_enumeration_matches_reference_measures(seed):
    # exact equality: generated instances keep the arithmetic exact
    db, table = generate_small(seed, negative_fraction=0.5, max_items=6,
                               max_transactions=8)
    for items, (u, pro) in enumerate_supported(db, table).items():
        pattern = Pattern.of(items)
        assert u == measures.pattern_utility(pattern, db, table)
        assert pro == measures.expected_support(pattern, db)


def test_enumerate_supported_counts(ex_db, ex_table):
    measures = enumerate_supported(ex_db, ex_table)
    # every itemset occurring in some transaction, and nothing else
    assert (1,) in measures and (1, 2, 3, 5) in measures
    assert (1, 4, 3) not in measures  # a,d,c never co-occur
    u, pro = measures[(4, 5)]
    assert u == 166.0 and rel_close(pro, 2.22)



def _per_combination_measures(db, table):
    """Reference: each combination of each transaction recomputed on its
    own, utility added and probability multiplied in ascending item
    order from 0.0 and 1.0, totals accumulated in tid order."""
    totals = {}
    for tx in db.transactions:
        rows = sorted(tx.rows)
        for size in range(1, len(rows) + 1):
            for combo in combinations(rows, size):
                u = 0.0
                p = 1.0
                for item, quantity, probability in combo:
                    u += table.entries[item] * quantity
                    p *= probability
                key = tuple(item for item, _q, _p in combo)
                if key in totals:
                    u += totals[key][0]
                    p += totals[key][1]
                totals[key] = (u, p)
    return totals


def _bits(measures):
    return {k: (u.hex(), p.hex()) for k, (u, p) in measures.items()}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_enumeration_bit_identical_to_per_combination_loop(seed):
    # builtin sum() is compensated from Python 3.12 on, so measures.py
    # cannot be the bit-level reference; the loop above is
    dyadic = generate_small(seed, negative_fraction=0.5, max_items=8,
                            max_transactions=12)
    non_dyadic = generate(GenParams(n_transactions=30, n_items=8, avg_tx_len=4,
                                    max_tx_len=7, seed=seed))
    for db, table in (dyadic, non_dyadic):
        assert _bits(enumerate_supported(db, table)) == _bits(
            _per_combination_measures(db, table))
