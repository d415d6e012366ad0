import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phuimine.datagen import generate_small
from phuimine.model import Pattern, Thresholds

import measures
from helpers import A, B, C, D, E, rel_close


def tx(db, tid):
    return db.transactions[tid - 1]


class TestItemUtility:
    def test_values(self, ex_db, ex_table):
        assert measures.item_utility(A, tx(ex_db, 1), ex_table) == 40
        assert measures.item_utility(C, tx(ex_db, 3), ex_table) == -4
        assert measures.item_utility(E, tx(ex_db, 2), ex_table) == 14

    def test_absent_item_raises(self, ex_db, ex_table):
        with pytest.raises(measures.ItemNotInTransactionError):
            measures.item_utility(A, tx(ex_db, 2), ex_table)


class TestPatternUtilityInTx:
    def test_values(self, ex_db, ex_table):
        assert measures.pattern_utility_in_tx(Pattern.of([A, E]), tx(ex_db, 1), ex_table) == 68
        assert measures.pattern_utility_in_tx(Pattern.of([A]), tx(ex_db, 1), ex_table) == 40
        assert measures.pattern_utility_in_tx(Pattern.of([B, C, E]), tx(ex_db, 5), ex_table) == 30

    def test_not_contained_raises(self, ex_db, ex_table):
        with pytest.raises(measures.PatternNotInTransactionError):
            measures.pattern_utility_in_tx(Pattern.of([A, E]), tx(ex_db, 2), ex_table)


class TestPatternUtility:
    def test_values(self, ex_db, ex_table):
        assert measures.pattern_utility(Pattern.of([A, E]), ex_db, ex_table) == 107
        assert measures.pattern_utility(Pattern.of([A, B, E]), ex_db, ex_table) == 137
        assert measures.pattern_utility(Pattern.of([D, E]), ex_db, ex_table) == 166

    def test_unsupported_is_zero(self, ex_db, ex_table):
        # a and d never co-occur with c,d,e all at once
        assert measures.pattern_utility(Pattern.of([A, B, C, D, E]), ex_db, ex_table) == 0


class TestProbability:
    def test_in_tx(self, ex_db):
        assert rel_close(measures.pattern_probability_in_tx(Pattern.of([A, E]), tx(ex_db, 1)), 0.48)
        assert measures.pattern_probability_in_tx(Pattern.of([A]), tx(ex_db, 1)) == 0.60
        assert rel_close(measures.pattern_probability_in_tx(Pattern.of([B, C, E]), tx(ex_db, 5)), 0.95)

    def test_expected_support(self, ex_db):
        assert rel_close(measures.expected_support(Pattern.of([A]), ex_db), 2.5)
        assert rel_close(measures.expected_support(Pattern.of([A, B, E]), ex_db), 0.99)
        assert rel_close(measures.expected_support(Pattern.of([B, C, E]), ex_db), 1.475)

    def test_unsupported_is_zero(self, ex_db):
        assert measures.expected_support(Pattern.of([A, B, C, D, E]), ex_db) == 0


class TestTransactionUtility:
    def test_tu(self, ex_db, ex_table):
        assert measures.transaction_utility(tx(ex_db, 2), ex_table) == 24
        assert measures.transaction_utility(tx(ex_db, 5), ex_table) == 90
        assert measures.transaction_utility(tx(ex_db, 1), ex_table) == 107

    def test_rtu(self, ex_db, ex_table):
        assert measures.redefined_transaction_utility(tx(ex_db, 2), ex_table) == 26
        assert measures.redefined_transaction_utility(tx(ex_db, 1), ex_table) == 107
        assert measures.redefined_transaction_utility(tx(ex_db, 3), ex_table) == 54


class TestRtwu:
    def test_values(self, ex_db, ex_table):
        assert measures.rtwu(Pattern.of([A]), ex_db, ex_table) == 185
        assert measures.rtwu(Pattern.of([A, B, E]), ex_db, ex_table) == 161
        assert measures.rtwu(Pattern.of([C]), ex_db, ex_table) == 202


class TestIsPhui:
    def test_examples(self, ex_db, ex_table):
        th = Thresholds(20, 0.25)
        assert measures.is_phui(Pattern.of([B, C, E]), ex_db, ex_table, th)
        assert not measures.is_phui(Pattern.of([A, E]), ex_db, ex_table, th)
        assert not measures.is_phui(Pattern.of([A, D]), ex_db, ex_table, th)

    def test_boundary_is_inclusive(self, ex_db, ex_table):
        u = measures.pattern_utility(Pattern.of([B]), ex_db, ex_table)
        pro = measures.expected_support(Pattern.of([B]), ex_db)
        th = Thresholds(u, pro / ex_db.size)
        assert measures.is_phui(Pattern.of([B]), ex_db, ex_table, th)


# Property checks on small random instances.

def _positive_negative_parts(pattern, db, table):
    pu = nu = 0.0
    want = set(pattern.items)
    for t in db.transactions:
        if want <= {e.item for e in t.entries}:
            for i in pattern.items:
                u = measures.item_utility(i, t, table)
                if u >= 0:
                    pu += u
                else:
                    nu += u
    return pu, nu


def _supported_pair(db, seed):
    """Some supported pattern Y with |Y| >= 2 and a proper subset X."""
    import random

    rng = random.Random(seed)
    candidates = [t for t in db.transactions if len(t.entries) >= 2]
    if not candidates:
        return None
    t = rng.choice(candidates)
    items = sorted(e.item for e in t.entries)
    size = rng.randint(2, len(items))
    y = sorted(rng.sample(items, size))
    x = sorted(rng.sample(y, rng.randint(1, size - 1)))
    return Pattern.of(x), Pattern.of(y)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_utility_decomposes_into_signed_parts(seed):
    db, table = generate_small(seed, negative_fraction=0.5)
    pair = _supported_pair(db, seed)
    if pair is None:
        return
    for pattern in pair:
        pu, nu = _positive_negative_parts(pattern, db, table)
        u = measures.pattern_utility(pattern, db, table)
        assert u == pu + nu
        assert nu <= u <= pu


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_anti_monotonicity(seed):
    db, table = generate_small(seed, negative_fraction=0.2)
    pair = _supported_pair(db, seed)
    if pair is None:
        return
    x, y = pair
    assert measures.expected_support(y, db) <= measures.expected_support(x, db)
    assert measures.rtwu(y, db, table) <= measures.rtwu(x, db, table)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rtwu_bounds_utility(seed):
    db, table = generate_small(seed, negative_fraction=0.5)
    pair = _supported_pair(db, seed)
    if pair is None:
        return
    for pattern in pair:
        assert measures.rtwu(pattern, db, table) >= measures.pattern_utility(pattern, db, table)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rtu_dominates_tu(seed):
    db, table = generate_small(seed, negative_fraction=0.5)
    for t in db.transactions:
        tu = measures.transaction_utility(t, table)
        rtu = measures.redefined_transaction_utility(t, table)
        assert rtu >= 0
        assert rtu >= tu
        has_negative = any(table.unit_utility(e.item) < 0 for e in t.entries)
        if not has_negative:
            assert math.isclose(rtu, tu, rel_tol=0, abs_tol=0)
