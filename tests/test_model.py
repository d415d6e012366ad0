import pytest

from phuimine import dataio
from phuimine.model import (
    Pattern,
    Thresholds,
    Transaction,
    TransactionEntry,
    UtilityTable,
    make_database,
    make_transaction,
    validate_database,
)

from helpers import EXAMPLE_DB_TEXT, example_db


def test_example_database_validates(ex_db, ex_table):
    assert validate_database(ex_db, ex_table).ok


def test_duplicate_item_is_reported():
    tx = Transaction(1, (
        TransactionEntry(1, 2, 0.5),
        TransactionEntry(1, 3, 0.5),
    ))
    report = validate_database(make_database([tx]), UtilityTable({1: 4.0}))
    assert any("duplicate item" in v.message for v in report.violations)


def test_probability_out_of_range_is_reported():
    tx = make_transaction(1, [TransactionEntry(1, 2, 1.3)])
    report = validate_database(make_database([tx]), UtilityTable({1: 4.0}))
    assert any("probability" in v.message and "out of range" in v.message
               for v in report.violations)


def test_zero_probability_rejected():
    tx = make_transaction(1, [TransactionEntry(1, 2, 0.0)])
    report = validate_database(make_database([tx]), UtilityTable({1: 4.0}))
    assert not report.ok


def test_quantity_below_one_reported():
    tx = make_transaction(1, [TransactionEntry(1, 0, 0.5)])
    report = validate_database(make_database([tx]), UtilityTable({1: 4.0}))
    assert any("quantity" in v.message for v in report.violations)


def test_missing_utility_entry_reported():
    tx = make_transaction(1, [TransactionEntry(7, 1, 0.5)])
    report = validate_database(make_database([tx]), UtilityTable({1: 4.0}))
    assert any("missing from utility table" in v.message for v in report.violations)


@pytest.mark.parametrize("utility", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_utility_reported(utility):
    tx = make_transaction(1, [TransactionEntry(1, 1, 0.5)])
    report = validate_database(make_database([tx]), UtilityTable({1: utility}))
    assert [(v.tid, v.item) for v in report.violations] == [(0, 1)]
    assert "not finite" in report.violations[0].message


@pytest.mark.parametrize("quantity", [10_000_000_000, 10**400])
def test_overflowing_occurrence_utility_reported(quantity):
    # a finite unit utility times a large quantity is not a finite float
    tx = make_transaction(1, [TransactionEntry(1, quantity, 0.5), TransactionEntry(2, 1, 0.5)])
    report = validate_database(make_database([tx]), UtilityTable({1: 1e300, 2: 1.0}))
    assert [(v.tid, v.item) for v in report.violations] == [(1, 1)]
    assert "not finite" in report.violations[0].message


@pytest.mark.parametrize("min_util, min_pro, match", [
    (float("nan"), 0.1, "min_util must be finite"),
    (float("inf"), 0.1, "min_util must be finite"),
    (float("-inf"), 0.1, "min_util must be finite"),
    (1.0, float("nan"), "min_pro"),
    (1.0, -0.1, "min_pro"),
    (1.0, 1.5, "min_pro"),
    (1.0, float("inf"), "min_pro"),
])
def test_thresholds_reject_out_of_range(min_util, min_pro, match):
    with pytest.raises(ValueError, match=match):
        Thresholds(min_util, min_pro)


def test_tids_must_be_consecutive():
    tx = make_transaction(3, [TransactionEntry(1, 1, 0.5)])
    report = validate_database(make_database([tx]), UtilityTable({1: 4.0}))
    assert any("tids must be 1..n" in v.message for v in report.violations)


def test_round_trip_identity(ex_db, ex_table):
    assert dataio.parse_database(dataio.serialize_database(ex_db)) == ex_db
    assert dataio.parse_ptable(dataio.serialize_ptable(ex_table)) == ex_table


def test_size_counts_source_lines():
    db = example_db()
    assert db.size == len(EXAMPLE_DB_TEXT.strip().splitlines()) == 5


def test_pattern_is_canonically_sorted():
    assert Pattern.of([5, 2, 3]).items == (2, 3, 5)


def test_make_transaction_sorts_entries():
    tx = make_transaction(1, [TransactionEntry(5, 1, 0.5), TransactionEntry(2, 1, 0.5)])
    assert [e.item for e in tx.entries] == [2, 5]


def test_item_universe_from_occurrences(ex_db):
    assert ex_db.item_universe == frozenset({1, 2, 3, 4, 5})
