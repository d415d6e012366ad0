import pickle
from fractions import Fraction

import pytest

from phuimine import dataio
from phuimine.model import (
    DatabaseValidationError,
    MinedPattern,
    Pattern,
    Thresholds,
    Transaction,
    TransactionEntry,
    UtilityTable,
    check_utilities,
    UncertainDatabase,
    make_database,
    sorted_columns,
)

from helpers import EXAMPLE_DB_TEXT, example_db


def test_example_database_validates(ex_db, ex_table):
    # and the check returns the utility column that mine() goes on with
    assert check_utilities(ex_db, ex_table) == ex_db.utilities(ex_table)


def test_duplicate_item_is_reported():
    with pytest.raises(ValueError, match="duplicate item 1"):
        Transaction(1, (
            TransactionEntry(1, 2, 0.5),
            TransactionEntry(1, 3, 0.5),
        ))


def test_probability_out_of_range_is_reported():
    with pytest.raises(ValueError, match=r"probability must be in \(0, 1\]"):
        TransactionEntry(1, 2, 1.3)


def test_zero_probability_rejected():
    with pytest.raises(ValueError, match="probability"):
        TransactionEntry(1, 2, 0.0)


def test_quantity_below_one_reported():
    with pytest.raises(ValueError, match="quantity must be >= 1"):
        TransactionEntry(1, 0, 0.5)


def test_missing_utility_entry_reported():
    db = make_database([Transaction(1, [TransactionEntry(7, 1, 0.5)])])
    with pytest.raises(DatabaseValidationError, match=r"1 item\(s\) missing from utility table, first \[7\]"):
        check_utilities(db, UtilityTable({1: 4.0}))


@pytest.mark.parametrize("utility", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_utility_reported(utility):
    with pytest.raises(ValueError, match="utility must be finite"):
        UtilityTable({1: utility})


@pytest.mark.parametrize("quantity", [10_000_000_000, 10**400])
def test_overflowing_occurrence_utility_reported(quantity):
    # a finite unit utility times a large quantity is not a finite float
    tx = Transaction(1, [TransactionEntry(1, quantity, 0.5), TransactionEntry(2, 1, 0.5)])
    with pytest.raises(DatabaseValidationError, match="not finite"):
        check_utilities(make_database([tx]), UtilityTable({1: 1e300, 2: 1.0}))


def test_overflowing_utility_sum_reported():
    # every occurrence is finite, their sum is not
    tx = Transaction(1, [TransactionEntry(1, 1, 0.5), TransactionEntry(2, 1, 0.5)])
    db = make_database([tx])
    with pytest.raises(DatabaseValidationError, match="not finite"):
        check_utilities(db, UtilityTable({1: 1e308, 2: 1e308}))
    # a finite sum above half the largest float (about 8.99e307), and one below
    with pytest.raises(DatabaseValidationError, match=r"9e\+307, is not finite or above"):
        check_utilities(db, UtilityTable({1: 4.5e307, 2: 4.5e307}))
    for table in UtilityTable({1: 4.4e307, 2: 4.4e307}), UtilityTable({1: 1e307, 2: -1e307}):
        assert check_utilities(db, table) == db.utilities(table)


def _entry(item=1, quantity=1, probability=0.5):
    return TransactionEntry(item, quantity, probability)


@pytest.mark.parametrize("build, match", [
    (lambda: _entry(item=-1), "item id must be >= 0"),
    (lambda: _entry(quantity=0), "quantity must be >= 1"),
    (lambda: _entry(probability=0.0), "probability must be in"),
    (lambda: _entry(probability=1.3), "probability must be in"),
    (lambda: Transaction(1, ()), "empty"),
    (lambda: Transaction(1, (_entry(2), _entry(2))), "duplicate item 2"),
    (lambda: Transaction(1, (_entry(5), _entry(2))), "items must ascend"),
    (lambda: make_database([Transaction(1, (_entry(),)), Transaction(3, (_entry(),))]),
     "tids must be 1..n"),
    (lambda: UtilityTable({1: 2.0, 2: float("nan")}), "utility must be finite"),
    (lambda: UtilityTable({-1: 5.0}), "item id must be >= 0"),
    # values that the text formats would not write back as they are
    (lambda: _entry(quantity=True), "quantity must not be a bool, got True"),
    (lambda: _entry(quantity=1.5), "quantity must not be a float, got 1.5"),
    (lambda: _entry(item=1.0), "item id must not be a float, got 1.0"),
    (lambda: _entry(item=True), "item id must not be a bool, got True"),
    (lambda: _entry(probability=Fraction(1, 2)), "probability must not be a Fraction"),
    (lambda: _entry(probability=True), "probability must not be a bool, got True"),
    (lambda: Transaction(1, [(1, 1, 0.5), (2, True, 0.5)]), "quantity must not be a bool"),
    (lambda: Transaction(1, [(1.0, 1, 0.5)]), "item id must not be a float"),
    (lambda: Transaction(1, [(1, 1, Fraction(1, 2))]), "probability must not be a Fraction"),
    (lambda: Transaction(1, [(1, 1, 0.5)])._replace(rows=((True, 1, 0.5),)),
     "item id must not be a bool"),
    (lambda: UtilityTable({1: Fraction(1, 2)}), r"float utility .*, got 1: Fraction\(1, 2\)"),
    (lambda: UtilityTable({1: True}), "a float utility or an int one .*, got 1: True"),
    (lambda: UtilityTable({1.5: 2.0}), "an int item id .*, got 1.5: 2.0"),
    (lambda: UtilityTable({True: 2.0}), "an int item id .*, got True: 2.0"),
    # a float holds every int up to 2**53 exactly, but not 2**53 + 1
    (lambda: UtilityTable({1: 2**53 + 1}), r"an int one within 2\*\*53, got 1: 9007199254740993"),
    (lambda: UtilityTable({1: 10**400}), r"an int one within 2\*\*53"),
], ids=["negative-item", "zero-quantity", "zero-probability", "probability-above-one",
        "empty-transaction", "duplicate-item", "descending-items", "tid-gap",
        "non-finite-utility", "negative-table-id", "bool-quantity", "float-quantity",
        "float-item", "bool-item", "fraction-probability", "bool-probability",
        "transaction-bool-quantity", "transaction-float-item",
        "transaction-fraction-probability", "replace-bool-item", "fraction-utility",
        "bool-utility", "float-table-id", "bool-table-id", "inexact-int-utility",
        "huge-int-utility"])
def test_invalid_value_raises_when_built(build, match):
    with pytest.raises(ValueError, match=match):
        build()


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
    tx = Transaction(3, [TransactionEntry(1, 1, 0.5)])
    with pytest.raises(ValueError, match="tids must be 1..n"):
        make_database([tx])


def test_round_trip_identity(ex_db, ex_table):
    assert dataio.parse_database(dataio.serialize_database(ex_db)) == ex_db
    assert dataio.parse_ptable(dataio.serialize_ptable(ex_table)) == ex_table


def test_size_counts_source_lines():
    db = example_db()
    assert db.size == len(EXAMPLE_DB_TEXT.strip().splitlines()) == 5


def test_pattern_is_canonically_sorted():
    assert Pattern.of([5, 2, 3]).items == (2, 3, 5)
    assert Pattern.of((5, 2, 3)) == Pattern((2, 3, 5))


class TestResultRecords:
    def test_equal_records_are_equal_and_hash_alike(self):
        a = MinedPattern(Pattern.of([2, 1]), 3.0, 0.5)
        b = MinedPattern(Pattern((1, 2)), 3.0, 0.5)
        assert a == b and hash(a) == hash(b)
        assert a.pattern == b.pattern and hash(a.pattern) == hash(b.pattern)
        assert a != MinedPattern(Pattern((1, 2)), 3.5, 0.5)
        assert len({a, b}) == 1

    def test_patterns_sort_by_ids(self):
        patterns = [Pattern((2,)), Pattern((1, 3)), Pattern((1,)), Pattern((1, 2, 9))]
        assert sorted(patterns) == [Pattern((1,)), Pattern((1, 2, 9)), Pattern((1, 3)),
                                    Pattern((2,))]

    def test_mined_pattern_pickle_round_trip(self):
        m = MinedPattern(Pattern((1, 4)), -2.5, 0.125)
        again = pickle.loads(pickle.dumps(m))
        assert again == m and type(again) is MinedPattern
        assert type(again.pattern) is Pattern

    def test_fields_by_name(self):
        m = MinedPattern(Pattern((1, 2)), 3.0, 0.5)
        assert m.pattern.items == (1, 2)
        assert (m.utility, m.expected_support) == (3.0, 0.5)

    def test_a_pattern_is_a_one_field_tuple(self):
        p = Pattern((1, 2))
        assert len(p) == 1 and len(p.items) == 2
        assert p == ((1, 2),)


def test_item_universe_from_occurrences(ex_db):
    assert ex_db.item_universe == frozenset({1, 2, 3, 4, 5})


def test_database_equality_and_hash_ignore_derived_totals(ex_db):
    again = example_db()
    assert again == ex_db and hash(again) == hash(ex_db)
    assert {again: 1}[ex_db] == 1


class TestColumns:
    def test_columns_of_the_example(self, ex_db):
        assert ex_db.sizes == (4, 3, 4, 2, 4)
        assert ex_db.items[:4] == (1, 2, 4, 5) and ex_db.quantities[:4] == (5, 3, 2, 4)
        assert ex_db.probabilities[-4:] == (1.0, 0.95, 0.6, 1.0)
        assert all(type(c) is tuple for c in (ex_db.items, ex_db.quantities,
                                               ex_db.probabilities, ex_db.sizes))
        # the rows of tid t lie at bounds[t - 1]:bounds[t]; formed once
        assert ex_db.bounds == (0, 4, 7, 11, 13, 17)
        assert ex_db.bounds is ex_db.bounds

    def test_constructor_checks_the_columns(self):
        assert UncertainDatabase([1, 2], [1, 1], [0.5, 1.0], [1, 1]).size == 2
        assert UncertainDatabase([], [], [], []).size == 0

    @pytest.mark.parametrize("columns, match", [
        (([1, 2], [1, 1], [0.5, 0.0], [2]), "probability must be in"),
        (([2, 1], [1, 1], [0.5, 0.5], [2]), "items must ascend, got 1 after 2"),
        (([1, 1], [1, 1], [0.5, 0.5], [1, 0, 1]), "transaction 2 is empty"),
        (([1, 2], [1, 1], [0.5, 0.5], [1]), "columns of 2, 2, 2 rows for transactions of 1"),
        (([1, 2], [1], [0.5, 0.5], [2]), "columns of 2, 1, 2 rows"),
        (([1, 2], [1, True], [0.5, 0.5], [2]), "quantity must not be a bool, got True"),
        (([1, 2], [1.5, 1], [0.5, 0.5], [2]), "quantity must not be a float, got 1.5"),
        (([True, 2], [1, 1], [0.5, 0.5], [2]), "item id must not be a bool, got True"),
        (([1.0, 2], [1, 1], [0.5, 0.5], [2]), "item id must not be a float, got 1.0"),
        (([1, 2], [1, 1], [0.5, Fraction(1, 2)], [2]), "probability must not be a Fraction"),
        (([1, 2], [1, 1], [0.5, 0.5], [1.0, 1]), "size must not be a float, got 1.0"),
    ], ids=["zero-probability", "descending-items", "empty", "sizes-short", "column-short",
            "bool-quantity", "float-quantity", "bool-item", "float-item",
            "fraction-probability", "float-size"])
    def test_constructor_names_the_broken_rule(self, columns, match):
        with pytest.raises(ValueError, match=match):
            UncertainDatabase(*columns)

    def test_a_descent_between_transactions_is_no_fault(self):
        db = UncertainDatabase([5, 1, 2], [1, 1, 1], [0.5, 0.5, 0.5], [1, 2])
        assert db.transactions == (Transaction(1, [(5, 1, 0.5)]),
                                   Transaction(2, [(1, 1, 0.5), (2, 1, 0.5)]))

    def test_transactions_view(self, ex_db):
        # built once, from the columns, and equal to the Transactions
        # that make_database turned into columns
        assert ex_db.transactions is ex_db.transactions
        assert all(type(tx) is Transaction for tx in ex_db.transactions)
        txs = tuple(Transaction(tx.tid, tx.rows) for tx in ex_db.transactions)
        again = make_database(txs)
        assert again.transactions == txs and again == ex_db

    def test_utilities_column(self, ex_db, ex_table):
        us = ex_db.utilities(ex_table)
        assert us == [ex_table.entries[i] * q for i, q in zip(ex_db.items, ex_db.quantities)]
        assert us[:4] == [40.0, 15.0, 24.0, 28.0]

    @pytest.mark.parametrize("n", range(6))
    def test_prefix_equals_the_database_of_the_first_transactions(self, ex_db, n):
        head = ex_db.prefix(n)
        old = make_database(ex_db.transactions[:n])
        assert head == old and hash(head) == hash(old)
        assert head.item_universe == old.item_universe and head.size == n
        assert head.transactions == old.transactions
        assert head.bounds == ex_db.bounds[:n + 1]

    @pytest.mark.parametrize("n", [-1, 6])
    def test_prefix_outside_the_database(self, ex_db, n):
        with pytest.raises(ValueError, match="outside 0..5"):
            ex_db.prefix(n)

    def test_pickle_holds_the_columns_only(self, ex_db):
        ex_db.bounds  # formed, and still not pickled
        data = pickle.dumps(ex_db)
        assert (b"Transaction" not in data and b"item_universe" not in data
                and b"_bounds" not in data)
        again = pickle.loads(data)
        assert again == ex_db and again.item_universe == ex_db.item_universe
        assert again.bounds == ex_db.bounds
        assert again.transactions == ex_db.transactions

    @pytest.mark.parametrize("column, values, match", [
        ("probabilities", (0.5, 0.0, 0.25), "probability must be in"),
        ("items", (2, 1, 3), "items must ascend, got 1 after 2"),
        ("sizes", (2, 0, 1), "transaction 2 is empty"),
        ("quantities", (1, True, 1), "quantity must not be a bool, got True"),
        ("items", (1, 2.0, 3), "item id must not be a float, got 2.0"),
        ("probabilities", (0.5, Fraction(1, 2), 0.25), "probability must not be a Fraction"),
        ("sizes", (2.0, 1), "size must not be a float, got 2.0"),
    ], ids=["zero-probability", "descending-items", "empty", "bool-quantity", "float-item",
            "fraction-probability", "float-size"])
    def test_unpickling_checks_the_columns(self, column, values, match):
        columns = {"items": (1, 2, 3), "quantities": (1, 1, 1),
                   "probabilities": (0.5, 0.5, 0.25), "sizes": (2, 1)}
        columns[column] = values
        # built unchecked, as the parser builds a database; pickle calls
        # the checked constructor
        bad = UncertainDatabase._of_checked(*columns.values())
        with pytest.raises(ValueError, match=match):
            pickle.loads(pickle.dumps(bad))


class TestTransactionRows:
    def test_rebuilt_from_entries_is_equal(self, ex_db):
        for tx in ex_db.transactions:
            again = Transaction(tx.tid, tx.entries)
            assert again == tx and hash(again) == hash(tx)

    def test_pickle_round_trip(self, ex_db):
        again = pickle.loads(pickle.dumps(ex_db))
        assert again == ex_db and again.item_universe == ex_db.item_universe
        tx = ex_db.transactions[0]
        again = pickle.loads(pickle.dumps(tx))
        assert again == tx and type(again) is Transaction

    def test_unpickling_checks_the_rows(self):
        # built unchecked, as the parser's bulk path builds; pickle calls
        # the checked constructor again
        bad = tuple.__new__(Transaction, (1, ((1, 0, 0.5),)))
        with pytest.raises(ValueError, match="quantity must be >= 1"):
            pickle.loads(pickle.dumps(bad))

    def test_a_transaction_is_a_two_field_tuple(self):
        tx = Transaction(3, [TransactionEntry(1, 2, 0.5), (4, 1, 0.25)])
        plain = (3, ((1, 2, 0.5), (4, 1, 0.25)))
        assert tx == plain and hash(tx) == hash(plain)
        assert len(tx) == 2 and (tx.tid, tx.rows) == plain

    @pytest.mark.parametrize("changes, match", [
        ({"rows": ()}, "transaction 1 is empty"),
        ({"rows": ((1, 0, 0.5),)}, "quantity must be >= 1"),
        ({"rows": ((2, 1, 0.5), (1, 1, 0.5))}, "items must ascend"),
    ], ids=["empty", "zero-quantity", "descending-items"])
    def test_replace_checks_the_new_transaction(self, changes, match):
        with pytest.raises(ValueError, match=match):
            Transaction(1, [(1, 1, 0.5)])._replace(**changes)

    def test_replace_keeps_a_valid_transaction(self):
        again = Transaction(1, [(1, 1, 0.5)])._replace(tid=4, rows=[[2, 3, 1.0]])
        assert type(again) is Transaction and again == (4, ((2, 3, 1.0),))
        assert type(again.rows[0]) is tuple

    def test_rows_are_exact_tuples(self):
        tx = Transaction(1, [TransactionEntry(1, 2, 0.5), [3, 1, 0.25], (4, 1, 1.0)])
        assert tx.rows == ((1, 2, 0.5), (3, 1, 0.25), (4, 1, 1.0))
        assert all(type(row) is tuple for row in tx.rows)

    def test_entries_are_named_views(self, ex_db):
        tx = ex_db.transactions[0]
        assert all(type(e) is TransactionEntry for e in tx.entries)
        assert [(e.item, e.quantity, e.probability) for e in tx.entries] == list(tx.rows)

    @pytest.mark.parametrize("changes, match", [
        ({"quantity": 0}, "quantity must be >= 1"),
        ({"probability": 1.5}, "probability must be in"),
        ({"item": -1}, "item id must be >= 0"),
    ], ids=["zero-quantity", "probability-above-one", "negative-item"])
    def test_replace_checks_the_new_entry(self, changes, match):
        with pytest.raises(ValueError, match=match):
            TransactionEntry(1, 1, 0.5)._replace(**changes)

    def test_replace_keeps_a_valid_entry(self):
        again = TransactionEntry(1, 1, 0.5)._replace(quantity=3)
        assert type(again) is TransactionEntry and again == (1, 3, 0.5)

    def test_frozen(self, ex_db):
        with pytest.raises(AttributeError):
            ex_db.transactions[0].rows = ()

    @pytest.mark.parametrize("rows, match", [
        ([(1, 1, 0.5), (2, 1, float("nan"))], "probability must be in"),
        ([(1, 1, 0.5), (2, 0, 0.5)], "quantity must be >= 1"),
        ([(-1, 1, 0.5)], "item id must be >= 0"),
        # the value rules of every row come before the order rule
        ([(5, 1, 0.5), (2, 1, 0.5), (7, 1, 2.0)], "probability must be in"),
    ], ids=["nan-probability", "zero-quantity", "negative-item", "values-before-order"])
    def test_plain_rows_are_checked(self, rows, match):
        with pytest.raises(ValueError, match=match):
            Transaction(1, rows)


class TestSortedTransactions:
    """model.sorted_columns: the columns of a chunk of parsed lines, one
    transaction per size, each with its rows sorted, checked at once."""

    def test_equal_to_transactions_of_sorted_rows(self):
        for items in [5, 1, 2, 3], [5, 2, 1, 3]:  # each line's items sorted, then not
            columns = (items, [1, 2, 1, 1], [0.5, 1.0, 0.5, 0.25])
            got = sorted_columns(4, *columns, [1, 3])
            rows = list(zip(*columns))
            txs = [Transaction(4, rows[:1]), Transaction(5, sorted(rows[1:]))]
            assert [list(c) for c in got] == [list(c) for c in zip(*txs[0].rows, *txs[1].rows)]

    @pytest.mark.parametrize("columns, match", [
        # a descent where a transaction starts is no fault; the repeat is
        (([5, 3, 3], [1, 1, 1], [0.5, 0.5, 0.5], [1, 2]), "duplicate item 3 in transaction"),
        (([5, 3, 4], [1, 0, 1], [0.5, 0.5, 0.5], [1, 2]), "quantity must be >= 1, got 0"),
        (([5, 3, 4], [1, 1, 1], [0.5, 0.5, float("nan")], [2, 1]), "probability must be in"),
        (([1, -3], [1, 1], [0.5, 0.5], [1, 1]), "item id must be >= 0, got -3"),
        (([1, 2], [1, 1], [0.5, 0.5], [1, 0, 1]), "transaction 5 is empty"),
    ], ids=["repeat", "zero-quantity", "nan-probability", "negative-item", "empty"])
    def test_first_broken_rule_is_named(self, columns, match):
        with pytest.raises(ValueError, match=match):
            sorted_columns(4, *columns)
