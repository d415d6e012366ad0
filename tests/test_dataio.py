import json
import math
import random
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phuimine import dataio
from phuimine.datagen import GenParams, generate, generate_small
from phuimine.miner import MiningStats, initial_scan
from phuimine.model import (MinedPattern, Pattern, Thresholds, Transaction,
                            UncertainDatabase, UtilityTable, make_database)
from phuimine.pulist import EUCS, build_initial_pulists, compute_processing_order

from helpers import EXAMPLE_DB_TEXT, EXAMPLE_PTABLE_TEXT
from scan_reference import build_pulist_by_scan


# Characters at which str.splitlines ends a line, besides \n and \r;
# a line of either format ends only at \n, \r\n or \r.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestParseDatabase:
    def test_first_line_of_example(self):
        db = dataio.parse_database("1:5:0.6 2:3:0.5 4:2:0.9 5:4:0.8")
        assert db.size == 1
        tx = db.transactions[0]
        assert tx.tid == 1
        assert [(e.item, e.quantity, e.probability) for e in tx.entries] == [
            (1, 5, 0.6), (2, 3, 0.5), (4, 2, 0.9), (5, 4, 0.8)]

    def test_empty_file(self):
        assert dataio.parse_database("").size == 0

    def test_comments_and_blank_lines_skipped(self):
        db = dataio.parse_database("# header\n\n1:1:0.5  # trailing\n\n2:2:1.0\n")
        assert db.size == 2
        assert db.transactions[1].tid == 2

    def test_zero_quantity_rejected(self):
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_database("1:1:0.5\n1:0:0.5")
        assert err.value.line == 2 and err.value.column == 1
        assert "quantity must be >= 1" in err.value.message

    def test_probability_out_of_range(self):
        with pytest.raises(dataio.ParseError, match=r"probability must be in \(0, 1\]"):
            dataio.parse_database("1:1:1.5")
        with pytest.raises(dataio.ParseError):
            dataio.parse_database("1:1:0.0")

    def test_duplicate_item_in_line(self):
        with pytest.raises(dataio.ParseError, match="duplicate item 3") as err:
            dataio.parse_database("3:1:0.5 3:2:0.5")
        assert err.value.column == 9

    def test_first_repeat_in_line_order_is_reported(self):
        with pytest.raises(dataio.ParseError, match="duplicate item 5") as err:
            dataio.parse_database("1:1:0.5\n5:1:0.5 3:1:0.5 5:1:0.5 3:1:0.5")
        assert err.value.line == 2 and err.value.column == 17

    def test_first_fault_in_reading_order_is_reported(self):
        # the repeat at column 9 comes before the zero quantity at 17
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_database("1:1:0.5 1:1:0.5 2:0:0.5")
        assert (err.value.line, err.value.column, err.value.message) == (
            1, 9, "duplicate item 1 in transaction")

    def test_negative_item_rejected(self):
        with pytest.raises(dataio.ParseError, match="item id must be >= 0") as err:
            dataio.parse_database("1:1:0.5 -2:1:0.5")
        assert err.value.line == 1 and err.value.column == 9

    def test_malformed_token(self):
        with pytest.raises(dataio.ParseError, match="expected item:quantity:probability"):
            dataio.parse_database("1:2")

    def test_non_integer_item(self):
        with pytest.raises(dataio.ParseError, match="item id must be an integer"):
            dataio.parse_database("x:2:0.5")

    def test_entries_normalized_ascending(self):
        db = dataio.parse_database("5:1:0.5 1:1:0.5")
        assert [e.item for e in db.transactions[0].entries] == [1, 5]

    def test_lines_become_transactions_as_the_constructor_builds_them(self):
        db = dataio.parse_database("1:1:0.5 2:3:0.25\n5:1:0.5 3:2:1.0\n")
        assert db.transactions == (Transaction(1, [(1, 1, 0.5), (2, 3, 0.25)]),
                                   Transaction(2, [(3, 2, 1.0), (5, 1, 0.5)]))
        assert all(type(tx) is Transaction for tx in db.transactions)

    @pytest.mark.parametrize("line, column, message", [
        ("1:\t1:0.5", 1, "quantity must be an integer, got '\\t1'"),
        ("\t1:1:0.5", 1, "item id must be an integer, got '\\t1'"),
        ("1:1:0.5\f", 1, "probability must be a number, got '0.5\\x0c'"),
        ("2:1:0.5 1:1:0.5\v # note", 9, "probability must be a number, got '0.5\\x0b'"),
    ], ids=["tab", "leading-tab", "form-feed", "vertical-tab"])
    def test_a_control_character_in_a_token_is_refused(self, line, column, message):
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_database(f"1:1:0.5\n{line}\n2:1:0.5\n")
        assert (err.value.line, err.value.column, err.value.message) == (2, column, message)
        # a tab in a comment or on a blank line is no fault
        assert dataio.parse_database("1:1:0.5 # a\tb\n\t \n2:1:0.5\n").size == 2

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_a_line_ends_only_at_a_newline(self, sep):
        assert dataio.parse_database(f"# note{sep}more\n1:1:0.5\n").size == 1
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_database(f"1:1:0.5{sep}2:1:0.5\n")
        assert (err.value.line, err.value.column) == (1, 1)
        assert err.value.message.startswith("expected item:quantity:probability")
        # a later fault is at the line an editor shows
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_database(f"# a{sep}b\r\n1:1:0.5\r2:1:0.5\n3:0:0.5\n")
        assert (err.value.line, err.value.column, err.value.message) == (
            4, 1, "quantity must be >= 1, got 0")


def _messy_lines(db, rng: random.Random) -> tuple[list[str], list[list[tuple[int, list]]]]:
    """db written with its tokens shuffled within each line, runs of
    spaces, trailing comments, and blank, blank-looking and comment lines
    between; also, per transaction, its line number and its tokens as
    [column, item, quantity, probability text] in line order."""
    lines: list[str] = []
    layout = []
    for tx in db.transactions:
        while rng.random() < 0.3:
            lines.append(rng.choice(["", "   ", "# a comment", "  # 1:1:0.5 commented out"]))
        rows = list(tx.rows)
        rng.shuffle(rows)
        line = " " * rng.randint(0, 2)
        tokens = []
        for item, quantity, probability in rows:
            tokens.append([len(line) + 1, item, quantity, repr(probability)])
            line += f"{item}:{quantity}:{probability!r}" + " " * rng.randint(1, 3)
        if rng.random() < 0.3:
            line += "# trailing"
        lines.append(line)
        layout.append((len(lines), tokens))
    return lines, layout


def _write(tokens: list) -> str:
    """A line holding [column, field, ...] tokens, each at its column or,
    after a token that grew, one space after it."""
    line = ""
    for col, *fields in tokens:
        line += " " * (col - 1 - len(line)) + ":".join(map(str, fields)) + " "
    return line


def _databases(seed: int):
    yield generate_small(seed)[0]
    yield generate(GenParams(n_transactions=30, n_items=8, avg_tx_len=4, max_tx_len=7,
                             seed=seed))[0]


# Lines per chunk that the parse is run with: one line, a few, and the
# default, which the small databases above never fill.
CHUNK_SIZES = (1, 3, dataio._CHUNK_LINES)


@contextmanager
def _chunk_lines(size: int):
    """dataio parses in chunks of `size` lines inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_CHUNK_LINES", size)
        yield


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_messy_layout_parses_to_the_same_database(seed):
    rng = random.Random(seed)
    for db in _databases(seed):
        lines, _layout = _messy_lines(db, rng)
        for size in CHUNK_SIZES:
            with _chunk_lines(size):
                assert dataio.parse_database("\n".join(lines)) == db


def _float_hex_lists(roots, eucs):
    """The roots' columns and sums and the EUCS cells, floats by float.hex."""
    def hexed(values):
        return [v.hex() if isinstance(v, float) else v for v in values]
    return ([(lst.pattern_po, lst.tids, *(hexed(c) for c in (lst.pro, lst.pu, lst.nu, lst.rpu,
                                                              lst.iu, lst.ip)),
              hexed([lst.sum_pro, lst.sum_pu, lst.sum_nu, lst.sum_rpu])) for lst in roots],
            [hexed(row) for row in eucs.rows])


def _roots_from_rows(db, table, order):
    """The roots and EUCS built by a walk over the transactions' rows, as
    the lists were built before the database became columns."""
    lists = {item: build_pulist_by_scan(db, table, order, [item]) for item in order.ordered_items}
    eucs = EUCS.zeros(order)
    units, rank = table.entries, order.rank
    for tx in db.transactions:
        kept = sorted((rank[item], units[item] * quantity) for item, quantity, _p in tx.rows
                      if item in rank)
        positive = 0.0
        for _r, u in reversed(kept):
            if u > 0.0:
                positive += u
        for k, (r, _u) in enumerate(kept):
            for q, _v in kept[:k]:
                eucs.rows[r][q] += positive
    return [lists[item] for item in order.ordered_items], eucs


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 700), seed=st.integers(0, 10_000), s2=st.booleans())
def test_parsed_and_constructed_databases_agree(n, seed, s2):
    """One data path: a file of n lines, also longer than a chunk, parses
    to the columns of make_database; the transactions view gives the
    database back; the roots and the EUCS read from the columns equal,
    by float.hex, those of a walk over the rows."""
    rng = random.Random(seed)
    probabilities = [1.0, 0.5, 0.25, 0.1, 0.3, 0.7, 1e-3]
    db = make_database(
        Transaction(tid, [(item, rng.randint(1, 9), rng.choice(probabilities))
                          for item in sorted(rng.sample(range(30), rng.randint(1, 8)))])
        for tid in range(1, n + 1))
    table = UtilityTable({i: rng.choice([-3.5, -1.0, 0.0, 0.1, 2.0, 7.25]) for i in range(30)})
    text = dataio.serialize_database(db)
    # the same lines with their tokens shuffled: the parser sorts them
    shuffled = []
    for line in text.splitlines():
        tokens = line.split(" ")
        rng.shuffle(tokens)
        shuffled.append(" ".join(tokens))
    for parsed in dataio.parse_database(text), dataio.parse_database("\n".join(shuffled)):
        assert parsed == db and hash(parsed) == hash(db)
        assert (parsed.items, parsed.quantities, parsed.probabilities, parsed.sizes) == (
            db.items, db.quantities, db.probabilities, db.sizes)
        assert parsed.item_universe == db.item_universe
        assert parsed.transactions == db.transactions
        assert all(type(tx) is Transaction for tx in parsed.transactions)
        again = make_database(parsed.transactions)
        assert again == parsed and hash(again) == hash(parsed)
    # rtwu as a walk over the rows adds it: rtu in row order, then per
    # item in tid order
    by_rows: dict = {}
    for tx in db.transactions:
        rtu = 0.0
        for item, quantity, _p in tx.rows:
            if table.entries[item] * quantity > 0.0:
                rtu += table.entries[item] * quantity
        for item, _q, _p in tx.rows:
            by_rows[item] = by_rows.get(item, 0.0) + rtu
    utilities = parsed.utilities(table)
    unfiltered = initial_scan(parsed, utilities, Thresholds(0.0, 0.0), apply_filter=False)
    assert {i: w.hex() for i, w in unfiltered.items()} == {
        i: by_rows[i].hex() for i in sorted(by_rows)}
    thresholds = Thresholds(rng.choice([0.0, 50.0, 400.0]), rng.choice([0.0, 0.01, 0.05]))
    rtwu = initial_scan(parsed, utilities, thresholds, apply_filter=s2)
    if not rtwu:
        return
    order = compute_processing_order(table, rtwu)
    eucs = EUCS.zeros(order)
    roots = build_initial_pulists(parsed, utilities, order, eucs)
    assert _float_hex_lists(roots, eucs) == _float_hex_lists(*_roots_from_rows(db, table, order))


# Each mutation rewrites one token [column, item, quantity, probability
# text] of a line, given the line's earlier tokens, and returns the
# message the ParseError must carry.
def _field_count(tok, _earlier):
    tok[3] += ":1"
    return f"expected item:quantity:probability, got '{tok[1]}:{tok[2]}:{tok[3]}'"


def _non_integer(tok, _earlier):
    tok[2] = "2.5"
    return "quantity must be an integer, got '2.5'"


def _zero_quantity(tok, _earlier):
    tok[2] = 0
    return "quantity must be >= 1, got 0"


def _probability(text, shown):
    def mutate(tok, _earlier):
        tok[3] = text
        return f"probability must be in (0, 1], got {shown}"
    return mutate


def _negative_item(tok, _earlier):
    tok[1] = -tok[1] - 1
    return f"item id must be >= 0, got {tok[1]}"


def _duplicate_item(tok, earlier):
    tok[1] = earlier[-1][1]
    return f"duplicate item {tok[1]} in transaction"


def _underscore(tok, _earlier):
    tok[2] = f"1_{tok[2]}"
    return f"quantity must be an integer, got '{tok[2]}'"


def _non_ascii_digit(tok, _earlier):
    tok[1] = f"\u0661{tok[1]}"  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
    return f"item id must be an integer, got '{tok[1]}'"


def _fullwidth_digit(tok, _earlier):
    tok[3] = "0.\uff15"  # FULLWIDTH DIGIT FIVE, which float() reads as 5
    return "probability must be a number, got '0.\uff15'"


def _control_character(tok, _earlier):
    # int() and float() strip a tab, vertical tab or form feed around a field
    tok[2] = f"\t{tok[2]}"
    tok[3] = f"{tok[3]}\f"
    return f"quantity must be an integer, got {tok[2]!r}"


MUTATIONS = {
    "field-count": _field_count,
    "control-character": _control_character,
    "non-integer": _non_integer,
    "underscore": _underscore,
    "non-ascii-digit": _non_ascii_digit,
    "fullwidth-digit": _fullwidth_digit,
    "zero-quantity": _zero_quantity,
    "zero-probability": _probability("0", "0.0"),
    "probability-above-one": _probability("1.5", "1.5"),
    "nan-probability": _probability("nan", "nan"),
    "negative-item": _negative_item,
    "duplicate-item": _duplicate_item,
}


@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS.keys())
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_one_bad_token_is_reported_where_it_stands(mutation, seed):
    rng = random.Random(seed)
    for db in _databases(seed):
        lines, layout = _messy_lines(db, rng)
        # a duplicate needs an earlier token on the same line
        candidates = [(n, tokens) for n, tokens in layout
                      if mutation is not _duplicate_item or len(tokens) > 1]
        if not candidates:
            continue
        line_no, tokens = rng.choice(candidates)
        k = rng.randrange(1 if mutation is _duplicate_item else 0, len(tokens))
        message = mutation(tokens[k], tokens[:k])
        lines[line_no - 1] = _write(tokens)
        for size in CHUNK_SIZES:
            with _chunk_lines(size), pytest.raises(dataio.ParseError) as err:
                dataio.parse_database("\n".join(lines))
            assert (err.value.line, err.value.column, err.value.message) == (
                line_no, tokens[k][0], message)



def _two_places(layout: list, rng: random.Random) -> list[tuple[int, int, list, int]]:
    """Two distinct tokens of a layout, half the time on one line, in
    reading order: each as (index in reading order, line number, the
    line's tokens, index in the line)."""
    places = [(line_no, toks, k) for line_no, toks in layout for k in range(len(toks))]
    lines = [toks for _, toks in layout if len(toks) > 1]
    if lines and rng.random() < 0.5:
        toks = rng.choice(lines)
        at = [i for i, (_, ts, _) in enumerate(places) if ts is toks]
    else:
        at = range(len(places))
    return [(i, *places[i]) for i in sorted(rng.sample(at, 2))]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_first_of_two_bad_tokens_is_reported(seed):
    rng = random.Random(seed)
    for db in _databases(seed):
        lines, layout = _messy_lines(db, rng)
        if sum(len(toks) for _, toks in layout) < 2:
            continue
        faults = []
        for _, line_no, toks, k in _two_places(layout, rng):
            mutation = rng.choice([m for m in MUTATIONS.values() if k or m is not _duplicate_item])
            faults.append((line_no, toks[k][0], mutation(toks[k], toks[:k])))
            lines[line_no - 1] = _write(toks)
        for size in CHUNK_SIZES:
            with _chunk_lines(size), pytest.raises(dataio.ParseError) as err:
                dataio.parse_database("\n".join(lines))
            assert (err.value.line, err.value.column, err.value.message) == faults[0]


# A token that breaks a rule of its own, added to the end of a line.
BAD_TOKEN, BAD_MESSAGE = "3:0:0.5", "quantity must be >= 1, got 0"


def _chunked_layout(n: int, size: int, faults=()) -> tuple[str, list, list]:
    """n content lines, their tokens out of item order, with a run of
    blank and comment lines before every third line and before the first
    line of every chunk of `size`; BAD_TOKEN ends the lines at `faults`.
    Also each content line's line number and column of BAD_TOKEN, and
    each line's rows."""
    raw, where, rows = [], [], []
    for k in range(n):
        if k % 3 == 0 or k % size == 0:
            raw += ["", "# note", "   # 1:0:0.5"]
        line_rows = [(10 + k % 7, k % 3 + 1, 0.5), (k % 5, 1, 0.25)]
        line = " ".join(f"{item}:{quantity}:{probability}"
                        for item, quantity, probability in line_rows)
        where.append((len(raw) + 1, len(line) + 2))
        raw.append(line + (" " + BAD_TOKEN if k in faults else ""))
        rows.append(line_rows)
    return "\n".join(raw) + "\n", where, rows


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("n", ["size-1", "size", "size+1", "3size+2"])
def test_chunks_parse_as_lines_do(monkeypatch, size, n):
    monkeypatch.setattr(dataio, "_CHUNK_LINES", size)
    n = {"size-1": size - 1, "size": size, "size+1": size + 1, "3size+2": 3 * size + 2}[n]
    text, _where, rows = _chunked_layout(n, size)
    assert dataio.parse_database(text) == make_database(
        Transaction(tid, sorted(line_rows)) for tid, line_rows in enumerate(rows, start=1))


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("faults", [
    lambda size: [size - 1],
    lambda size: [size],
    lambda size: [size - 1, size],
    lambda size: [2 * size + 1],
    lambda size: [3 * size + 1],
], ids=["last-of-a-chunk", "first-of-the-next", "both-sides-of-a-boundary",
        "after-valid-chunks", "last-line-of-a-short-chunk"])
def test_first_fault_is_found_across_chunks(monkeypatch, size, faults):
    monkeypatch.setattr(dataio, "_CHUNK_LINES", size)
    faults = faults(size)
    text, where, _rows = _chunked_layout(3 * size + 2, size, faults)
    with pytest.raises(dataio.ParseError) as err:
        dataio.parse_database(text)
    assert (err.value.line, err.value.column, err.value.message) == (
        *where[faults[0]], BAD_MESSAGE)


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("text", ["", "\n\n", "# only\n  # comments\n\n   \n"],
                         ids=["empty", "blank", "comments"])
def test_no_content_lines_is_an_empty_database(monkeypatch, size, text):
    monkeypatch.setattr(dataio, "_CHUNK_LINES", size)
    assert dataio.parse_database(text).size == 0


def _edge_row_sets():
    """One row of edge values, alone, beside another item and beside a
    repeat of its own item."""
    for row in product((0, -1), (0, 1),
                       (-0.0, 0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), math.nan)):
        yield [row]
        yield [row, (5, 1, 0.5)]
        yield [row, (row[0], 1, 0.5)]


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_parse_and_transaction_enforce_the_same_rules(monkeypatch, size):
    monkeypatch.setattr(dataio, "_CHUNK_LINES", size)
    for rows in _edge_row_sets():
        rows = sorted(rows)
        try:
            expected = Transaction(1, rows).rows
        except ValueError as exc:
            expected = str(exc)
        line = " ".join(f"{item}:{quantity}:{probability!r}"
                        for item, quantity, probability in rows)
        # a valid line on each side, so that a chunk holds more than the row set
        try:
            got = dataio.parse_database(f"7:1:0.5\n{line}\n8:2:1.0\n").transactions[1].rows
        except dataio.ParseError as err:
            assert err.line == 2, rows
            got = err.message
        assert got == expected, rows
        if not isinstance(got, str):
            assert [tuple(map(type, row)) for row in got] == [(int, int, float)] * len(rows)


class TestParsePtable:
    def test_example(self):
        table = dataio.parse_ptable("1:8 2:5 3:-2 4:12 5:7")
        assert table.entries == {1: 8.0, 2: 5.0, 3: -2.0, 4: 12.0, 5: 7.0}

    def test_single_negative_entry(self):
        assert dataio.parse_ptable("3:-2").entries == {3: -2.0}

    def test_duplicate_item(self):
        with pytest.raises(dataio.ParseError, match="duplicate item 1"):
            dataio.parse_ptable("1:8\n1:9")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_utility_rejected(self, token):
        with pytest.raises(dataio.ParseError, match="utility must be finite") as err:
            dataio.parse_ptable(f"1:8\n2:5 1:{token}")
        assert err.value.line == 2 and err.value.column == 5

    def test_negative_item_rejected(self):
        with pytest.raises(dataio.ParseError, match="item id must be >= 0") as err:
            dataio.parse_ptable("1:8\n2:5 -1:5")
        assert err.value.line == 2 and err.value.column == 5

    def test_bad_value_reported_before_a_later_repeat(self):
        with pytest.raises(dataio.ParseError, match="utility must be finite") as err:
            dataio.parse_ptable("1:8 2:nan\n2:5")
        assert err.value.line == 1 and err.value.column == 5

    @pytest.mark.parametrize("token, message", [
        ("1:x", "utility must be a number, got 'x'"),
        ("x:1", "item id must be an integer, got 'x'"),
        ("1", "expected item:utility, got '1'"),
        ("1:2:3", "expected item:utility, got '1:2:3'"),
        ("1:1_000", "utility must be a number, got '1_000'"),
        ("1_0:1", "item id must be an integer, got '1_0'"),
        ("\u0661:1", "item id must be an integer, got '\u0661'"),
        ("1:\uff12", "utility must be a number, got '\uff12'"),
        ("1:\t2", "utility must be a number, got '\\t2'"),
        ("\v1:2", "item id must be an integer, got '\\x0b1'"),
        ("1:2\f", "utility must be a number, got '2\\x0c'"),
    ])
    def test_token_that_does_not_convert(self, token, message):
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_ptable(f"1:8\n2:5  {token} 3:1\n")
        assert (err.value.line, err.value.column, err.value.message) == (2, 6, message)

    def test_first_fault_in_reading_order_is_reported(self):
        # line 1 is at fault before line 2's token, which does not convert
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_ptable("1:inf\n2:x")
        assert (err.value.line, err.value.column) == (1, 1)
        assert err.value.message == "utility must be finite, got inf for item 1"

    def test_fault_is_found_in_logarithmic_conversions(self, monkeypatch):
        n = 20_000
        text = "".join(f"{i}:1\n" for i in range(n - 1)) + "7:2\n"
        table, calls = dataio._table, []

        def counted(contents):
            calls.append(contents)
            return table(contents)

        monkeypatch.setattr(dataio, "_table", counted)
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_ptable(text)
        assert (err.value.line, err.value.column, err.value.message) == (
            n, 1, "duplicate item 7 in utility table")
        assert len(calls) <= 2 * math.ceil(math.log2(n)) + 2

    def test_one_entry_per_line_also_works(self):
        table = dataio.parse_ptable("1:8\n2:5\n")
        assert table.entries == {1: 8.0, 2: 5.0}

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_a_line_ends_only_at_a_newline(self, sep):
        assert dataio.parse_ptable(f"# note{sep}more\n1:8\n").entries == {1: 8.0}
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_ptable(f"1:8\n# a{sep}b\r\n2:x\n")
        assert (err.value.line, err.value.column, err.value.message) == (
            3, 1, "utility must be a number, got 'x'")


def _messy_table(table, rng: random.Random) -> tuple[list[str], list[tuple[int, list]]]:
    """table written as its tokens in a shuffled order, one to three a
    line, with runs of spaces and blank and comment lines between; also,
    per line, its number and its tokens as [column, item, utility text]."""
    entries = list(table.entries.items())
    rng.shuffle(entries)
    lines, layout = [], []
    while entries:
        while rng.random() < 0.3:
            lines.append(rng.choice(["", "   ", "# a comment"]))
        line, tokens = " " * rng.randint(0, 2), []
        for item, utility in entries[:rng.randint(1, 3)]:
            tokens.append([len(line) + 1, item, repr(utility)])
            line += f"{item}:{utility!r}" + " " * rng.randint(1, 3)
        del entries[:len(tokens)]
        lines.append(line)
        layout.append((len(lines), tokens))
    return lines, layout


# Each rewrites one table token [column, item, utility text], given the
# tokens before it in the file, and returns the message it must raise.
def _table_field_count(tok, _earlier):
    tok[2] += ":1"
    return f"expected item:utility, got '{tok[1]}:{tok[2]}'"


def _not_a_number(tok, _earlier):
    tok[2] = "x"
    return "utility must be a number, got 'x'"


def _not_finite(tok, _earlier):
    tok[2] = "inf"
    return f"utility must be finite, got inf for item {tok[1]}"


def _table_negative_item(tok, _earlier):
    tok[1] = -tok[1] - 1
    return f"item id must be >= 0, got {tok[1]}"


def _repeat(tok, earlier):
    tok[1] = earlier[-1][1]
    return f"duplicate item {tok[1]} in utility table"


TABLE_MUTATIONS = [_table_field_count, _not_a_number, _not_finite, _table_negative_item,
                   _repeat]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_first_of_two_bad_table_tokens_is_reported(seed):
    rng = random.Random(seed)
    lines, layout = _messy_table(generate_small(seed)[1], rng)
    tokens = [tok for _, toks in layout for tok in toks]
    if len(tokens) < 2:
        return
    faults = []
    for i, line_no, toks, k in _two_places(layout, rng):
        earlier = tokens[:i]
        mutation = rng.choice([m for m in TABLE_MUTATIONS if earlier or m is not _repeat])
        faults.append((line_no, toks[k][0], mutation(toks[k], earlier)))
        lines[line_no - 1] = _write(toks)
    with pytest.raises(dataio.ParseError) as err:
        dataio.parse_ptable("\n".join(lines))
    assert (err.value.line, err.value.column, err.value.message) == faults[0]


class TestSerializeResults:
    def test_example_lines(self):
        patterns = [
            MinedPattern(Pattern.of([2, 3, 5]), 48.0, 1.475),
            MinedPattern(Pattern.of([4, 5]), 166.0, 2.22),
        ]
        text = dataio.serialize_results(patterns)
        assert text == "4 5 #UTIL: 166 #PROB: 2.22\n2 3 5 #UTIL: 48 #PROB: 1.475\n"

    def test_empty(self):
        assert dataio.serialize_results([]) == ""

    def test_sorted_by_length_then_ids(self):
        patterns = [
            MinedPattern(Pattern.of([9]), 1.0, 1.0),
            MinedPattern(Pattern.of([1, 2]), 1.0, 1.0),
            MinedPattern(Pattern.of([2]), 1.0, 1.0),
        ]
        lines = dataio.serialize_results(patterns).splitlines()
        assert lines[0].startswith("2 ") and lines[1].startswith("9 ")
        assert lines[2].startswith("1 2 ")

    def test_six_digit_trimming(self):
        m = MinedPattern(Pattern.of([1]), 1.0000004, 0.3333333333)
        text = dataio.serialize_results([m])
        assert "#UTIL: 1 #PROB: 0.333333" in text


class TestSerializeStats:
    def test_csv_header_and_zero_row(self):
        stats = MiningStats(preset="ALL", min_util=20, min_pro=0.25)
        text = dataio.serialize_stats(stats, "csv")
        lines = text.splitlines()
        assert lines[0] == ("preset,min_util,min_pro,visited_nodes,joins_attempted,"
                            "joins_abandoned,eucs_skips,s3_cuts,s4_cuts,s5_skips,"
                            "phuis_found,tids_in,tids_out,"
                            "elapsed_ms,check_ms,scan_ms,lists_ms,search_ms")
        assert lines[1] == "ALL,20,0.25,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"

    def test_json(self):
        stats = MiningStats(preset="ALL", min_util=20, min_pro=0.25,
                            visited_nodes=12, phuis_found=10, elapsed=0.002,
                            scan_s=0.0005, search_s=0.001)
        payload = json.loads(dataio.serialize_stats(stats, "json"))
        assert payload[0]["preset"] == "ALL"
        assert payload[0]["visited_nodes"] == 12
        assert payload[0]["elapsed_ms"] == pytest.approx(2.0)
        assert payload[0]["scan_ms"] == pytest.approx(0.5)
        assert payload[0]["search_ms"] == pytest.approx(1.0)
        assert payload[0]["check_ms"] == payload[0]["lists_ms"] == 0.0
        assert "elapsed" not in payload[0] and "scan_s" not in payload[0]
        assert list(payload[0]) == dataio.STATS_CSV_FIELDS

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown stats format"):
            dataio.serialize_stats(MiningStats(), "xml")


# Values of the types that a caller might hand a checked constructor in
# place of an int or a float; the odd one replaces one drawn value.
_ODD = st.one_of(st.booleans(), st.floats(0, 40), st.fractions(0, 40),
                 st.decimals(0, 40, places=2), st.integers(-2**70, 2**70))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(st.integers(0, 2**70), st.integers(1, 2**70),
                                        st.one_of(st.floats(0, 1, exclude_min=True),
                                                  st.just(1))),
                              min_size=1, max_size=4, unique_by=lambda row: row[0]),
                     max_size=4),
       odd=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 15), _ODD)))
def test_every_accepted_database_round_trips(rows, odd):
    """Every database that the checked constructors accept, from columns
    or from Transactions, serializes to text that parses back equal."""
    txs = [sorted(tx) for tx in rows]
    columns = [[row[k] for tx in txs for row in tx] for k in range(3)] + [list(map(len, txs))]
    if odd is not None and columns[odd[0]]:
        column, at, value = odd
        columns[column][at % len(columns[column])] = value
    flat = list(zip(*columns[:3]))
    ends = list(accumulate(map(len, txs)))
    builds = [lambda: UncertainDatabase(*columns),
              lambda: make_database(Transaction(tid, flat[a:b]) for tid, a, b
                                    in zip(range(1, len(ends) + 1), [0, *ends], ends))]
    for build in builds:
        try:
            db = build()
        except ValueError:
            continue
        assert dataio.parse_database(dataio.serialize_database(db)) == db


@settings(max_examples=150, deadline=None)
@given(entries=st.dictionaries(st.integers(0, 2**70),
                               st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                         st.integers(-2**70, 2**70),
                                         # where floats no longer hold every int
                                         st.integers(2**53, 2**54)),
                               max_size=4),
       odd=st.one_of(st.none(), st.tuples(st.booleans(), _ODD | st.floats() | st.integers())))
def test_every_accepted_table_round_trips(entries, odd):
    """Every table that UtilityTable accepts serializes to text that
    parses back equal."""
    if odd is not None:
        as_id, value = odd
        if as_id:
            entries[value] = 1.0
        else:
            entries[0] = value
    try:
        table = UtilityTable(entries)
    except ValueError:
        return
    assert dataio.parse_ptable(dataio.serialize_ptable(table)) == table


class TestRoundTrip:
    def test_example(self, ex_db, ex_table):
        assert dataio.parse_database(dataio.serialize_database(ex_db)) == ex_db
        assert dataio.parse_ptable(dataio.serialize_ptable(ex_table)) == ex_table

    def test_serialization_is_stable(self):
        # serialize(parse(.)) is a fixed point: re-parsing and
        # re-serializing changes nothing
        db = dataio.parse_database(EXAMPLE_DB_TEXT)
        once = dataio.serialize_database(db)
        assert dataio.serialize_database(dataio.parse_database(once)) == once
        table = dataio.parse_ptable(EXAMPLE_PTABLE_TEXT)
        assert dataio.serialize_ptable(table) == "1:8\n2:5\n3:-2\n4:12\n5:7\n"

    def test_generated_database_round_trips(self):
        db, table = generate(GenParams(n_transactions=300, n_items=40,
                                       negative_fraction=0.3, seed=21))
        assert dataio.parse_database(dataio.serialize_database(db)) == db
        assert dataio.parse_ptable(dataio.serialize_ptable(table)) == table

    def test_awkward_floats_round_trip(self):
        text = "1:1:0.1234567890123 2:1:0.00001\n"
        db = dataio.parse_database(text)
        again = dataio.parse_database(dataio.serialize_database(db))
        assert again == db


    def test_exact_decimal_matches_decimal_expansion(self):
        # repr is used as is unless it has an exponent; the output must
        # equal the full Decimal expansion of repr on every kind of value
        def reference(x: float) -> str:
            if x == int(x) and abs(x) < 1e16:
                return str(int(x))
            return format(Decimal(repr(x)), "f")

        rng = random.Random(5)
        values = [rng.random() for _ in range(2000)]
        for exponent in range(-12, 21):
            for sign in (1.0, -1.0):
                values.append(sign * 10.0 ** exponent)
                values.extend(sign * rng.uniform(1.0, 10.0) * 10.0 ** exponent
                              for _ in range(20))
        values += [5e-324, 1e16, 1e15 + 0.5]
        for x in values:
            assert dataio._exact_decimal(x) == reference(x), x
            assert float(dataio._exact_decimal(x)) == x
