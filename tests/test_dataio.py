import json
import random
from decimal import Decimal

import pytest

from phuimine import dataio
from phuimine.datagen import GenParams, generate
from phuimine.miner import MiningStats
from phuimine.model import MinedPattern, Pattern

from helpers import EXAMPLE_DB_TEXT, EXAMPLE_PTABLE_TEXT


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

    def test_one_entry_per_line_also_works(self):
        table = dataio.parse_ptable("1:8\n2:5\n")
        assert table.entries == {1: 8.0, 2: 5.0}


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
        text = dataio.serialize_stats(stats)
        lines = text.splitlines()
        assert lines[0] == ("preset,min_util,min_pro,visited_nodes,joins_attempted,"
                            "joins_abandoned,eucs_skips,s3_cuts,s4_cuts,s5_skips,"
                            "phuis_found,elapsed_ms")
        assert lines[1] == "ALL,20,0.25,0,0,0,0,0,0,0,0,0"

    def test_two_runs_one_header(self):
        runs = [MiningStats(preset="P12"), MiningStats(preset="ALL")]
        lines = dataio.serialize_stats(runs).splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("P12") and lines[2].startswith("ALL")

    def test_json(self):
        stats = MiningStats(preset="ALL", min_util=20, min_pro=0.25,
                            visited_nodes=12, phuis_found=10, elapsed=0.002)
        payload = json.loads(dataio.serialize_stats(stats, "json"))
        assert payload[0]["preset"] == "ALL"
        assert payload[0]["visited_nodes"] == 12
        assert payload[0]["elapsed_ms"] == pytest.approx(2.0)
        assert "elapsed" not in payload[0]
        assert list(payload[0]) == dataio.STATS_CSV_FIELDS

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown stats format"):
            dataio.serialize_stats(MiningStats(), "xml")


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
