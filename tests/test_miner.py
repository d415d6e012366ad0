import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phuimine import dataio
from phuimine.datagen import generate_small
from phuimine.miner import (
    EUCS,
    MiningConfig,
    PRESETS,
    initial_scan,
    mine,
    mine_preset,
)
from phuimine.model import (
    DatabaseValidationError,
    Pattern,
    Thresholds,
    Transaction,
    TransactionEntry,
    UtilityTable,
    make_database,
)
from phuimine.pulist import build_initial_pulists, compute_processing_order

import measures
from helpers import A, B, C, D, E, EXAMPLE_PHUIS, rel_close, results_map

TH = Thresholds(20, 0.25)


class TestInitialScan:
    def test_example_all_items_survive(self, ex_db, ex_table):
        survivors, n = initial_scan(ex_db, ex_table, TH)
        assert n == 5
        assert set(survivors) == {A, B, C, D, E}
        rtwu = {i: v[0] for i, v in survivors.items()}
        assert rtwu == {A: 185, B: 259, C: 202, D: 231, E: 285}
        assert rel_close(survivors[A][1], 2.5)

    def test_high_min_util_keeps_b_and_e(self, ex_db, ex_table):
        survivors, _ = initial_scan(ex_db, ex_table, Thresholds(250, 0.25))
        assert set(survivors) == {B, E}

    def test_empty_database(self, ex_table):
        survivors, n = initial_scan(make_database([]), ex_table, TH)
        assert survivors == {} and n == 0

    def test_filter_off_keeps_everything(self, ex_db, ex_table):
        survivors, _ = initial_scan(ex_db, ex_table, Thresholds(1e9, 1.0),
                                    apply_filter=False)
        assert set(survivors) == {A, B, C, D, E}


def eucs_of(db, table, thresholds, *, apply_filter=True):
    """The EUCS that the list-building walk fills, as mine() builds it."""
    survivors, _ = initial_scan(db, table, thresholds, apply_filter=apply_filter)
    order = compute_processing_order(table, {i: v[0] for i, v in survivors.items()})
    eucs = EUCS.zeros(order)
    build_initial_pulists(db, table, order, eucs.rows)
    return eucs


@pytest.fixture(scope="module")
def ex_eucs(ex_db, ex_table):
    return eucs_of(ex_db, ex_table, TH)


ZERO = (0.0).hex()


class TestEucs:
    def test_pair_values(self, ex_eucs):
        assert ex_eucs.pair(A, B) == 161  # rtu(T1) + rtu(T3)
        assert ex_eucs.pair(A, E) == 161
        assert ex_eucs.pair(B, A) == 161  # either argument order

    def test_absent_pair_is_zero(self):
        # items 1 and 3 never share a transaction; 2 shares one with each
        db = make_database([
            Transaction(1, (TransactionEntry(1, 1, 0.5), TransactionEntry(2, 2, 0.5))),
            Transaction(2, (TransactionEntry(2, 1, 0.5), TransactionEntry(3, 1, 0.5))),
        ])
        table = UtilityTable({1: 3.0, 2: 4.0, 3: 5.0})
        eucs = eucs_of(db, table, Thresholds(0.0, 0.0), apply_filter=False)
        assert eucs.pair(1, 3).hex() == eucs.pair(3, 1).hex() == ZERO
        assert (eucs.pair(1, 2), eucs.pair(2, 3)) == (11.0, 9.0)
        # lower-triangular over the processing order: row r has r cells
        assert [len(row) for row in eucs.rows] == [0, 1, 2]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pairs_are_pair_rtwu(self, seed):
        # with every item surviving, a pair's value is its rtwu: the
        # summed positive utility of the transactions holding both
        db, table = generate_small(seed, negative_fraction=0.5, max_items=8,
                                   max_transactions=12)
        eucs = eucs_of(db, table, Thresholds(0.0, 0.0), apply_filter=False)
        items = sorted(db.item_universe)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                rtwu = measures.rtwu(Pattern.of([a, b]), db, table)
                assert eucs.pair(a, b) == eucs.pair(b, a) == rtwu
                if not any({a, b} <= {e.item for e in tx.entries} for tx in db.transactions):
                    assert eucs.pair(a, b).hex() == ZERO


class TestMine:
    def test_example_results(self, ex_db, ex_table):
        results, stats = mine(ex_db, ex_table, TH)
        got = results_map(results)
        assert set(got) == set(EXAMPLE_PHUIS)
        for items, (u, pro) in EXAMPLE_PHUIS.items():
            assert got[items][0] == u
            assert rel_close(got[items][1], pro)
        assert stats.phuis_found == 10

    def test_preset_none_identical(self, ex_db, ex_table):
        baseline, _ = mine_preset(ex_db, ex_table, TH, "ALL")
        exhaustive, _ = mine_preset(ex_db, ex_table, TH, "NONE")
        assert results_map(baseline) == results_map(exhaustive)

    def test_every_preset_identical(self, ex_db, ex_table):
        reference = results_map(mine_preset(ex_db, ex_table, TH, "NONE")[0])
        for preset in PRESETS:
            assert results_map(mine_preset(ex_db, ex_table, TH, preset)[0]) == reference

    def test_huge_min_util_yields_nothing(self, ex_db, ex_table):
        results, stats = mine(ex_db, ex_table, Thresholds(1e9, 0.25))
        assert results == []
        assert stats.visited_nodes == 0

    def test_be_emitted_ad_not(self, ex_db, ex_table):
        got = results_map(mine(ex_db, ex_table, TH)[0])
        assert got[(B, E)] == (103.0, pytest.approx(2.15))
        assert (A, D) not in got

    def test_no_duplicate_emissions(self, ex_db, ex_table):
        results, _ = mine_preset(ex_db, ex_table, TH, "NONE")
        patterns = [m.pattern for m in results]
        assert len(patterns) == len(set(patterns))

    def test_counter_monotonicity_on_example(self, ex_db, ex_table):
        visited = []
        for preset in ["P12", "P123", "P1234", "ALL"]:
            _, stats = mine_preset(ex_db, ex_table, TH, preset)
            visited.append(stats.visited_nodes)
            assert stats.visited_nodes >= stats.phuis_found == 10
        assert visited == sorted(visited, reverse=True)

    def test_determinism(self, ex_db, ex_table):
        r1, s1 = mine(ex_db, ex_table, TH)
        r2, s2 = mine(ex_db, ex_table, TH)
        assert dataio.serialize_results(r1) == dataio.serialize_results(r2)
        s1.elapsed = s2.elapsed = 0.0
        assert s1 == s2

    def test_threshold_monotonicity_on_example(self, ex_db, ex_table):
        loose = set(results_map(mine(ex_db, ex_table, TH)[0]))
        strict = set(results_map(mine(ex_db, ex_table, Thresholds(60, 0.4))[0]))
        assert strict <= loose

    def test_min_pro_out_of_range(self, ex_db, ex_table):
        with pytest.raises(ValueError, match="min_pro"):
            mine(ex_db, ex_table, Thresholds(20, 1.5))

    @pytest.mark.parametrize("min_util", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_min_util_rejected(self, ex_db, ex_table, min_util):
        with pytest.raises(ValueError, match="min_util must be finite"):
            mine(ex_db, ex_table, Thresholds(min_util, 0.25))

    def test_invalid_database_raises(self, ex_db):
        # a bad occurrence is refused when it is built, before mine()
        with pytest.raises(ValueError, match="quantity must be >= 1"):
            make_database([Transaction(1, (TransactionEntry(1, 0, 0.5),))])
        with pytest.raises(DatabaseValidationError, match="missing from utility table"):
            mine(ex_db, UtilityTable({1: 1.0}), TH)
        with pytest.raises(DatabaseValidationError, match="not finite"):
            mine(ex_db, UtilityTable({1: 1e308, 2: 1e308, 3: 1.0, 4: 1.0, 5: 1.0}), TH)

    def test_negative_min_util_includes_loss_patterns(self, ex_db, ex_table):
        got = results_map(mine(ex_db, ex_table, Thresholds(-100, 0.25))[0])
        assert (C,) in got  # utility -16 qualifies once min_util is low
        assert got[(C,)][0] == -16.0

    def test_zero_utility_item_end_to_end(self):
        from phuimine import verify

        db = make_database([
            Transaction(1, (TransactionEntry(1, 2, 0.5), TransactionEntry(2, 1, 0.75),
                            TransactionEntry(3, 1, 1.0))),
            Transaction(2, (TransactionEntry(2, 3, 1.0), TransactionEntry(3, 2, 0.25))),
            Transaction(3, (TransactionEntry(1, 1, 1.0), TransactionEntry(3, 4, 0.5))),
        ])
        table = UtilityTable({1: 6.0, 2: 0.0, 3: -2.0})
        for th in (Thresholds(0, 0.2), Thresholds(-5, 0.0), Thresholds(5, 0.5)):
            assert verify.check_instance(db, table, th) is None

    def test_s3_blocks_low_probability_expansion(self, ex_db, ex_table):
        # {a,d} has expected support 0.54 < 1.25: never in the output,
        # and gating expansion on probability shrinks the visit count
        none_results, none_stats = mine(ex_db, ex_table, TH,
                                        MiningConfig.from_preset("NONE"))
        s3_results, s3_stats = mine(ex_db, ex_table, TH,
                                    MiningConfig.from_strategies(["s3"]))
        assert results_map(none_results) == results_map(s3_results)
        assert (A, D) not in results_map(s3_results)
        assert s3_stats.visited_nodes < none_stats.visited_nodes
        assert s3_stats.s3_cuts > 0


class TestConfig:
    def test_presets_match_toggle_vectors(self):
        assert MiningConfig.from_preset("P12") == MiningConfig(
            True, True, False, False, False, False, preset="P12")
        assert MiningConfig.from_preset("all").preset == "ALL"
        none = MiningConfig.from_preset("NONE")
        assert not any([none.s1_pu_prune, none.s2_initial_filter,
                        none.s3_probability_bound, none.s4_remaining_utility_bound,
                        none.s5_empty_or_lowpro_skip, none.s6_eucp])

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            MiningConfig.from_preset("P99")

    def test_from_strategies(self):
        config = MiningConfig.from_strategies(["s1", "s3"])
        assert config.s1_pu_prune and config.s3_probability_bound
        assert not config.s2_initial_filter and not config.s6_eucp

    def test_from_strategies_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown strategies"):
            MiningConfig.from_strategies(["s9"])

    def test_single_strategy_configs_are_sound(self, ex_db, ex_table):
        reference = results_map(mine_preset(ex_db, ex_table, TH, "NONE")[0])
        for s in ["s1", "s2", "s3", "s4", "s5", "s6"]:
            config = MiningConfig.from_strategies([s])
            assert results_map(mine(ex_db, ex_table, TH, config)[0]) == reference


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), looser_du=st.floats(0, 50),
       looser_dp=st.floats(0, 0.5))
def test_threshold_monotonicity_fuzz(seed, looser_du, looser_dp):
    db, table = generate_small(seed, negative_fraction=0.2, max_items=8,
                               max_transactions=15)
    strict = Thresholds(10.0, 0.5)
    loose = Thresholds(strict.min_util - looser_du,
                       max(0.0, strict.min_pro - looser_dp))
    strict_set = set(results_map(mine(db, table, strict)[0]))
    loose_set = set(results_map(mine(db, table, loose)[0]))
    assert strict_set <= loose_set
