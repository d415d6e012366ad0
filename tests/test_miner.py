import dataclasses
import gc
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phuimine import dataio
from phuimine.datagen import GenParams, generate, generate_small
from phuimine.miner import MiningConfig, MiningStats, PRESETS, initial_scan, mine
from phuimine.model import (
    DatabaseValidationError,
    Pattern,
    Thresholds,
    Transaction,
    UncertainDatabase,
    UtilityTable,
    make_database,
)
from phuimine.pulist import EUCS, build_initial_pulists, compute_processing_order
from phuimine.verify import PRESET_SEQUENCE, make_fuzz_case

import measures
from helpers import A, B, C, D, E, EXAMPLE_PHUIS, rel_close, results_map

TH = Thresholds(20, 0.25)


class TestInitialScan:
    def test_example_all_items_survive(self, ex_db, ex_table):
        assert initial_scan(ex_db, ex_db.utilities(ex_table), TH) == {
            A: 185, B: 259, C: 202, D: 231, E: 285}

    def test_high_min_util_keeps_b_and_e(self, ex_db, ex_table):
        assert set(initial_scan(ex_db, ex_db.utilities(ex_table), Thresholds(250, 0.25))) == {B, E}

    def test_drops_an_item_on_expected_support_alone(self, ex_db, ex_table):
        # bound 0.5 * 5 = 2.5: D's expected support is 2.4, while A and B
        # sit exactly on the bound (2.5); every rtwu passes min_util 0
        survivors = initial_scan(ex_db, ex_db.utilities(ex_table), Thresholds(0, 0.5))
        assert set(survivors) == {A, B, C, E}

    def test_empty_database(self):
        assert initial_scan(make_database([]), [], TH) == {}

    def test_filter_off_keeps_everything(self, ex_db, ex_table):
        survivors = initial_scan(ex_db, ex_db.utilities(ex_table), Thresholds(1e9, 1.0),
                                 apply_filter=False)
        assert set(survivors) == {A, B, C, D, E}


def eucs_of(db, table, thresholds, *, apply_filter=True):
    """The EUCS that the list-building walk fills, as mine() builds it."""
    order = compute_processing_order(
        table, initial_scan(db, db.utilities(table), thresholds, apply_filter=apply_filter))
    eucs = EUCS.zeros(order)
    build_initial_pulists(db, db.utilities(table), order, eucs)
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

    def test_partners_keep_the_pairs_not_below_min_util(self, ex_db, ex_table, ex_eucs):
        # the example's order is A, D, B, E, C; A pairs with D at 107,
        # with B and E at 161 and with C at 78: a bound on a pair keeps it
        order = compute_processing_order(
            ex_table, initial_scan(ex_db, ex_db.utilities(ex_table), TH))
        lists = build_initial_pulists(ex_db, ex_db.utilities(ex_table), order)
        y, later = lists[0].pattern_po[-1], lists[1:]
        for min_util in (0.0, 78.0, 79.0, 107.0, 108.0, 161.0, 162.0):
            kept = ex_eucs.partners(y, later, min_util)
            assert kept == [pz for pz in later if ex_eucs.pair(y, pz.pattern_po[-1]) >= min_util]
        assert [pz.pattern_po for pz in ex_eucs.partners(y, later, 161.0)] == [(B,), (E,)]

    def test_absent_pair_is_zero(self):
        # items 1 and 3 never share a transaction; 2 shares one with each
        db = make_database([
            Transaction(1, ((1, 1, 0.5), (2, 2, 0.5))),
            Transaction(2, ((2, 1, 0.5), (3, 1, 0.5))),
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
                if not any({a, b} <= {i for i, _q, _p in tx.rows} for tx in db.transactions):
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
        baseline, _ = mine(ex_db, ex_table, TH, MiningConfig.from_preset("ALL"))
        exhaustive, _ = mine(ex_db, ex_table, TH, MiningConfig.from_preset("NONE"))
        assert results_map(baseline) == results_map(exhaustive)

    def test_every_preset_identical(self, ex_db, ex_table):
        reference = results_map(mine(ex_db, ex_table, TH, MiningConfig.from_preset("NONE"))[0])
        for preset in PRESETS:
            found, _ = mine(ex_db, ex_table, TH, MiningConfig.from_preset(preset))
            assert results_map(found) == reference

    def test_huge_min_util_yields_nothing(self, ex_db, ex_table):
        results, stats = mine(ex_db, ex_table, Thresholds(1e9, 0.25))
        assert results == []
        assert stats.visited_nodes == 0

    def test_be_emitted_ad_not(self, ex_db, ex_table):
        got = results_map(mine(ex_db, ex_table, TH)[0])
        assert got[(B, E)] == (103.0, pytest.approx(2.15))
        assert (A, D) not in got

    def test_no_duplicate_emissions(self, ex_db, ex_table):
        results, _ = mine(ex_db, ex_table, TH, MiningConfig.from_preset("NONE"))
        patterns = [m.pattern for m in results]
        assert len(patterns) == len(set(patterns))

    def test_counter_monotonicity_on_example(self, ex_db, ex_table):
        visited = []
        for preset in ["P12", "P123", "P1234", "ALL"]:
            _, stats = mine(ex_db, ex_table, TH, MiningConfig.from_preset(preset))
            visited.append(stats.visited_nodes)
            assert stats.visited_nodes >= stats.phuis_found == 10
        assert visited == sorted(visited, reverse=True)

    def test_determinism(self, ex_db, ex_table):
        r1, s1 = mine(ex_db, ex_table, TH)
        r2, s2 = mine(ex_db, ex_table, TH)
        assert dataio.serialize_results(r1) == dataio.serialize_results(r2)
        for name in MiningStats.TIMES:
            setattr(s1, name, 0.0)
            setattr(s2, name, 0.0)
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
            make_database([Transaction(1, ((1, 0, 0.5),))])
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
            Transaction(1, ((1, 2, 0.5), (2, 1, 0.75), (3, 1, 1.0))),
            Transaction(2, ((2, 3, 1.0), (3, 2, 0.25))),
            Transaction(3, ((1, 1, 1.0), (3, 4, 0.5))),
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
            True, True, False, False, False, False)
        assert MiningConfig.from_preset("all").preset == "ALL"
        none = MiningConfig.from_preset("NONE")
        assert not any([none.s1_pu_prune, none.s2_initial_filter,
                        none.s3_probability_bound, none.s4_remaining_utility_bound,
                        none.s5_empty_or_lowpro_skip, none.s6_eucp])

    def test_preset_label_follows_the_flags(self, ex_db, ex_table):
        # the label names the preset with exactly the flags mined with
        no_s6 = dataclasses.replace(MiningConfig.from_preset("ALL"), s6_eucp=False)
        assert mine(ex_db, ex_table, TH, no_s6)[1].preset == "custom"
        assert mine(ex_db, ex_table, TH, MiningConfig())[1].preset == "ALL"
        assert MiningConfig.from_strategies(["s2", "S1"]).preset == "P12"
        for name in PRESETS:
            assert MiningConfig.from_preset(name).preset == name

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
        reference = results_map(mine(ex_db, ex_table, TH, MiningConfig.from_preset("NONE"))[0])
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


COUNTER_FIELDS = ("visited_nodes", "joins_attempted", "joins_abandoned", "eucs_skips",
                  "s3_cuts", "s4_cuts", "s5_skips", "phuis_found")

# Every counter of every preset on fixed instances, so that a slip in how
# search adds up its counts fails a named test. Between them the
# instances make each counter nonzero under some preset.
PINNED_COUNTERS = {
    "generated": {
        "NONE": (32277, 34826, 0, 0, 0, 0, 0, 1409),
        "P12": (3601, 7459, 3874, 0, 0, 0, 0, 1409),
        "P123": (3503, 6639, 3152, 0, 637, 0, 0, 1409),
        "P1234": (3448, 5849, 2417, 0, 615, 772, 0, 1409),
        "ALL": (2833, 5511, 2138, 0, 0, 772, 556, 1409),
    },
    "fuzz-20-0": {
        "NONE": (1515, 1540, 0, 0, 0, 0, 0, 13),
        "P12": (33, 54, 30, 0, 0, 0, 0, 13),
        "P123": (30, 41, 20, 0, 17, 0, 0, 13),
        "P1234": (30, 41, 20, 0, 17, 0, 0, 13),
        "ALL": (13, 37, 17, 0, 0, 0, 16, 13),
    },
    "fuzz-20-1": {
        "NONE": (1515, 1540, 0, 0, 0, 0, 0, 273),
        "P12": (1193, 1253, 72, 0, 0, 0, 0, 273),
        "P123": (615, 661, 58, 0, 225, 0, 0, 273),
        "P1234": (568, 614, 58, 0, 194, 31, 0, 273),
        "ALL": (374, 520, 42, 2, 0, 31, 116, 273),
    },
    "fuzz-20-2": {
        "NONE": (1515, 1540, 0, 0, 0, 0, 0, 1113),
        "P12": (1466, 1496, 42, 0, 0, 0, 0, 1113),
        "P123": (1466, 1496, 42, 0, 0, 0, 0, 1113),
        "P1234": (1410, 1436, 38, 0, 0, 127, 0, 1113),
        "ALL": (1410, 1435, 37, 1, 0, 127, 0, 1113),
    },
    "fuzz-20-3": {
        "NONE": (1515, 1540, 0, 0, 0, 0, 0, 361),
        "P12": (1188, 1257, 81, 0, 0, 0, 0, 361),
        "P123": (573, 623, 62, 0, 212, 0, 0, 361),
        "P1234": (573, 623, 62, 0, 212, 0, 0, 361),
        "ALL": (361, 512, 45, 0, 0, 0, 118, 361),
    },
}


def _perfbench(name: str):
    """perfbench's module `name`: its workload definitions (workloads) or
    its result checks (check), read from the checkout without putting
    perfbench on the path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["c7-wide", "c7-scan", "dense-deep", "fuzz-verify"])
def test_join_tid_counts_equal_the_recorded_ones(workload):
    """The tids that the joins read and keep, as the library counts them,
    equal those that perfbench's traced runs counted around every
    construct call (perfbench/expected.json): on fuzz-verify summed over
    the mine() calls of its 240 check_instance calls. On c7-wide most
    joins are walked, so a walked join counts as a merged one does. On
    c7-wide, c7-scan and dense-deep the result's pattern count and
    membership digest, by perfbench's own checks (check.py), equal the
    recorded ones too, on every Python that runs the suite: builtin
    sum() of floats changed at 3.12."""
    workloads = _perfbench("workloads")
    expected = json.loads((Path(workloads.__file__).parent / "expected.json").read_text())
    w = workloads.WORKLOADS[workload]
    runs = []
    if w.is_fuzz:
        for seed in range(w.fuzz_cases):
            case = make_fuzz_case(seed)
            for thresholds in case.thresholds_list:
                for preset in PRESET_SEQUENCE:
                    runs.append(mine(case.db, case.table, thresholds,
                                     MiningConfig.from_preset(preset))[1])
    else:
        db, table = workloads.dataset(w)
        found, stats = mine(db, table, workloads.thresholds(w))
        runs.append(stats)
        check = _perfbench("check")
        rows = check.parse_results(dataio.serialize_results(found))
        want = expected[workload]
        assert (len(rows), check.membership_digest(rows)) == (want["count"], want["digest"])
    counted = (sum(s.tids_in for s in runs), sum(s.tids_out for s in runs))
    recorded = expected[workload]["counters"]
    assert counted == (recorded["tids_in"], recorded["tids_out"])


@pytest.fixture(scope="module")
def pinned_instances():
    db, table = generate(GenParams(120, 16, 8, 14, negative_fraction=0.2, seed=7))
    instances = {"generated": (db, table, Thresholds(1e4, 0.001))}
    case = make_fuzz_case(20)
    for i, thresholds in enumerate(case.thresholds_list):
        instances[f"fuzz-20-{i}"] = (case.db, case.table, thresholds)
    return instances


@pytest.mark.parametrize("instance", list(PINNED_COUNTERS))
def test_counters_of_every_preset_are_pinned(pinned_instances, instance):
    db, table, thresholds = pinned_instances[instance]
    counters = {}
    for preset in PRESETS:
        _found, stats = mine(db, table, thresholds, MiningConfig.from_preset(preset))
        counters[preset] = tuple(getattr(stats, name) for name in COUNTER_FIELDS)
    assert counters == PINNED_COUNTERS[instance]


# mine() reports patterns in depth-first discovery order: a node, then
# every pattern in the subtree under it, then its next sibling, siblings
# in processing order. Pruning only drops subtrees that hold no pattern,
# so every preset lists the same item tuples in the same order.
DISCOVERY_ORDER = {
    "example": [(1,), (1, 2), (1, 3), (4,), (4, 5), (2,), (2, 5), (2, 3, 5), (5,), (3, 5)],
    "fuzz-20-0": [(11,), (4,), (1,), (1, 3), (12,), (3, 12), (10,), (8,), (3,), (3, 9),
                  (2, 3), (9,), (2,)],
}


@pytest.mark.parametrize("instance", list(DISCOVERY_ORDER))
def test_results_come_in_depth_first_discovery_order(pinned_instances, ex_db, ex_table,
                                                     instance):
    db, table, thresholds = ((ex_db, ex_table, TH) if instance == "example"
                             else pinned_instances[instance])
    for preset in PRESETS:
        found, _stats = mine(db, table, thresholds, MiningConfig.from_preset(preset))
        assert [m.pattern.items for m in found] == DISCOVERY_ORDER[instance], preset


def test_mine_leaves_no_cyclic_garbage():
    # everything a run allocates is freed by reference counting when the
    # run ends; a reference cycle would keep the lists, the EUCS and the
    # results alive until a later collection
    case = make_fuzz_case(3)
    gc.collect()
    gc.disable()
    try:
        for thresholds in case.thresholds_list:
            for preset in PRESETS:
                mine(case.db, case.table, thresholds, MiningConfig.from_preset(preset))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def wide_2k():
    """The C7 generator at 2k transactions: 100 items, beyond the oracle."""
    return generate(GenParams(n_transactions=2000, n_items=100, avg_tx_len=5.0, max_tx_len=10,
                              negative_fraction=0.2, seed=20_260_810))


def _phases_add_up(runs):
    """Every phase time of every run is >= 0 and their sum at most the
    run's elapsed time; in the closest of the runs they add up to it
    within 1 %. A run on the example takes about 0.2 ms, so one
    preemption between the last two marks could alone take 1 % of it."""
    gaps = []
    for stats in runs:
        phases = [stats.check_s, stats.scan_s, stats.lists_s, stats.search_s]
        assert all(t >= 0.0 for t in phases)
        assert sum(phases) <= stats.elapsed
        gaps.append(1.0 - sum(phases) / stats.elapsed)
    assert min(gaps) < 0.01


@pytest.mark.parametrize("preset", PRESETS)
def test_phase_times_add_up_to_elapsed(ex_db, ex_table, wide_2k, preset):
    """check_s, scan_s, lists_s and search_s split mine()'s elapsed time,
    on the example and on a database whose search dominates."""
    config = MiningConfig.from_preset(preset)
    _phases_add_up([mine(ex_db, ex_table, TH, config)[1] for _ in range(3)])
    _found, stats = mine(*wide_2k, Thresholds(4000, 0.001), config)
    _phases_add_up([stats])
    assert stats.search_s > stats.check_s


def test_phase_times_without_a_surviving_item(ex_db, ex_table):
    runs = [mine(ex_db, ex_table, Thresholds(1e9, 0.25))[1] for _ in range(3)]
    assert runs[0].visited_nodes == 0
    _phases_add_up(runs)


@pytest.mark.parametrize("preset", PRESETS)
def test_doubled_utilities_double_the_results(wide_2k, preset):
    """Every unit utility and min_util doubled: doubling is exact in
    binary floats short of overflow, so each preset returns the same
    patterns in the same order, with utilities exactly doubled, the same
    expected supports and the same counters."""
    db, table = wide_2k
    doubled = UtilityTable({item: 2 * u for item, u in table.entries.items()})
    config = MiningConfig.from_preset(preset)
    found, stats = mine(db, table, Thresholds(4000, 0.001), config)
    again, again_stats = mine(db, doubled, Thresholds(8000, 0.001), config)
    assert found, "the thresholds must leave patterns to compare"
    assert [(m.pattern, (2 * m.utility).hex(), m.expected_support.hex()) for m in found] == [
        (m.pattern, m.utility.hex(), m.expected_support.hex()) for m in again]
    counters = {f: v for f, v in vars(stats).items()
                if f not in MiningStats.TIMES and f != "min_util"}
    assert counters == {f: v for f, v in vars(again_stats).items()
                        if f not in MiningStats.TIMES and f != "min_util"}


@pytest.mark.parametrize("preset", PRESETS)
def test_relabelled_items_give_the_same_results(wide_2k, preset):
    """Every item id i relabelled 2i + 7 in the database and the table:
    the map keeps the order of ids, which breaks rtwu ties in the
    processing order, so each preset returns the same patterns,
    relabelled, in the same order, with the same utilities, expected
    supports and counters."""
    db, table = wide_2k
    items, quantities, probabilities, sizes = db.columns
    relabelled = UncertainDatabase([2 * i + 7 for i in items], quantities, probabilities, sizes)
    relabelled_table = UtilityTable({2 * i + 7: u for i, u in table.entries.items()})
    config = MiningConfig.from_preset(preset)
    found, stats = mine(db, table, Thresholds(4000, 0.001), config)
    again, again_stats = mine(relabelled, relabelled_table, Thresholds(4000, 0.001), config)
    assert found, "the thresholds must leave patterns to compare"
    assert [(tuple(2 * i + 7 for i in m.pattern.items), m.utility.hex(),
             m.expected_support.hex()) for m in found] == [
        (m.pattern.items, m.utility.hex(), m.expected_support.hex()) for m in again]
    counters = {f: v for f, v in vars(stats).items() if f not in MiningStats.TIMES}
    assert counters == {f: v for f, v in vars(again_stats).items()
                        if f not in MiningStats.TIMES}
