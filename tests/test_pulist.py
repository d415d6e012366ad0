import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phuimine import measures
from phuimine.datagen import GenParams, generate, generate_small
from phuimine.miner import initial_scan
from phuimine.model import Pattern, Thresholds, UtilityTable
from phuimine.pulist import (
    build_initial_pulists,
    build_pulist_by_scan,
    compute_processing_order,
    construct,
    PUList,
)

from helpers import (
    A, B, C, D, E,
    entries_of,
    join_equivalence_walk,
    rel_close,
)

EXAMPLE_RTWU = {A: 185.0, B: 259.0, C: 202.0, D: 231.0, E: 285.0}


@pytest.fixture(scope="module")
def ex_order(ex_table):
    return compute_processing_order(ex_table, EXAMPLE_RTWU)


@pytest.fixture(scope="module")
def ex_lists(ex_db, ex_table, ex_order):
    return build_initial_pulists(ex_db, ex_table, ex_order)


class TestProcessingOrder:
    def test_example_order(self, ex_order):
        # positives ascending rtwu (a d b e), then the negative item c
        assert ex_order.ordered_items == (A, D, B, E, C)

    def test_all_positive_plain_ascending(self):
        table = UtilityTable({1: 2.0, 2: 3.0, 3: 1.0})
        order = compute_processing_order(table, {1: 50.0, 2: 10.0, 3: 30.0})
        assert order.ordered_items == (2, 3, 1)

    def test_tie_breaks_by_id(self):
        table = UtilityTable({4: 2.0, 2: 3.0})
        order = compute_processing_order(table, {4: 10.0, 2: 10.0})
        assert order.ordered_items == (2, 4)

    def test_zero_utility_counts_as_positive_group(self):
        # a zero-utility item sorts with the positives even when a
        # negative item has lower rtwu
        table = UtilityTable({1: 0.0, 2: -3.0})
        order = compute_processing_order(table, {1: 10.0, 2: 5.0})
        assert order.ordered_items == (1, 2)

    def test_rank_matches_sequence(self, ex_order):
        for idx, item in enumerate(ex_order.ordered_items):
            assert ex_order.rank[item] == idx


class TestInitialLists:
    def test_c_list(self, ex_lists):
        assert entries_of(ex_lists[C]) == [
            (2, 0.75, 0.0, -2.0, 0.0),
            (3, 0.70, 0.0, -4.0, 0.0),
            (4, 0.90, 0.0, -2.0, 0.0),
            (5, 0.95, 0.0, -8.0, 0.0),
        ]

    def test_a_list(self, ex_lists):
        # single positive item: nu stays 0; rpu counts only positive
        # items after a in the reordered transaction
        assert entries_of(ex_lists[A]) == [
            (1, 0.60, 40.0, 0.0, 67.0),
            (3, 1.00, 32.0, 0.0, 22.0),
            (4, 0.90, 24.0, 0.0, 0.0),
        ]

    def test_item_columns_are_the_pattern_columns(self, ex_lists):
        # a single item is its own last item: ip is pro, iu the signed utility
        assert ex_lists[A].ip is ex_lists[A].pro and ex_lists[A].iu is ex_lists[A].pu
        assert ex_lists[C].ip is ex_lists[C].pro and ex_lists[C].iu is ex_lists[C].nu

    def test_sums(self, ex_lists):
        a, c = ex_lists[A], ex_lists[C]
        assert (a.sum_pro, a.sum_pu, a.sum_nu, a.sum_rpu) == (2.5, 96.0, 0.0, 89.0)
        assert rel_close(c.sum_pro, 3.3)
        assert (c.sum_pu, c.sum_nu, c.sum_rpu) == (0.0, -16.0, 0.0)

    def test_empty_list_sums(self):
        empty = PUList((9,))
        assert (empty.sum_pro, empty.sum_pu, empty.sum_nu, empty.sum_rpu) == (0.0,) * 4


class TestConstruct:
    def test_two_item_join_ac(self, ex_lists):
        ac = construct(ex_lists[A], ex_lists[C])
        got = entries_of(ac)
        assert [e[0] for e in got] == [3, 4]
        assert got[0][2:] == (32.0, -4.0, 0.0)
        assert got[1][2:] == (24.0, -2.0, 0.0)
        assert rel_close(got[0][1], 0.70)
        assert rel_close(got[1][1], 0.81)
        # the last item's own columns come from c's list
        assert (ac.iu, ac.ip) == ([-4.0, -2.0], [0.70, 0.90])

    def test_three_item_join_dbe(self, ex_lists):
        db_list = construct(ex_lists[D], ex_lists[B])
        de_list = construct(ex_lists[D], ex_lists[E])
        dbe = construct(db_list, de_list)
        got = entries_of(dbe)
        assert [e[0] for e in got] == [1, 5]
        assert got[0][2:] == (67.0, 0.0, 0.0)
        assert got[1][2:] == (98.0, 0.0, 0.0)
        assert rel_close(got[0][1], 0.36)
        assert rel_close(got[1][1], 0.60)

    def test_la_prune_abandons_ad(self, ex_lists):
        # unmatched T3 and T4 drain the probability budget below 1.25
        result = construct(
            ex_lists[A], ex_lists[D],
            min_util=20.0, pro_bound=0.25 * 5, la_prune=True,
        )
        assert result is None

    def test_la_prune_off_builds_ad(self, ex_lists):
        ad = construct(ex_lists[A], ex_lists[D])
        assert ad.tids == [1]

    def test_disjoint_join_is_empty(self, ex_lists):
        # b and e share transactions with everything; build a pair that
        # does not: a appears in T1,T3,T4 and {d}-only rows are T2,T5
        a_then_d = construct(ex_lists[A], ex_lists[D])
        assert len(a_then_d) == 1

    def test_never_cooccurring_items_join_empty(self):
        from phuimine.model import Transaction, TransactionEntry, make_database

        db = make_database([
            Transaction(1, (TransactionEntry(1, 1, 0.5),)),
            Transaction(2, (TransactionEntry(2, 1, 0.5),)),
        ])
        table = UtilityTable({1: 3.0, 2: 4.0})
        survivors, _ = initial_scan(db, table, Thresholds(0.0, 0.0), apply_filter=False)
        order = compute_processing_order(table, {i: v[0] for i, v in survivors.items()})
        lists = build_initial_pulists(db, table, order)
        joined = construct(lists[order.ordered_items[0]], lists[order.ordered_items[1]])
        assert joined.tids == []
        assert (joined.sum_pro, joined.sum_pu, joined.sum_nu, joined.sum_rpu) == (0.0,) * 4


class TestJoinScanEquivalence:
    def test_example_walk(self, ex_db, ex_table):
        assert join_equivalence_walk(ex_db, ex_table) == []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fuzz_walk(self, seed):
        dyadic = generate_small(seed, negative_fraction=0.5, max_items=8,
                                max_transactions=12)
        # probabilities and utilities off the binary grid: only a join
        # that multiplies and adds in processing order matches the scan
        non_dyadic = generate(GenParams(n_transactions=30, n_items=8, avg_tx_len=4,
                                        max_tx_len=7, seed=seed))
        for db, table in (dyadic, non_dyadic):
            assert join_equivalence_walk(db, table) == []


def _all_reachable_lists(db, table):
    """Every non-empty list in the enumeration, by scan construction."""
    survivors, _ = initial_scan(db, table, Thresholds(0.0, 0.0), apply_filter=False)
    order = compute_processing_order(table, {i: rw for i, (rw, _) in survivors.items()})
    from phuimine.oracle import enumerate_supported

    out = []
    for items in enumerate_supported(db, table):
        out.append(build_pulist_by_scan(db, table, order, list(items)))
    return out, order


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_remaining_utility_and_probability_bounds(seed):
    """A node's pu+rpu bounds the utility of every order-respecting
    superset; its summed probability bounds theirs too."""
    db, table = generate_small(seed, negative_fraction=0.5, max_items=7,
                               max_transactions=10)
    lists, order = _all_reachable_lists(db, table)
    by_members = {frozenset(l.pattern_po): l for l in lists}
    for l in lists:
        members = frozenset(l.pattern_po)
        last_rank = order.rank[l.pattern_po[-1]]
        for other in lists:
            o_members = frozenset(other.pattern_po)
            if not o_members > members:
                continue
            extra = o_members - members
            if all(order.rank[i] > last_rank for i in extra):
                # exact comparisons: generated instances keep all
                # probability/utility arithmetic exact in binary floats
                u_super = measures.pattern_utility(Pattern.of(o_members), db, table)
                pro_super = measures.expected_support(Pattern.of(o_members), db)
                assert l.sum_pu + l.sum_rpu >= u_super
                assert l.sum_pro >= pro_super


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_entry_field_signs(seed):
    db, table = generate_small(seed, negative_fraction=0.5, max_items=8,
                               max_transactions=12)
    lists, _order = _all_reachable_lists(db, table)
    for l in lists:
        for pro, pu, nu, rpu, ip in zip(l.pro, l.pu, l.nu, l.rpu, l.ip):
            assert pu >= 0.0 and nu <= 0.0 and rpu >= 0.0
            assert 0.0 < pro <= ip <= 1.0


def test_sum_iu_matches_reference_measures(ex_db, ex_table, ex_lists, ex_order):
    for items in [(A,), (C,), (A, C), (B, C, E), (D, E)]:
        scan = build_pulist_by_scan(ex_db, ex_table, ex_order, list(items))
        pattern = Pattern.of(items)
        utility = scan.sum_pu + scan.sum_nu
        assert rel_close(utility, measures.pattern_utility(pattern, ex_db, ex_table))
        assert rel_close(scan.sum_pro, measures.expected_support(pattern, ex_db))
