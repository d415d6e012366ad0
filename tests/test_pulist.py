import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phuimine.datagen import GenParams, generate, generate_small
from phuimine.miner import initial_scan
from phuimine.model import (
    Pattern,
    Thresholds,
    Transaction,
    TransactionEntry,
    UtilityTable,
    make_database,
)
from phuimine.pulist import (
    ABANDONED,
    NARROW_MIN_LEN,
    NARROW_PROBES,
    build_initial_pulists,
    compute_processing_order,
    construct,
    PUList,
)

import measures
from scan_reference import append_entry, build_pulist_by_scan
from helpers import (
    A, B, C, D, E,
    _unpruned_roots,
    attempted_joins,
    entries_of,
    join_equivalence_walk,
    lists_match,
    rel_close,
)

EXAMPLE_RTWU = {A: 185.0, B: 259.0, C: 202.0, D: 231.0, E: 285.0}


@pytest.fixture(scope="module")
def ex_order(ex_table):
    return compute_processing_order(ex_table, EXAMPLE_RTWU)


@pytest.fixture(scope="module")
def ex_lists(ex_db, ex_table, ex_order):
    return dict(zip(ex_order.ordered_items, build_initial_pulists(ex_db, ex_table, ex_order)))


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
        # T3 and T4 go unmatched; the matched T1 has probability 0.6 < 1.25
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
        db = make_database([
            Transaction(1, (TransactionEntry(1, 1, 0.5),)),
            Transaction(2, (TransactionEntry(2, 1, 0.5),)),
        ])
        table = UtilityTable({1: 3.0, 2: 4.0})
        order = compute_processing_order(
            table, initial_scan(db, table, Thresholds(0.0, 0.0), apply_filter=False))
        first, second = build_initial_pulists(db, table, order)
        joined = construct(first, second)
        assert joined.tids == []
        assert (joined.sum_pro, joined.sum_pu, joined.sum_nu, joined.sum_rpu) == (0.0,) * 4


def _hand_list(pattern_po, rows):
    """A list from (tid, pro, pu, nu, rpu, iu, ip) rows."""
    out = PUList(pattern_po)
    for row in rows:
        append_entry(out, *row)
    return out


# Py = (1, 2) at tids 3, 5, 7: pro 0.5 each, pu + rpu = 10 each.
PY_ROWS = [(3, 0.5, 6.0, 0.0, 4.0, 6.0, 0.5),
           (5, 0.5, 6.0, -1.0, 4.0, 6.0, 0.5),
           (7, 0.5, 6.0, 0.0, 4.0, 6.0, 0.5)]


def _pz(tids):
    """Pz = (1, 3) at the given tids: z carries iu 2 (or -3 at tid 5), ip 0.5."""
    return _hand_list((1, 3), [
        (t, 0.25, 8.0, 0.0, 1.0, -3.0 if t == 5 else 2.0, 0.5) for t in tids
    ])


class CountingSet(set):
    """Py's tid set, recording the length of every intersection asked of
    it: construct probes with NARROW_PROBES tids of Pz and narrows with
    all of them."""

    def __init__(self, tids):
        super().__init__(tids)
        self.asked = []

    def intersection(self, *others):
        self.asked.extend(len(o) for o in others)
        return super().intersection(*others)


def _long_list(pattern_po, tids):
    """A list at the given tids, with values off the binary grid that
    vary by tid; iu is negative at every third tid."""
    out = PUList(pattern_po)
    for t in tids:
        append_entry(out, t, 0.1 + (t % 7) / 10, 1.1 * (t % 5), -0.3 * (t % 3),
                     0.7 * (t % 4), -0.9 if t % 3 == 0 else 1.3 + t % 2,
                     0.15 + (t % 9) / 10)
    return out


def _joins_alike(py, pz, **bounds):
    """construct with Py's set equal, bit for bit, to construct without
    it; returns the CountingSet, so that a caller can see which path
    the join took."""
    py_tids = CountingSet(py.tids)
    with_set = construct(py, pz, py_tids=py_tids, **bounds)
    without = construct(py, pz, **bounds)
    if without is ABANDONED:
        assert with_set is ABANDONED
    else:
        assert with_set is not ABANDONED and lists_match(with_set, without)
    return py_tids


def _narrowed(py_tids, pz):
    return py_tids.asked == [NARROW_PROBES, len(pz.tids)]


class TestMerge:
    @pytest.mark.parametrize("z_tids", [[], [1, 2], [8, 9]],
                             ids=["empty", "all-before", "all-after"])
    def test_disjoint_pz_joins_empty(self, z_tids):
        py = _hand_list((1, 2), PY_ROWS)
        pyz = construct(py, _pz(z_tids))
        assert pyz.pattern_po == (1, 2, 3)
        assert [getattr(pyz, c) for c in ("tids", "pro", "pu", "nu", "rpu", "iu", "ip")] \
            == [[]] * 7
        assert (pyz.sum_pro, pyz.sum_pu, pyz.sum_nu, pyz.sum_rpu) == (0.0,) * 4
        # nothing matched: any positive bound abandons, zero bounds do not
        assert construct(py, _pz(z_tids), pro_bound=1e-9, la_prune=True) is ABANDONED
        assert construct(py, _pz(z_tids), la_prune=True).tids == []

    def test_interleaved_tids(self):
        py = _hand_list((1, 2), PY_ROWS)
        pyz = construct(py, _pz([1, 3, 4, 5, 6, 8]))
        assert entries_of(pyz) == [
            (3, 0.25, 8.0, 0.0, 1.0),
            (5, 0.25, 6.0, -4.0, 1.0),
        ]
        assert (pyz.iu, pyz.ip) == ([2.0, -3.0], [0.5, 0.5])
        assert (pyz.sum_pro, pyz.sum_pu, pyz.sum_nu, pyz.sum_rpu) == (0.5, 14.0, -4.0, 2.0)

    def test_s1_bounds_on_matched_sums(self):
        # tids 3 and 5 match: matched pro 1.0, matched pu + rpu 20.0
        py = _hand_list((1, 2), PY_ROWS)
        pz = _pz([3, 4, 5])
        built = construct(py, pz, min_util=20.0, pro_bound=1.0, la_prune=True)
        assert lists_match(built, construct(py, pz))
        for bounds in ({"min_util": 20.5, "pro_bound": 1.0},
                       {"min_util": 20.0, "pro_bound": 1.25}):
            assert construct(py, pz, la_prune=True, **bounds) is ABANDONED
            assert construct(py, pz, **bounds).tids == [3, 5]

    def test_fully_matched_py_is_never_abandoned(self):
        # every Py tid matches, and both matched sums (1.5 and 30) lie
        # below their bounds; s1 only drops joins that lose Py entries
        py = _hand_list((1, 2), PY_ROWS)
        pz = _pz([2, 3, 5, 7, 9])
        pyz = construct(py, pz, min_util=1e6, pro_bound=100.0, la_prune=True)
        assert pyz is not ABANDONED
        assert lists_match(pyz, construct(py, pz))
        assert pyz.tids == [3, 5, 7]

    def test_disjoint_long_lists(self):
        py = _long_list((1, 2), range(0, 4 * NARROW_MIN_LEN, 2))
        pz = _long_list((1, 3), range(1, 4 * NARROW_MIN_LEN, 2))
        assert _narrowed(_joins_alike(py, pz), pz)
        pyz = construct(py, pz, py_tids=set(py.tids))
        assert pyz.tids == [] and (pyz.sum_pro, pyz.sum_pu) == (0.0, 0.0)
        # nothing matched: any positive bound abandons, zero bounds do not
        assert construct(py, pz, py_tids=set(py.tids), pro_bound=1e-9,
                         la_prune=True) is ABANDONED
        assert _narrowed(_joins_alike(py, pz, la_prune=True), pz)

    def test_py_inside_pz_is_never_abandoned(self):
        # every Py tid is in Pz, which is 20 times longer: the probe
        # judges the join sparse, and the fully matched Py stays
        py = _long_list((1, 2), range(7, 20 * NARROW_MIN_LEN, 20))
        pz = _long_list((1, 3), range(20 * NARROW_MIN_LEN))
        bounds = {"min_util": 1e9, "pro_bound": 1e9, "la_prune": True}
        assert _narrowed(_joins_alike(py, pz, **bounds), pz)
        pyz = construct(py, pz, py_tids=set(py.tids), **bounds)
        assert pyz is not ABANDONED and pyz.tids == py.tids

    def test_pz_ends_before_py(self):
        py = _long_list((1, 2), range(0, 4 * NARROW_MIN_LEN, 2))
        pz = _long_list((1, 3), [10, 100] + list(range(101, 2 * NARROW_MIN_LEN + 101, 2)))
        assert pz.tids[-1] < py.tids[-1]
        assert _narrowed(_joins_alike(py, pz), pz)
        assert construct(py, pz, py_tids=set(py.tids)).tids == [10, 100]

    @pytest.mark.parametrize("length", [NARROW_MIN_LEN - 1, NARROW_MIN_LEN])
    def test_length_threshold(self, length):
        # Py of `length` tids, Pz of NARROW_MIN_LEN tids, sharing one tid
        shorter = _long_list((1, 2), range(0, 2 * length, 2))
        longer = _long_list((1, 3), [0] + list(range(1, 2 * NARROW_MIN_LEN - 1, 2)))
        for py, pz in ((shorter, longer), (longer, shorter)):
            py_tids = _joins_alike(py, pz)
            assert _narrowed(py_tids, pz) == (length >= NARROW_MIN_LEN)
            assert py_tids.asked in ([], [NARROW_PROBES, len(pz.tids)])
            assert construct(py, pz, py_tids=set(py.tids)).tids == [0]

    def test_probe_decides_the_path_not_the_result(self):
        # Pz of 16 * 16 tids, sampled at every 16th position. Against
        # the first Py only the sampled tids are shared: the probe finds
        # all 16 and the join merges. Against the second only the
        # others are: the probe finds none and the join narrows, to 240
        # shared tids. Both equal the merge.
        n = NARROW_PROBES * 16
        pz = _long_list((1, 3), range(0, 2 * n, 2))
        sampled = set(pz.tids[::16])
        py_sampled = _long_list((1, 2), sorted(sampled | set(range(1, 2 * n, 2))))
        py_others = _long_list((1, 2), sorted(set(pz.tids) - sampled))
        assert _joins_alike(py_sampled, pz).asked == [NARROW_PROBES]
        assert _narrowed(_joins_alike(py_others, pz), pz)
        assert construct(py_others, pz, py_tids=set(py_others.tids)).tids == py_others.tids

    def test_s1_counts_py_entries_outside_the_narrowed_columns(self):
        # Py shares tids 10 and 100 with Pz; its other entries lie
        # outside the narrowed columns, so Py went partly unmatched, and
        # a bound just above a matched sum abandons the join
        py = _long_list((1, 2), range(0, 4 * NARROW_MIN_LEN, 2))
        pz = _long_list((1, 3), [10, 100] + list(range(101, 4 * NARROW_MIN_LEN, 2)))
        m_pro = 0.0 + py.pro[5] + py.pro[50]
        m_util = 0.0 + (py.pu[5] + py.rpu[5]) + (py.pu[50] + py.rpu[50])
        for bounds in ({"pro_bound": math.nextafter(m_pro, math.inf)},
                       {"min_util": math.nextafter(m_util, math.inf)}):
            py_tids = CountingSet(py.tids)
            assert construct(py, pz, py_tids=py_tids, la_prune=True, **bounds) is ABANDONED
            assert _narrowed(py_tids, pz)
        kept = construct(py, pz, py_tids=set(py.tids), min_util=m_util, pro_bound=m_pro,
                         la_prune=True)
        assert kept.tids == [10, 100]


def _s1_reference(py, pz, min_util, pro_bound):
    """Reference s1 rule, as (fires, m_pro, m_util): it fires when some
    Py tid has no partner in Pz and Py's probability or pu + rpu,
    summed in tid order over the matched entries, is below its bound."""
    z_tids = set(pz.tids)
    m_pro = m_util = 0.0
    unmatched = False
    for tid, pro, pu, rpu in zip(py.tids, py.pro, py.pu, py.rpu):
        if tid in z_tids:
            m_pro += pro
            m_util += pu + rpu
        else:
            unmatched = True
    return unmatched and (m_pro < pro_bound or m_util < min_util), m_pro, m_util


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       util_frac=st.floats(0.0, 0.5),
       pro_frac=st.floats(0.0, 0.5))
def test_s1_abandons_iff_matched_sums_fall_below_a_bound(seed, util_frac, pro_frac):
    """Over every join of the full enumeration, at drawn thresholds and
    at thresholds exactly on and just above the matched sums: s1
    abandons iff the reference rule fires, and a join it keeps equals
    the join without s1 bit for bit."""
    dyadic = generate_small(seed, negative_fraction=0.5, max_items=7,
                            max_transactions=10)
    non_dyadic = generate(GenParams(n_transactions=20, n_items=7, avg_tx_len=4,
                                    max_tx_len=6, seed=seed))
    for db, table in (dyadic, non_dyadic):
        total_rtu = sum(
            max(table.entries[e.item] * e.quantity, 0.0)
            for tx in db.transactions for e in tx.entries
        )
        drawn = (util_frac * total_rtu, pro_frac * db.size)
        for py, pz, pyz in attempted_joins(db, table):
            _fires, m_pro, m_util = _s1_reference(py, pz, 0.0, 0.0)
            for min_util, pro_bound in (
                drawn,
                (m_util, m_pro),
                (math.nextafter(m_util, math.inf), m_pro),
                (m_util, math.nextafter(m_pro, math.inf)),
            ):
                got = construct(py, pz, min_util=min_util, pro_bound=pro_bound,
                                la_prune=True)
                fires, _, _ = _s1_reference(py, pz, min_util, pro_bound)
                assert (got is ABANDONED) == fires
                if got is not ABANDONED:
                    assert lists_match(got, pyz)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10_000), util_frac=st.floats(0.0, 0.1),
       pro_frac=st.floats(0.0, 0.1))
def test_narrowed_joins_equal_the_scan_and_the_merge(seed, util_frac, pro_frac):
    """Long, sparse lists: 3,000 transactions over 40 items, where every
    single-item list holds a few hundred tids and most pairs share about
    a tenth of them. Every join of two roots, built with Py's tid set,
    equals the join without it bit for bit, and each one the probe
    narrows equals the scan. With s1 on, at drawn thresholds and at
    thresholds on and just above the matched sums, both abandon alike."""
    db, table = generate(GenParams(n_transactions=3000, n_items=40, avg_tx_len=4,
                                   max_tx_len=8, seed=seed))
    order, roots = _unpruned_roots(db, table)
    total_rtu = sum(measures.redefined_transaction_utility(tx, table)
                    for tx in db.transactions)
    drawn = (util_frac * total_rtu, pro_frac * db.size)
    narrowed = 0
    for i, py in enumerate(roots):
        for pz in roots[i + 1:]:
            py_tids = _joins_alike(py, pz)
            if _narrowed(py_tids, pz):
                narrowed += 1
                scan = build_pulist_by_scan(db, table, order, py.pattern_po + pz.pattern_po[-1:])
                assert lists_match(construct(py, pz, py_tids=set(py.tids)), scan)
            _fires, m_pro, m_util = _s1_reference(py, pz, 0.0, 0.0)
            for min_util, pro_bound in (
                drawn,
                (m_util, m_pro),
                (math.nextafter(m_util, math.inf), m_pro),
                (m_util, math.nextafter(m_pro, math.inf)),
            ):
                _joins_alike(py, pz, min_util=min_util, pro_bound=pro_bound,
                             la_prune=True)
    assert narrowed >= len(roots) * (len(roots) - 1) // 4


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_initial_sums_add_columns_front_to_back(seed):
    """Each initial list's sums equal, bit for bit, its columns added
    one at a time in tid order from 0.0 (not builtin sum(), which is
    compensated from Python 3.12 on)."""
    dyadic = generate_small(seed, negative_fraction=0.5, max_items=8,
                            max_transactions=12)
    non_dyadic = generate(GenParams(n_transactions=30, n_items=8, avg_tx_len=4,
                                    max_tx_len=7, seed=seed))
    for db, table in (dyadic, non_dyadic):
        order = compute_processing_order(
            table, initial_scan(db, table, Thresholds(0.0, 0.0), apply_filter=False))
        for lst in build_initial_pulists(db, table, order):
            for column, total in ((lst.pro, lst.sum_pro), (lst.pu, lst.sum_pu),
                                  (lst.nu, lst.sum_nu), (lst.rpu, lst.sum_rpu)):
                expected = 0.0
                for x in column:
                    expected += x
                assert total.hex() == expected.hex()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), apply_filter=st.booleans(),
       util_frac=st.floats(0.0, 0.5), min_pro=st.floats(0.0, 0.5))
def test_initial_lists_are_the_roots(seed, apply_filter, util_frac, min_pro):
    """One non-empty list per item that initial_scan keeps, with the s2
    filter on or off, in processing order; each list's sum_pro is its
    item's expected support, bit for bit."""
    dyadic = generate_small(seed, negative_fraction=0.5, max_items=8,
                            max_transactions=12)
    non_dyadic = generate(GenParams(n_transactions=30, n_items=8, avg_tx_len=4,
                                    max_tx_len=7, seed=seed))
    for db, table in (dyadic, non_dyadic):
        total_rtu = sum(measures.redefined_transaction_utility(tx, table)
                        for tx in db.transactions)
        thresholds = Thresholds(util_frac * total_rtu, min_pro)
        order = compute_processing_order(
            table, initial_scan(db, table, thresholds, apply_filter=apply_filter))
        roots = build_initial_pulists(db, table, order)
        assert tuple(lst.pattern_po for lst in roots) == tuple(
            (item,) for item in order.ordered_items)
        for lst in roots:
            assert lst.tids
            expected = measures.expected_support(Pattern.of(lst.pattern_po), db)
            assert lst.sum_pro.hex() == expected.hex()


class TestJoinScanEquivalence:
    def test_example_walk(self, ex_db, ex_table):
        assert join_equivalence_walk(ex_db, ex_table) == []

    def test_decimal_utilities(self):
        # rpu of 2-decimal utilities rounds differently when the scan
        # adds them front to back instead of in the suffix scan's order
        db = make_database([
            Transaction(1, tuple(TransactionEntry(i, 1, 0.5) for i in range(1, 6))),
        ])
        table = UtilityTable({1: 2.38, 2: 5.44, 3: 3.7, 4: 6.04, 5: 6.25})
        assert join_equivalence_walk(db, table) == []

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
    order = compute_processing_order(
        table, initial_scan(db, table, Thresholds(0.0, 0.0), apply_filter=False))
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
