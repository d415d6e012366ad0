import math
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phuimine import miner
from phuimine.datagen import GenParams, generate, generate_small
from phuimine.miner import MiningConfig, initial_scan, mine
from phuimine.model import (
    Pattern,
    Thresholds,
    Transaction,
    UncertainDatabase,
    UtilityTable,
    make_database,
)
from phuimine.pulist import (
    ABANDONED,
    NARROW_MIN_LEN,
    NARROW_PROBES,
    WALK_ROW_COST,
    build_initial_pulists,
    compute_processing_order,
    construct,
    find_shared,
    gather_rpu,
    PUList,
    walk_children,
    walk_pays,
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
    roots = build_initial_pulists(ex_db, ex_db.utilities(ex_table), ex_order)
    return dict(zip(ex_order.ordered_items, roots))


class TestProcessingOrder:
    def test_example_order(self, ex_order):
        # positives ascending rtwu (a d b e), then the negative item c
        assert ex_order.ordered_items == (A, D, B, E, C)
        assert ex_order.positives == 4

    def test_all_positive_plain_ascending(self):
        table = UtilityTable({1: 2.0, 2: 3.0, 3: 1.0})
        order = compute_processing_order(table, {1: 50.0, 2: 10.0, 3: 30.0})
        assert order.ordered_items == (2, 3, 1)
        assert order.positives == 3

    def test_tie_breaks_by_id(self):
        # in either group: all positive, then all negative
        for sign, positives in ((1.0, 2), (-1.0, 0)):
            table = UtilityTable({4: 2.0 * sign, 2: 3.0 * sign})
            order = compute_processing_order(table, {4: 10.0, 2: 10.0})
            assert order.ordered_items == (2, 4)
            assert order.positives == positives

    def test_zero_utility_counts_as_positive_group(self):
        # a zero-utility item, of either sign, sorts with the positives
        # even when a negative item has lower rtwu
        for unit in (0.0, -0.0):
            table = UtilityTable({1: unit, 2: -3.0})
            order = compute_processing_order(table, {1: 10.0, 2: 5.0})
            assert order.ordered_items == (1, 2)
            assert order.positives == 1

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

    @pytest.mark.parametrize("unit", [0.0, -0.0])
    def test_a_zero_unit_is_in_the_positive_group(self, unit):
        # a unit of 0.0 or -0.0 sorts with the positives: its utilities,
        # the zero's sign kept, are its pu column and iu, and nu is 0.0;
        # the negative item's are its nu column and iu, and pu is 0.0
        db = make_database([Transaction(1, ((1, 2, 0.5), (2, 1, 0.25))),
                            Transaction(2, ((1, 3, 1.0),))])
        table = UtilityTable({1: unit, 2: -3.0})
        order = compute_processing_order(
            table, initial_scan(db, db.utilities(table), Thresholds(0.0, 0.0), apply_filter=False))
        zero, negative = build_initial_pulists(db, db.utilities(table), order)
        assert (zero.pattern_po, negative.pattern_po) == ((1,), (2,))
        assert [x.hex() for x in zero.pu] == [(unit * 2).hex(), (unit * 3).hex()]
        assert [x.hex() for x in zero.nu] == [(0.0).hex()] * 2
        assert zero.iu is zero.pu and zero.ip is zero.pro
        assert [x.hex() for x in negative.pu] == [(0.0).hex()]
        assert negative.nu == [-3.0] and negative.iu is negative.nu
        assert [x.hex() for x in (zero.sum_pu, zero.sum_nu, negative.sum_pu)] == \
            [(0.0).hex()] * 3
        for lst in (zero, negative):
            assert lists_match(lst, build_pulist_by_scan(db, table, order, lst.pattern_po))

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
            Transaction(1, ((1, 1, 0.5),)),
            Transaction(2, ((2, 1, 0.5),)),
        ])
        table = UtilityTable({1: 3.0, 2: 4.0})
        order = compute_processing_order(
            table, initial_scan(db, db.utilities(table), Thresholds(0.0, 0.0), apply_filter=False))
        first, second = build_initial_pulists(db, db.utilities(table), order)
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


def _long_list(pattern_po, tids):
    """A list at the given tids, with values off the binary grid that
    vary by tid; iu is negative at every third tid."""
    out = PUList(pattern_po)
    for t in tids:
        append_entry(out, t, 0.1 + (t % 7) / 10, 1.1 * (t % 5), -0.3 * (t % 3),
                     0.7 * (t % 4), -0.9 if t % 3 == 0 else 1.3 + t % 2,
                     0.15 + (t % 9) / 10)
    return out


def _rows(*lists):
    """A database under hand-made lists of one prefix, and its utility
    column, as (db, utilities): transaction t, from 1 to the largest
    tid, holds a row of the last item of every list that holds t, with
    that list's iu and ip at t, so that each list's tids are the
    transactions of its last item and its item columns are that item's
    rows. A tid that no list holds is a transaction of no row, which
    only the unchecked constructor takes; every quantity is 1."""
    rows = [[] for _ in range(max((t for lst in lists for t in lst.tids), default=0))]
    for lst in lists:
        for t, u, p in zip(lst.tids, lst.iu, lst.ip):
            rows[t - 1].append((lst.pattern_po[-1], u, p))
    items, utilities, probabilities = zip(*chain.from_iterable(map(sorted, rows)))
    db = UncertainDatabase._of_checked(items, [1] * len(items), probabilities,
                                       map(len, rows))
    return db, list(utilities)


def _cut(py, pz):
    """find_shared's entry for Pz as Py's only later sibling: None
    unless Pz is a sparse partner."""
    return find_shared(py, [pz]).get(pz.pattern_po[-1])


def _walked(py, pz, rows, **bounds):
    """construct given the child that the walk over Py's transactions in
    rows, a (db, utilities) pair, builds for Pz, with its rpu gathered
    unless it is abandoned."""
    child = walk_children(py, [pz], *rows)[pz.pattern_po[-1]]
    pyz = construct(py, pz, shared=child, **bounds)
    if pyz is not ABANDONED:
        # None until the gather, so that a child that missed it raises
        # at s4 rather than read a bound of 0.0
        assert pyz.rpu is None and pyz.sum_rpu is None
        gather_rpu([pyz], [pz])
        assert len(pyz.rpu) == len(pyz.tids) and isinstance(pyz.sum_rpu, float)
    return pyz


def _joins_alike(py, pz, cut=None, rows=None, **bounds):
    """construct given Pz's cut (by default _cut's), and given the child
    that the walk over rows, a (db, utilities) pair (by default _rows's),
    builds, each equal, bit for bit, to construct without either;
    returns the cut, None for a join that merges its full columns."""
    if cut is None:
        cut = _cut(py, pz)
    plain = construct(py, pz, **bounds)
    walked = _walked(py, pz, rows or _rows(py, pz), **bounds)
    for other in (construct(py, pz, shared=cut, **bounds), walked):
        if plain is ABANDONED:
            assert other is ABANDONED
        else:
            assert other is not ABANDONED and _bits(other) == _bits(plain)
    return cut


def _bits(lst):
    """A list's pattern, tids, columns and sums, every float by float.hex."""
    return (lst.pattern_po, lst.tids,
            [[x.hex() for x in getattr(lst, c)] for c in ("pro", "pu", "nu", "rpu", "iu", "ip")],
            [x.hex() for x in (lst.sum_pro, lst.sum_pu, lst.sum_nu, lst.sum_rpu)])


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
        py = _long_list((1, 2), range(1, 4 * NARROW_MIN_LEN + 1, 2))
        pz = _long_list((1, 3), range(2, 4 * NARROW_MIN_LEN + 1, 2))
        cut = _joins_alike(py, pz)
        assert cut == ([], [])
        pyz = construct(py, pz, shared=cut)
        assert pyz.tids == [] and (pyz.sum_pro, pyz.sum_pu) == (0.0, 0.0)
        # nothing matched: any positive bound abandons, zero bounds do not
        assert construct(py, pz, shared=cut, pro_bound=1e-9, la_prune=True) is ABANDONED
        assert _joins_alike(py, pz, la_prune=True) is not None

    def test_py_inside_pz_is_never_abandoned(self):
        # every Py tid is in Pz, which is 20 times longer: the probe
        # judges the join sparse, and the fully matched Py stays
        py = _long_list((1, 2), range(8, 20 * NARROW_MIN_LEN + 1, 20))
        pz = _long_list((1, 3), range(1, 20 * NARROW_MIN_LEN + 1))
        bounds = {"min_util": 1e9, "pro_bound": 1e9, "la_prune": True}
        cut = _joins_alike(py, pz, **bounds)
        assert cut is not None
        pyz = construct(py, pz, shared=cut, **bounds)
        assert pyz is not ABANDONED and pyz.tids == py.tids

    def test_pz_ends_before_py(self):
        py = _long_list((1, 2), range(1, 4 * NARROW_MIN_LEN + 1, 2))
        pz = _long_list((1, 3), [11, 101] + list(range(102, 2 * NARROW_MIN_LEN + 102, 2)))
        assert pz.tids[-1] < py.tids[-1]
        cut = _joins_alike(py, pz)
        assert cut is not None
        assert construct(py, pz, shared=cut).tids == [11, 101]

    @pytest.mark.parametrize("length", [NARROW_MIN_LEN - 1, NARROW_MIN_LEN])
    def test_length_threshold(self, monkeypatch, length):
        # Py of `length` tids, Pz of NARROW_MIN_LEN tids, sharing one
        # tid, as the roots of a search in either order: search tells a
        # long Py from a short one, and find_shared probes only long
        # partners, so a join is given shared tids iff both lists hold
        # NARROW_MIN_LEN tids or more; each equals the merge
        shorter = _long_list((1, 2), range(1, 2 * length + 1, 2))
        longer = _long_list((1, 3), [1] + list(range(2, 2 * NARROW_MIN_LEN, 2)))
        assert len(longer) == NARROW_MIN_LEN
        db, utilities = _rows(shorter, longer)
        joins = []

        def recording(py, pz, **kwargs):
            joins.append((py, pz, kwargs))
            return construct(py, pz, **kwargs)
        monkeypatch.setattr(miner, "construct", recording)
        for roots in ([shorter, longer], [longer, shorter]):
            miner.search(db, utilities, roots, Thresholds(0.0, 0.0),
                         MiningConfig.from_preset("NONE"), None, miner.MiningStats(), [])
        monkeypatch.undo()
        assert [(py, pz) for py, pz, _kwargs in joins] == [(shorter, longer), (longer, shorter)]
        for py, pz, kwargs in joins:
            assert (kwargs["shared"] is not None) == (length >= NARROW_MIN_LEN)
            _joins_alike(py, pz, kwargs["shared"])
            assert construct(py, pz, **kwargs).tids == [1]

    def test_probe_decides_the_path_not_the_result(self):
        # Pz of 16 * 16 tids, sampled at every 16th position. Against
        # the first Py only the sampled tids are shared: the probe finds
        # all 16 and the join merges. Against the second only the
        # others are: the probe finds none and the join narrows, to 240
        # shared tids. Both equal the merge.
        n = NARROW_PROBES * 16
        pz = _long_list((1, 3), range(1, 2 * n + 1, 2))
        sampled = set(pz.tids[::16])
        py_sampled = _long_list((1, 2), sorted(sampled | set(range(2, 2 * n + 1, 2))))
        py_others = _long_list((1, 2), sorted(set(pz.tids) - sampled))
        assert _joins_alike(py_sampled, pz) is None
        cut = _joins_alike(py_others, pz)
        assert cut is not None
        assert construct(py_others, pz, shared=cut).tids == py_others.tids

    def test_s1_counts_py_entries_outside_the_narrowed_columns(self):
        # Py shares tids 11 and 101 with Pz; its other entries lie
        # outside the narrowed columns, so Py went partly unmatched, and
        # a bound just above a matched sum abandons the join
        py = _long_list((1, 2), range(1, 4 * NARROW_MIN_LEN + 1, 2))
        pz = _long_list((1, 3), [11, 101] + list(range(102, 4 * NARROW_MIN_LEN + 1, 2)))
        cut = _cut(py, pz)
        assert cut is not None
        m_pro = 0.0 + py.pro[5] + py.pro[50]
        m_util = 0.0 + (py.pu[5] + py.rpu[5]) + (py.pu[50] + py.rpu[50])
        for bounds in ({"pro_bound": math.nextafter(m_pro, math.inf)},
                       {"min_util": math.nextafter(m_util, math.inf)}):
            assert construct(py, pz, shared=cut, la_prune=True, **bounds) is ABANDONED
        kept = construct(py, pz, shared=cut, min_util=m_util, pro_bound=m_pro, la_prune=True)
        assert kept.tids == [11, 101]

    def test_narrowed_join_reads_py_only_at_the_shared_positions(self):
        # Pz shares every 16th tid of Py, all at even positions; a NaN in
        # Py's pro, pu, nu and rpu at every odd position is never read,
        # so the narrowed join equals the plain merge of the clean Py
        clean = _long_list((1, 2), range(1, 4 * NARROW_MIN_LEN + 1, 2))
        beyond = 4 * NARROW_MIN_LEN + 2
        pz = _long_list((1, 3), clean.tids[::16] + list(range(beyond, beyond + 2 * 256, 2)))
        cut = _cut(clean, pz)
        assert cut is not None and cut[1] == list(range(0, len(clean), 16))
        py = _long_list((1, 2), clean.tids)
        for column in (py.pro, py.pu, py.nu, py.rpu):
            column[1::2] = [math.nan] * (len(column) // 2)
        m_pro = m_util = 0.0
        for i in cut[1]:
            m_pro += clean.pro[i]
            m_util += clean.pu[i] + clean.rpu[i]
        for bounds in ({}, {"la_prune": True},
                       {"min_util": m_util, "pro_bound": m_pro, "la_prune": True}):
            narrowed = construct(py, pz, shared=cut, **bounds)
            assert _bits(narrowed) == _bits(construct(clean, pz, **bounds))
            assert narrowed.tids == cut[0]
        above = {"pro_bound": math.nextafter(m_pro, math.inf), "la_prune": True}
        assert construct(py, pz, shared=cut, **above) is ABANDONED
        assert construct(clean, pz, **above) is ABANDONED


class TestFindShared:
    def test_no_sparse_partner_walks_nothing(self):
        # a long Py whose later siblings are a dense long list (the
        # probe finds it in Py) and a short sparse one: no sparse
        # partner, so find_shared narrows no join, and the partners hold
        # fewer tids than WALK_ROW_COST times Py's rows, so Py does not
        # walk; both joins merge their full columns
        py = _long_list((1, 2), range(1, 4 * NARROW_MIN_LEN + 1))
        dense = _long_list((1, 3), range(1, 4 * NARROW_MIN_LEN + 1, 2))
        short = _long_list((1, 4), range(4 * NARROW_MIN_LEN + 1,
                                         4 * NARROW_MIN_LEN + NARROW_MIN_LEN))
        assert find_shared(py, [dense, short]) == {}
        assert not walk_pays(py, [dense, short], _rows(py, dense, short)[0])
        for pz in (dense, short):
            assert _joins_alike(py, pz) is None

    @pytest.mark.parametrize("extra", [0, 1])
    def test_rows_against_partner_tids(self, extra):
        # Py's transactions hold one row of y each and one of z in each
        # of the 2 shared tids, which are not probed: every probed tid
        # holds one row, so Py's rows are estimated at len(Py). A partner
        # of exactly WALK_ROW_COST times that many tids is not walked; of
        # one tid more, it is. The walk and find_shared find the same
        # shared tids at the same positions of Py
        py = _long_list((1, 2), range(1, 4 * NARROW_MIN_LEN + 1, 2))
        beyond = 4 * NARROW_MIN_LEN + 2
        pz = _long_list((1, 3), [3, 5] + list(range(
            beyond, beyond + 2 * (WALK_ROW_COST * len(py) - 2 + extra), 2)))
        db, utilities = _rows(py, pz)
        assert [db.sizes[t - 1] for t in py.tids[:4]] == [1, 2, 2, 1]
        assert len(pz) == WALK_ROW_COST * len(py) + extra
        assert walk_pays(py, [pz], db) == bool(extra)
        assert find_shared(py, [pz]) == {3: ([3, 5], [1, 2])}
        child = walk_children(py, [pz], db, utilities)[3]
        assert (child[0], child[-1]) == ([3, 5], [1, 2])

    @pytest.mark.parametrize("shift", [0, 1])
    def test_the_rule_reads_the_sizes_of_the_probed_tids(self, shift):
        # Py of 16 * 16 tids: every 16th, the probed ones when shift is
        # 0, lies in a transaction of 9 rows, every other in one of 1.
        # Probed, the big ones estimate 9 rows per tid, and a partner of
        # WALK_ROW_COST * 9 * len(Py) tids is not walked, one of a tid
        # more is; unprobed, they estimate 1 row per tid, and both are
        n = NARROW_PROBES * 16
        py = _long_list((1, 2), range(1, n + 1))
        big = set(py.tids[shift::16])
        fillers = [_long_list((1, k), sorted(big)) for k in range(10, 18)]
        for tids in (WALK_ROW_COST * 9 * n, WALK_ROW_COST * 9 * n + 1):
            pz = _long_list((1, 3), range(n + 1, n + 1 + tids))
            db, _utilities = _rows(py, pz, *fillers)
            assert [db.sizes[t - 1] for t in py.tids[:32]] == (
                [9] + [1] * 15 + [9] + [1] * 15 if shift == 0 else
                [1] + [9] + [1] * 14 + [1] + [9] + [1] * 14)
            assert walk_pays(py, [pz], db) == (shift == 1 or tids > WALK_ROW_COST * 9 * n)


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
            max(table.entries[item] * quantity, 0.0)
            for tx in db.transactions for item, quantity, _p in tx.rows
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
    a tenth of them. Every join of two roots, given the cut that
    find_shared finds for it, or the child that a walk over Py's rows
    builds, equals the join without either bit for bit, and each
    narrowed one equals the scan. With s1 on, at drawn thresholds and at
    thresholds on and just above the matched sums, all abandon alike."""
    db, table = generate(GenParams(n_transactions=3000, n_items=40, avg_tx_len=4,
                                   max_tx_len=8, seed=seed))
    order, roots = _unpruned_roots(db, table)
    total_rtu = sum(measures.redefined_transaction_utility(tx, table)
                    for tx in db.transactions)
    drawn = (util_frac * total_rtu, pro_frac * db.size)
    rows = (db, db.utilities(table))
    narrowed = 0
    for i, py in enumerate(roots):
        cuts = find_shared(py, roots[i + 1:])
        for pz in roots[i + 1:]:
            cut = cuts.get(pz.pattern_po[-1])
            if cut is not None:
                _joins_alike(py, pz, cut, rows)
                narrowed += 1
                scan = build_pulist_by_scan(db, table, order, py.pattern_po + pz.pattern_po[-1:])
                assert lists_match(construct(py, pz, shared=cut), scan)
            _fires, m_pro, m_util = _s1_reference(py, pz, 0.0, 0.0)
            for min_util, pro_bound in (
                drawn,
                (m_util, m_pro),
                (math.nextafter(m_util, math.inf), m_pro),
                (m_util, math.nextafter(m_pro, math.inf)),
            ):
                if cut is not None:
                    _joins_alike(py, pz, cut, rows, min_util=min_util, pro_bound=pro_bound,
                                 la_prune=True)
    assert narrowed >= len(roots) * (len(roots) - 1) // 4


def _relabelled_with_zero_units(db, table, zeros):
    """db and table with every item id i relabelled 2i + 7, and the
    units of the two positive items of largest id set to zeros."""
    items, quantities, probabilities, sizes = db.columns
    units = {2 * i + 7: u for i, u in table.entries.items()}
    for item, zero in zip(sorted(i for i, u in units.items() if u > 0)[-2:], zeros):
        units[item] = zero
    return (UncertainDatabase([2 * i + 7 for i in items], quantities, probabilities, sizes),
            UtilityTable(units))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), dropped=st.integers(1, 5),
       zeros=st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)]),
       util_frac=st.floats(0.0, 0.05), pro_frac=st.floats(0.0, 0.05))
def test_walked_children_equal_the_merge(seed, dropped, zeros, util_frac, pro_frac):
    """Sparse generated databases with item ids relabelled 2i + 7, a
    third of the items in the negative group, units of 0.0 and -0.0,
    and the `dropped` positive items of least rtwu left out of the
    processing order, as s2 leaves items out, their rows staying in the
    transactions: for every Py at depths 1 to 3,
    the walk over Py's transactions builds, for each later sibling Pz,
    the child that construct turns into the merge's Pyz, equal by
    float.hex in all seven columns and four sums once gather_rpu has
    added rpu. With s1 on, at drawn thresholds and at thresholds on and
    just above the matched sums, both abandon the same joins."""
    db, table = _relabelled_with_zero_units(*generate(GenParams(
        n_transactions=2000, n_items=16, avg_tx_len=4, max_tx_len=8,
        negative_fraction=0.33, seed=seed)), zeros)
    rtwu = initial_scan(db, db.utilities(table), Thresholds(0.0, 0.0), apply_filter=False)
    out = sorted((i for i, u in table.entries.items() if u > 0), key=rtwu.get)[:dropped]
    order = compute_processing_order(table, {i: r for i, r in rtwu.items() if i not in out})
    total_rtu = sum(measures.redefined_transaction_utility(tx, table)
                    for tx in db.transactions)
    drawn = (util_frac * total_rtu, pro_frac * db.size)
    utilities = db.utilities(table)
    seen = {"depths": set(), "negative": 0, "abandoned": 0, "zero": 0}

    def visit(siblings):
        for i, py in enumerate(siblings):
            later = siblings[i + 1:]
            children = walk_children(py, later, db, utilities)
            for pz in later:
                child = children[pz.pattern_po[-1]]
                plain = construct(py, pz)
                walked = construct(py, pz, shared=child)
                assert walked.rpu is None and walked.sum_rpu is None
                gather_rpu([walked], [pz])
                assert _bits(walked) == _bits(plain)
                if walked.tids:
                    seen["depths"].add(len(py.pattern_po))
                    seen["negative"] += min(walked.iu) < 0
                    seen["zero"] += 0.0 in walked.iu
                _fires, m_pro, m_util = _s1_reference(py, pz, 0.0, 0.0)
                for min_util, pro_bound in (
                    drawn,
                    (m_util, m_pro),
                    (math.nextafter(m_util, math.inf), m_pro),
                    (m_util, math.nextafter(m_pro, math.inf)),
                ):
                    bounds = {"min_util": min_util, "pro_bound": pro_bound, "la_prune": True}
                    merged = construct(py, pz, **bounds)
                    walked = construct(py, pz, shared=child, **bounds)
                    assert (walked is ABANDONED) == (merged is ABANDONED)
                    seen["abandoned"] += walked is ABANDONED
            if len(py.pattern_po) < 3:
                visit([pyz for pyz in (construct(py, pz) for pz in later) if pyz.tids])

    visit(build_initial_pulists(db, utilities, order))
    assert seen["depths"] == {1, 2, 3}
    assert seen["negative"] and seen["zero"] and seen["abandoned"], seen


def _replayed_joins(monkeypatch, db, table, thresholds, config=None):
    """mine()'s joins, each as (py, pz, its keywords, its result), and
    its results. Its stats count the joins, and the tids they read and
    keep, as the calls recorded here do."""
    joins = []

    def recording(py, pz, **kwargs):
        pyz = construct(py, pz, **kwargs)
        joins.append((py, pz, kwargs, pyz))
        return pyz
    monkeypatch.setattr(miner, "construct", recording)
    found, stats = mine(db, table, thresholds, config)
    monkeypatch.undo()
    assert stats.joins_attempted == len(joins)
    assert stats.tids_in == sum(len(py) + len(pz) for py, pz, _kwargs, _pyz in joins)
    assert stats.tids_out == sum(len(pyz) for _py, _pz, _kwargs, pyz in joins if pyz is not None)
    return joins, found


def _equals_the_merge(py, pz, kwargs, pyz):
    """A join given shared equals the same join over the full columns, by
    float.hex; a walked child gets its rpu first, which search gives it
    only once s5 keeps it."""
    plain = construct(py, pz, **{**kwargs, "shared": None})
    assert (pyz is ABANDONED) == (plain is ABANDONED)
    if plain is not ABANDONED:
        if len(kwargs["shared"]) > 2:
            gather_rpu([pyz], [pz])
        assert _bits(pyz) == _bits(plain)


def _given(joins, walked):
    """The joins given a narrowed cut, or with walked a walked child."""
    return [join for join in joins if join[2]["shared"] is not None
            and (len(join[2]["shared"]) > 2) == walked]


def test_narrowed_joins_of_mine_equal_the_merge(monkeypatch):
    """mine() on sparse data over 40 items, replayed join by join: each
    join given the shared tids that find_shared found equals the same
    join over its full columns, by float.hex, and other Pys walked in
    the same run."""
    db, table = generate(GenParams(6000, 40, 6, 12, seed=3))
    joins, found = _replayed_joins(monkeypatch, db, table, Thresholds(9e3, 0.001))
    assert found
    narrowed = _given(joins, walked=False)
    assert len(narrowed) > 1000 and _given(joins, walked=True)
    for join in narrowed:
        _equals_the_merge(*join)


@pytest.fixture(scope="module")
def walked_cases():
    """Databases where long Pys walk: at depths 1 and 2, and 27 times."""
    return [(*generate(GenParams(4000, 20, 5, 8, seed=3)), Thresholds(4e4, 0.001)),
            (*generate(GenParams(4000, 40, 4, 8, seed=5)), Thresholds(1e4, 0.001))]


@pytest.mark.parametrize("preset", ["ALL", "P1234", "P123", "P12", "NONE"])
def test_walked_joins_of_mine_equal_the_merge(monkeypatch, walked_cases, preset):
    """mine() replayed join by join under each preset: every join given a
    walked child equals construct without shared, by float.hex, s1
    abandons the same joins, and the results are those of a mine() in
    which every join merges its full columns."""
    depths = set()
    config = MiningConfig.from_preset(preset)
    for db, table, thresholds in walked_cases:
        joins, found = _replayed_joins(monkeypatch, db, table, thresholds, config)
        walked = _given(joins, walked=True)
        assert walked
        depths |= {len(py.pattern_po) for py, _pz, _kwargs, _pyz in walked}
        for join in walked:
            _equals_the_merge(*join)
        monkeypatch.setattr(miner, "NARROW_MIN_LEN", 10 ** 9)
        merged, _stats = mine(db, table, thresholds, config)
        monkeypatch.undo()
        assert [(m.pattern, m.utility.hex(), m.expected_support.hex()) for m in found] == [
            (m.pattern, m.utility.hex(), m.expected_support.hex()) for m in merged]
    assert depths == {1, 2}


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
            table, initial_scan(db, db.utilities(table), Thresholds(0.0, 0.0), apply_filter=False))
        for lst in build_initial_pulists(db, db.utilities(table), order):
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
            table, initial_scan(db, db.utilities(table), thresholds, apply_filter=apply_filter))
        roots = build_initial_pulists(db, db.utilities(table), order)
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
            Transaction(1, tuple((i, 1, 0.5) for i in range(1, 6))),
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
        table, initial_scan(db, db.utilities(table), Thresholds(0.0, 0.0), apply_filter=False))
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
