"""Vertical probability-utility lists with signed utilities.

A pattern's list holds one entry per supporting transaction, stored as
seven tid-sorted parallel columns:

  tids  the supporting transactions, ascending,
  pro   existence probability of the pattern in that transaction,
  pu    positive part of the pattern's utility there,
  nu    negative part (nu <= 0; pu + nu is the actual utility),
  rpu   summed utility of positive-group items that follow the
        pattern's last item in the processing order,
  iu    utility of the pattern's last item there,
  ip    existence probability of the pattern's last item there.

The single-item lists come from the miner's second database scan, one
walk over the transactions that projects each onto the surviving items
in processing order, appends to the item columns directly and, for s6,
also fills the item-pair matrix, EUCS, whose rank-indexed layout only
this module reads and writes.
The list of Pyz is built from the lists of Py and Pz alone (the
HUI-Miner join, with negative utilities split off as in FHN): Py's
entry is extended by z's own utility and probability, which Pz carries
in its iu and ip columns, so no lookup in the list of P and no division
is needed. The join is one two-pointer merge over the tid columns of
Py and Pz. When both lists are long and a probe of a few Pz tids finds
almost none in Py, the join first narrows both lists to their shared
tids, found with one set intersection and located with bisect, so that
the merge walks only the entries it keeps (see NARROW_MIN_LEN). With s1
on, the join also sums Py's probability and pu + rpu over the matched
entries; if some Py entry went unmatched and either sum is below its
threshold, the join is abandoned: Pyz and every extension of it are
then out of reach. The tests cross-check construct against lists built
by a direct scan of the transactions (tests/scan_reference.py).
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

from .model import Item, UncertainDatabase, UtilityTable


@dataclass(frozen=True)
class ProcessingOrder:
    """Total item order: positive-group items first, rtwu-ascending
    within each group, ties broken by ascending id."""

    ordered_items: tuple[Item, ...]
    rank: Mapping[Item, int]


class PUList:
    """Per-pattern list stored as parallel tid-sorted columns.

    `pattern_po` keeps the items in processing order (the order they
    were appended along the enumeration path); Pattern.of(pattern_po)
    is the canonical ascending-id form. PUList(pattern_po) is an empty
    list; build_initial_pulists fills its columns and sets the four
    sums. construct makes a kept join's list without __init__, storing
    the columns it has filled and every other slot directly.
    """

    __slots__ = ("pattern_po", "tids", "pro", "pu", "nu", "rpu", "iu", "ip",
                 "sum_pro", "sum_pu", "sum_nu", "sum_rpu")

    def __init__(self, pattern_po: tuple[Item, ...]):
        self.pattern_po = pattern_po
        self.tids: list[int] = []
        self.pro: list[float] = []
        self.pu: list[float] = []
        self.nu: list[float] = []
        self.rpu: list[float] = []
        self.iu: list[float] = []
        self.ip: list[float] = []
        self.sum_pro = 0.0
        self.sum_pu = 0.0
        self.sum_nu = 0.0
        self.sum_rpu = 0.0

    def __len__(self) -> int:
        return len(self.tids)


@dataclass(frozen=True)
class EUCS:
    """Pair rtwu co-occurrence matrix over the processing order.

    A lower-triangular matrix indexed by rank, as in FHM: row r holds
    one float per lower rank, so the pair of ranks q < r sits at
    rows[r][q]. Filled by build_initial_pulists, so each transaction
    adds its positive utility over the surviving items only (a tighter,
    still sound bound than over all of its items); a pair that never
    co-occurs reads 0.0."""

    rank: Mapping[Item, int]
    rows: list[list[float]]

    @classmethod
    def zeros(cls, order: ProcessingOrder) -> "EUCS":
        return cls(order.rank, [[0.0] * r for r in range(len(order.ordered_items))])

    def pair(self, a: Item, b: Item) -> float:
        """The rtwu of two distinct items of the processing order."""
        ra = self.rank[a]
        rb = self.rank[b]
        return self.rows[rb][ra] if ra < rb else self.rows[ra][rb]


def compute_processing_order(
    table: UtilityTable,
    item_rtwu: Mapping[Item, float],
) -> ProcessingOrder:
    """Order the surviving items: every positive-group item precedes
    every negative-group item; within a group ascending rtwu, ties by
    ascending id."""
    items = sorted(
        item_rtwu,
        key=lambda i: (not table.is_positive_group(i), item_rtwu[i], i),
    )
    return ProcessingOrder(tuple(items), {it: r for r, it in enumerate(items)})


def build_initial_pulists(
    db: UncertainDatabase,
    table: UtilityTable,
    order: ProcessingOrder,
    eucs: EUCS | None = None,
) -> list[PUList]:
    """The roots of the search: one list per surviving item, in processing
    order, none empty (every item initial_scan keeps occurs somewhere).

    Each transaction is projected onto (rank, utility, probability)
    tuples of its surviving items and sorted; ranks are unique within a
    transaction, so the tuples sort by rank alone. One reverse pass
    appends each entry to its item's columns and carries the suffix of
    positive utilities: rpu sums the positive utilities that follow the
    item in the projected transaction. A positive-group item has nu = 0
    per entry, a negative-group item has pu = 0. The column sums are
    added once per list after the walk, in tid order from 0.0: the
    order in which construct accumulates its sums.

    Given an EUCS over the same order (EUCS.zeros(order)), the same walk
    adds the transaction's positive utility over the surviving items to
    the cell of every co-occurring pair: the matrix that s6 consults. A
    pair that never co-occurs keeps its 0.0.
    """
    pair_rtwu = eucs.rows if eucs is not None else None
    rank_of = order.rank.get
    unit_of_rank = [table.unit_utility(item) for item in order.ordered_items]
    lists = [PUList((item,)) for item in order.ordered_items]
    appends = [(lst.tids.append, lst.pro.append, lst.pu.append, lst.nu.append,
                lst.rpu.append) for lst in lists]
    for tx in db.transactions:
        entries = [
            (r, unit_of_rank[r] * quantity, probability)
            for item, quantity, probability in tx.rows
            if (r := rank_of(item)) is not None
        ]
        if not entries:
            continue
        entries.sort()
        tid = tx.tid
        suffix = 0.0
        for r, u, p in reversed(entries):
            add_tid, add_pro, add_pu, add_nu, add_rpu = appends[r]
            add_tid(tid)
            add_pro(p)
            add_rpu(suffix)
            if u >= 0.0:
                add_pu(u)
                add_nu(0.0)
                if u > 0.0:  # adding a zero would leave suffix as it is
                    suffix += u
            else:
                add_pu(0.0)
                add_nu(u)
        if pair_rtwu is not None:
            lower = []
            for r, _u, _p in entries:
                row = pair_rtwu[r]
                for q in lower:
                    row[q] += suffix
                lower.append(r)
    for lst in lists:
        lst.sum_pro = _front_to_back(lst.pro)
        lst.sum_pu = _front_to_back(lst.pu)
        lst.sum_nu = _front_to_back(lst.nu)
        lst.sum_rpu = _front_to_back(lst.rpu)
        # A single-item list's last item is the pattern itself, so its
        # item columns are its own pro and signed utility columns (a
        # negative-group item has u < 0, hence nu < 0, in every entry).
        lst.ip = lst.pro
        lst.iu = lst.nu if lst.sum_nu < 0.0 else lst.pu
    return lists


def _front_to_back(column: list[float]) -> float:
    """The column's sum, added in order from 0.0: builtin sum() of floats
    is compensated from Python 3.12 on and would round differently."""
    total = 0.0
    for x in column:
        total += x
    return total


ABANDONED = None  # construct() result when the s1 test fires

# When Py and Pz are both long and share few tids, the merge spends
# nearly all of its steps on tids it then skips. Such a join first
# narrows both lists to their shared tids: one C-level set intersection
# with Py's tid set finds them, bisect gathers their entries, and the
# merge then walks the narrowed columns in lockstep, so its cost follows
# the overlap, not the lengths (the rule of adaptive set intersection,
# Demaine, Lopez-Ortiz & Munro, SODA 2000). Whether a join is sparse is
# judged by a probe: NARROW_PROBES evenly spaced tids of Pz looked up in
# Py's set, sparse iff at most NARROW_MAX_HITS of them are found. Both
# lists must hold at least NARROW_MIN_LEN tids.
# Measured against the plain merge, in an interleaved replay of every
# join: the C7 family at 20k transactions (joins of about 990 tids that
# share about 5 %) narrows 4,586 of its 4,760 joins, which then take
# about 0.6x the time; dense data with long lists that share about half
# their tids narrows 15 of 41,605 long joins, and a deep tree of short
# joins none. A narrowed dense join costs about 2x its merge: length
# alone as the rule, or an 8-tid probe, sent too many of them down this
# path (see ROADMAP, "Measured and rejected").
NARROW_MIN_LEN = 128
NARROW_PROBES = 16
NARROW_MAX_HITS = 2


def construct(
    py: PUList,
    pz: PUList,
    *,
    min_util: float = 0.0,
    pro_bound: float = 0.0,
    la_prune: bool = False,
    py_tids: set[int] | None = None,
) -> PUList | None:
    """Join the lists of Py = P + y and Pz = P + z into the list of Pyz.

    One merge walks both tid columns in ascending order and stops when
    Pz runs out. For a tid in both lists, Py's entry ey is extended by
    z alone, whose utility iu and probability ip Pz's entry ez carries:
      pro = ey.pro * ez.ip
      pu  = ey.pu + ez.iu if ez.iu >= 0, else ey.pu
      nu  = ey.nu + ez.iu if ez.iu < 0, else ey.nu
      rpu = ez.rpu,  iu = ez.iu,  ip = ez.ip
    This multiplies and adds in processing order, as a direct scan does.

    py_tids, when given, is set(py.tids); the caller builds it once and
    passes it to each of Py's joins. With it, a join of two lists of at
    least NARROW_MIN_LEN tids whose probe finds at most NARROW_MAX_HITS
    of NARROW_PROBES sampled Pz tids in Py first narrows both lists to
    their shared tids (see NARROW_MIN_LEN above), and the same merge
    walks the narrowed columns. The merge only ever acts on shared tids,
    in tid order, so the narrowed join returns the same list, bit for
    bit. Without py_tids the join always merges the full columns.

    The same walk sums, over the matched Py entries in tid order,
    m_pro = sum of ey.pro and m_util = sum of ey.pu + ey.rpu. With
    la_prune (s1) on, the join returns ABANDONED (None) iff at least one
    Py entry went unmatched (counted against Py's full length, not the
    narrowed one) and m_pro < pro_bound or m_util < min_util:
    no extension of Py by z, nor any superset of it, can then qualify.
    For probability the test is sound in floats too: each ey.pro is at
    least its Pyz entry ey.pro * ez.ip (ip <= 1), and rounded addition
    is monotone, so m_pro bounds Pyz's sum_pro from above. A fully
    matched Py is never abandoned; its Pyz is returned as built.

    The merge fills the seven columns as plain lists; the PUList that
    holds them is made only after the s1 test, so an abandoned join
    allocates none.
    """
    # one name per statement, here and for Py's and Pz's columns below:
    # a multiple assignment of more than three names builds and unpacks a
    # tuple, a cost paid on every join
    o_tids = []
    o_pro = []
    o_pu = []
    o_nu = []
    o_rpu = []
    o_iu = []
    o_ip = []
    s_pro = s_pu = s_nu = s_rpu = 0.0
    m_pro = m_util = 0.0

    y_tids = py.tids
    y_pro = py.pro
    y_pu = py.pu
    y_nu = py.nu
    y_rpu = py.rpu
    z_tids = pz.tids
    z_rpu = pz.rpu
    z_iu = pz.iu
    z_ip = pz.ip
    z_len = len(z_tids)

    if py_tids is not None:
        narrowed = _narrow(py, pz, py_tids)
        if narrowed is not None:
            y_tids, y_pro, y_pu, y_nu, y_rpu, z_rpu, z_iu, z_ip = narrowed
            z_tids = y_tids
            z_len = len(z_tids)

    if z_len:
        k = 0
        z_tid = z_tids[0]
        for i, tid in enumerate(y_tids):
            if tid < z_tid:
                continue
            if tid > z_tid:
                k += 1
                while k < z_len and z_tids[k] < tid:
                    k += 1
                if k == z_len:
                    break
                z_tid = z_tids[k]
                if tid < z_tid:
                    continue
            y_p = y_pro[i]
            y_u = y_pu[i]
            m_pro += y_p
            m_util += y_u + y_rpu[i]
            u = z_iu[k]
            p = z_ip[k]
            pro = y_p * p
            pu = y_u
            nu = y_nu[i]
            if u >= 0.0:
                pu += u
            else:
                nu += u
            rpu = z_rpu[k]
            o_tids.append(tid)
            o_pro.append(pro)
            o_pu.append(pu)
            o_nu.append(nu)
            o_rpu.append(rpu)
            o_iu.append(u)
            o_ip.append(p)
            s_pro += pro
            s_pu += pu
            s_nu += nu
            s_rpu += rpu
            k += 1
            if k == z_len:
                break
            z_tid = z_tids[k]
    if (la_prune and len(o_tids) < len(py.tids)
            and (m_pro < pro_bound or m_util < min_util)):
        return ABANDONED
    out = PUList.__new__(PUList)
    out.pattern_po = py.pattern_po + (pz.pattern_po[-1],)
    out.tids = o_tids
    out.pro = o_pro
    out.pu = o_pu
    out.nu = o_nu
    out.rpu = o_rpu
    out.iu = o_iu
    out.ip = o_ip
    out.sum_pro = s_pro
    out.sum_pu = s_pu
    out.sum_nu = s_nu
    out.sum_rpu = s_rpu
    return out


def _narrow(py: PUList, pz: PUList, py_tids: set[int]) -> tuple[list, ...] | None:
    """Py's tid and pattern columns and Pz's rpu and item columns, each
    cut down to the tids both lists share, or None unless both lists
    hold at least NARROW_MIN_LEN tids and at most NARROW_MAX_HITS of
    NARROW_PROBES evenly spaced Pz tids are in py_tids, Py's tid set."""
    y_tids, z_tids = py.tids, pz.tids
    z_len = len(z_tids)
    if len(y_tids) < NARROW_MIN_LEN or z_len < NARROW_MIN_LEN:
        return None
    step = z_len // NARROW_PROBES
    if len(py_tids.intersection(z_tids[:step * NARROW_PROBES:step])) > NARROW_MAX_HITS:
        return None
    shared = sorted(py_tids.intersection(z_tids))
    yi = list(map(bisect_left, repeat(y_tids), shared))
    zi = list(map(bisect_left, repeat(z_tids), shared))
    return (shared,
            *([column[i] for i in yi] for column in (py.pro, py.pu, py.nu, py.rpu)),
            *([column[k] for k in zi] for column in (pz.rpu, pz.iu, pz.ip)))
