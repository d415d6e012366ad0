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

The processing order puts every positive-group item (unit utility not
below 0) before every negative-group one and records how many lead it,
so the sign rule is applied once, where the order is made. The
single-item lists come from the miner's second database scan, one walk
over the database's utility column and its other columns that projects
each transaction onto the surviving items in processing order, files
each utility under pu or nu by its item's rank, appends to the item
columns directly and, for s6, also fills the item-pair matrix, EUCS,
whose rank-indexed layout only this module reads and writes.
The list of Pyz is built from the lists of Py and Pz alone (the
HUI-Miner join, with negative utilities split off as in FHN): Py's
entry is extended by z's own utility and probability, which Pz carries
in its iu and ip columns, so no lookup in the list of P and no division
is needed. The join is one two-pointer merge over the tid columns of
Py and Pz. A long Py whose partners hold many more tids than its
transactions hold rows (walk_pays) builds all of its children in one
walk over those transactions instead (walk_children), as EFIM's
projected transactions and d2HUP's one scan per node do: z's row in a
transaction of Py holds the iu and ip that Pz carries there. Each join
then takes the child that the walk built in place of the merge's
columns, and it passes the same s1 test and list assembly as a merged
child. A long Py that does not walk probes its long partners: when a
probe of a few Pz tids finds almost none in Py, find_shared gives the
join the tids the two share and Py's positions of them; it gathers
Pz's entries at those tids, reads Py's in place, and the merge walks
only the entries it keeps (see NARROW_MIN_LEN). With s1 on, the join
also sums Py's probability and pu + rpu over the matched entries; if
some Py entry went unmatched and either sum is below its threshold,
the join is abandoned: Pyz and every extension of it are then out of
reach. Whichever way a join is built, it returns the same list, bit
for bit. The tests cross-check construct against lists built by a
direct scan of the transactions (tests/scan_reference.py).
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from typing import Mapping

from .model import Item, UncertainDatabase, UtilityTable


@dataclass(frozen=True)
class ProcessingOrder:
    """Total item order: positive-group items first, rtwu-ascending
    within each group, ties broken by ascending id. The first positives
    items of ordered_items form the positive group: an item is in the
    negative group iff its rank is at least positives."""

    ordered_items: tuple[Item, ...]
    rank: Mapping[Item, int]
    positives: int


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

    def partners(self, y: Item, siblings: list["PUList"], min_util: float) -> list["PUList"]:
        """The siblings, in order, whose last item's pair rtwu with y is
        not below min_util: the joins of Py that s6 keeps. Every
        sibling's last item follows y in the processing order, so its
        row holds the pair."""
        rank = self.rank
        rows = self.rows
        ry = rank[y]
        return [pz for pz in siblings if not rows[rank[pz.pattern_po[-1]]][ry] < min_util]


def compute_processing_order(
    table: UtilityTable,
    item_rtwu: Mapping[Item, float],
) -> ProcessingOrder:
    """Order the surviving items: every positive-group item precedes
    every negative-group item; within a group ascending rtwu, ties by
    ascending id. An item is in the negative group iff its unit utility
    is below 0; the order counts the positive group's items."""
    units = table.entries
    # Zero-utility items count as positive: they contribute nothing
    # either way and this keeps the item ordering total. A unit of -0.0
    # is not below 0 either.
    negative = {i: units[i] < 0 for i in item_rtwu}
    items = sorted(item_rtwu, key=lambda i: (negative[i], item_rtwu[i], i))
    return ProcessingOrder(tuple(items), {it: r for r, it in enumerate(items)},
                           len(items) - sum(negative.values()))


def build_initial_pulists(
    db: UncertainDatabase,
    utilities: list[float],
    order: ProcessingOrder,
    eucs: EUCS | None = None,
) -> list[PUList]:
    """The roots of the search: one list per surviving item, in processing
    order, none empty (every item initial_scan keeps occurs somewhere).

    utilities is the database's utility column, db.utilities(table).
    One walk over the database's columns, zipped once into (rank,
    utility, probability) rows, drops the rows of items that did not
    survive and takes each transaction's remaining rows, sorted; ranks
    are unique within a transaction, so the rows sort by rank alone.
    One reverse pass per transaction appends each entry to its item's
    columns and carries the suffix of positive utilities: rpu sums the
    positive utilities that follow the item in the projected
    transaction. A negative-group item's utilities (its rank is at least
    order.positives) go to its nu column and its pu column is all 0.0;
    every other item's go to pu, with nu all 0.0. The column sums are
    added once per list after the walk, in tid order from 0.0: the order
    in which construct accumulates its sums. The all-zero column is not
    added up: its sum is that 0.0.

    Given an EUCS over the same order (EUCS.zeros(order)), the same walk
    adds the transaction's positive utility over the surviving items to
    the cell of every co-occurring pair: the matrix that s6 consults. A
    pair that never co-occurs keeps its 0.0.
    """
    pair_rtwu = eucs.rows if eucs is not None else None
    rows = zip(map(order.rank.get, db.items), utilities, db.probabilities)
    sizes = db.sizes
    if len(order.rank) < len(db.item_universe):
        # keep the rows of surviving items; a transaction keeps as many
        # rows as the flags of its own rows count
        kept = list(map(order.rank.__contains__, db.items))
        rows = compress(rows, kept)
        sizes = list(map(sum, map(islice, repeat(iter(kept)), db.sizes)))
    lists = [PUList((item,)) for item in order.ordered_items]
    # a negative-group item's utilities are its nu column, every other
    # item's its pu column (u has the sign of the unit, quantities being
    # positive); the other column, all zeros, is filled after the walk
    positives = order.positives
    appends = [(lst.tids.append, lst.pro.append,
                (lst.nu if r >= positives else lst.pu).append, lst.rpu.append)
               for r, lst in enumerate(lists)]
    # the tids as one list of ints made up front: ints made one by one
    # inside the walk lie scattered between its other objects, and every
    # join reads them (the c7-wide benchmark's search took 1.08x as long)
    tids = list(range(1, db.size + 1))
    for tid, n in zip(compress(tids, sizes), filter(None, sizes)):
        entries = sorted(islice(rows, n))
        suffix = 0.0
        for r, u, p in reversed(entries):
            add_tid, add_pro, add_u, add_rpu = appends[r]
            add_tid(tid)
            add_pro(p)
            add_u(u)
            add_rpu(suffix)
            if u > 0.0:  # adding a zero would leave suffix as it is
                suffix += u
        if pair_rtwu is not None:
            lower = []
            for r, _u, _p in entries:
                row = pair_rtwu[r]
                for q in lower:
                    row[q] += suffix
                lower.append(r)
    for r, lst in enumerate(lists):
        # A single-item list's last item is the pattern itself, so its
        # item columns are its own pro and signed utility columns. The
        # all-zero column's sum stays at the +0.0 that __init__ set.
        lst.ip = lst.pro
        if r >= positives:
            lst.pu = [0.0] * len(lst.tids)
            lst.iu = lst.nu
            lst.sum_nu = _front_to_back(lst.nu)
        else:
            lst.nu = [0.0] * len(lst.tids)
            lst.iu = lst.pu
            lst.sum_pu = _front_to_back(lst.pu)
        lst.sum_pro = _front_to_back(lst.pro)
        lst.sum_rpu = _front_to_back(lst.rpu)
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
# nearly all of its steps on tids it then skips. A Py of at least
# NARROW_MIN_LEN tids therefore either walks or probes.
# It walks (walk_pays) when WALK_ROW_COST times the rows of its
# transactions is below the tids that its partners, the later siblings
# that s6 keeps, hold: one walk over those rows (walk_children) builds
# every child, and no join merges. A row visited by the walk costs about
# WALK_ROW_COST tids stepped over or hashed by a join. The rows are
# estimated from the sizes of NARROW_PROBES evenly spaced tids of Py: an
# exact count at every long Py cost 0.108 s on dense data with long
# lists, where none walked. On the C7 family at 20k transactions, 80 of
# its roots walk and mine() takes about 0.74x the time.
# A Py that does not walk probes each long partner: NARROW_PROBES evenly
# spaced tids of Pz looked up in Py's tid set, sparse iff at most
# NARROW_MAX_HITS of them are found. Such a join is given the tids both
# lists share and Py's positions of them (find_shared), bisect locates
# those tids in Pz, and the merge then walks them against Pz's narrowed
# columns, reading Py's columns at the given positions rather than a
# copy of them, so its cost follows the overlap, not the lengths (the
# rule of adaptive set intersection, Demaine, Lopez-Ortiz & Munro, SODA
# 2000). The C7 family at 100k transactions under ALL, where s6 leaves
# few partners and no Py walks, spent 14 % more in search without this
# path. Dense data with long lists that share about half their tids
# narrows 15 of 41,605 long joins, and a deep tree of short joins none.
# A narrowed dense join costs about 2x its merge: length alone as the
# rule, or an 8-tid probe, sent too many of them down this path (see
# ROADMAP, "Measured and rejected").
NARROW_MIN_LEN = 128
NARROW_PROBES = 16
NARROW_MAX_HITS = 2
WALK_ROW_COST = 3


def construct(
    py: PUList,
    pz: PUList,
    *,
    min_util: float = 0.0,
    pro_bound: float = 0.0,
    la_prune: bool = False,
    shared: tuple[list, ...] | None = None,
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

    shared, when given, is either find_shared's entry for Pz or the
    child that walk_children built for it. find_shared's is the tids
    that Py and Pz share, ascending, and Py's positions of them. The
    join then locates those tids in Pz by bisect and gathers Pz's
    entries there; the same merge walks the shared tids against those
    narrowed columns, reading Py's own columns at the given positions
    (see NARROW_MIN_LEN above). The merge only ever acts on shared tids,
    in tid order, so the narrowed join returns the same list, bit for
    bit. A walked child holds Pyz's columns but rpu and Py's positions
    of its tids: the join takes those columns in place of the merge's,
    adds up their sums and, when the s1 test reads them, the matched
    sums over Py's entries at those positions, each in tid order as the
    merge does; the same s1 test and the same list assembly follow. Its
    rpu column and sum_rpu are None until search gathers them
    (gather_rpu) once s5 keeps the child, so a child that missed the
    gather raises rather than read a bound of 0.0 into s4. Without
    shared the join merges the full columns.

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
    y_pro = py.pro
    y_pu = py.pu
    y_rpu = py.rpu
    m_pro = m_util = 0.0
    if shared is None or len(shared) == 2:
        # one name per statement, here and for the columns below: a
        # multiple assignment of more than three names builds and unpacks
        # a tuple, a cost paid on every join
        o_tids = []
        o_pro = []
        o_pu = []
        o_nu = []
        o_rpu = []
        o_iu = []
        o_ip = []
        s_pro = s_pu = s_nu = s_rpu = 0.0
        y_nu = py.nu
        z_tids = pz.tids
        z_rpu = pz.rpu
        z_iu = pz.iu
        z_ip = pz.ip

        # the merge walks (position in Py, tid) pairs: every entry of Py,
        # or only the shared tids at Py's positions of them, which then
        # meet Pz's columns gathered at the same tids
        if shared is None:
            walk = enumerate(py.tids)
        else:
            # map() and not a comprehension: a comprehension would read
            # the columns as closure cells, on every join, in the merge
            z_tids, at = shared
            walk = zip(at, z_tids)
            at = list(map(bisect_left, repeat(pz.tids), z_tids))
            z_rpu = list(map(z_rpu.__getitem__, at))
            z_iu = list(map(z_iu.__getitem__, at))
            z_ip = list(map(z_ip.__getitem__, at))
        z_len = len(z_tids)

        if z_len:
            k = 0
            z_tid = z_tids[0]
            for i, tid in walk:
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
    else:
        # the child that walk_children built, with Py's positions of its
        # tids; the matched sums are added only for the s1 test to read
        o_tids, o_pro, o_pu, o_nu, o_iu, o_ip, at = shared
        o_rpu = s_rpu = None
        s_pro = _front_to_back(o_pro)
        s_pu = _front_to_back(o_pu)
        s_nu = _front_to_back(o_nu)
        if la_prune and len(o_tids) < len(py.tids):
            for i in at:
                m_pro += y_pro[i]
                m_util += y_pu[i] + y_rpu[i]
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


def walk_pays(py: PUList, partners: list[PUList], db: UncertainDatabase) -> bool:
    """Whether one walk over the rows of Py's transactions in db costs
    less than Py's joins with partners: WALK_ROW_COST times the rows is
    below the tids that the partners hold. The rows are estimated from
    the sizes in db of NARROW_PROBES evenly spaced tids of Py, which
    must hold at least NARROW_PROBES tids; search asks only of a Py of
    NARROW_MIN_LEN tids or more."""
    y_tids = py.tids
    step = len(y_tids) // NARROW_PROBES
    probed = sum(db.sizes[t - 1] for t in y_tids[:step * NARROW_PROBES:step])
    return WALK_ROW_COST * probed * len(y_tids) < NARROW_PROBES * sum(map(len, partners))


def walk_children(
    py: PUList,
    partners: list[PUList],
    db: UncertainDatabase,
    utilities: list[float],
) -> dict[Item, tuple[list, ...]]:
    """Every join of Py with partners (its later siblings, which share
    all but their last item with it) by one walk over Py's transactions:
    each partner's last item z mapped to the columns of Pyz but rpu,
    (tids, pro, pu, nu, iu, ip), and Py's positions of those tids, as
    construct's shared takes them.

    A list's tids are exactly its pattern's supporting transactions:
    Pz's are those of P that hold z, and Py's lie among P's, so Py and
    Pz share exactly the tids of Py whose transaction holds z, and z's
    row there holds the iu and ip that Pz carries at that tid. Each
    entry is formed from Py's entry and that row by the operations of
    construct's merge, in the same order. Rows of items that are not a
    partner's last item are passed over. db is the database from which
    the lists came, whose bounds locate each transaction's rows, and
    utilities its utility column, db.utilities(table).
    """
    children = {pz.pattern_po[-1]: ([], [], [], [], [], [], []) for pz in partners}
    get = children.get
    items = db.items
    probabilities = db.probabilities
    bounds = db.bounds
    for i, tid, y_p, y_u, y_n in zip(count(), py.tids, py.pro, py.pu, py.nu):
        for r in range(bounds[tid - 1], bounds[tid]):
            hit = get(items[r])
            if hit is not None:
                tids, pro, pu, nu, iu, ip, at = hit
                u = utilities[r]
                p = probabilities[r]
                tids.append(tid)
                pro.append(y_p * p)
                if u >= 0.0:
                    pu.append(y_u + u)
                    nu.append(y_n)
                else:
                    pu.append(y_u)
                    nu.append(y_n + u)
                iu.append(u)
                ip.append(p)
                at.append(i)
    return children


def gather_rpu(children: list[PUList], partners: list[PUList]) -> None:
    """Set the rpu column and sum_rpu of each of a walked Py's children
    (walk_children, then construct): Pyz's rpu is z's, which the partner
    Pz carries at the same tids."""
    by_item = {pz.pattern_po[-1]: pz for pz in partners}
    for pyz in children:
        pz = by_item[pyz.pattern_po[-1]]
        pyz.rpu = list(map(pz.rpu.__getitem__, map(bisect_left, repeat(pz.tids), pyz.tids)))
        pyz.sum_rpu = _front_to_back(pyz.rpu)


def find_shared(
    py: PUList,
    siblings: list[PUList],
) -> dict[Item, tuple[list[int], list[int]]]:
    """Py's sparse long partners among its later siblings, each mapped by
    its last item z to (the tids Py and Pz share, ascending; Py's
    positions of them), as construct's shared takes them.

    A partner is a sibling that holds at least NARROW_MIN_LEN tids and
    whose probe finds at most NARROW_MAX_HITS of NARROW_PROBES evenly
    spaced tids of it in Py. Py's own length is not tested here: search
    asks only of a Py of NARROW_MIN_LEN tids or more. The shared tids
    are one C-level set intersection with Py's tid set per partner,
    sorted, and their positions are found in Py by bisect.
    """
    partners = [pz for pz in siblings if len(pz.tids) >= NARROW_MIN_LEN]
    if not partners:
        return {}
    y_tids = py.tids
    py_set = set(y_tids)
    found = {}
    for pz in partners:
        if _probe_finds_few(py_set, pz.tids):
            tids = sorted(py_set.intersection(pz.tids))
            found[pz.pattern_po[-1]] = (tids, list(map(bisect_left, repeat(y_tids), tids)))
    return found


def _probe_finds_few(py_set: set[int], z_tids: list[int]) -> bool:
    """At most NARROW_MAX_HITS of NARROW_PROBES evenly spaced z_tids are
    in py_set."""
    step = len(z_tids) // NARROW_PROBES
    return len(py_set.intersection(z_tids[:step * NARROW_PROBES:step])) <= NARROW_MAX_HITS
