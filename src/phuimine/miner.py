"""One-phase depth-first miner over the set-enumeration tree.

The miner scans the database once for per-item bounds and once more to
build the single-item lists (and, for s6, the item-pair matrix) in the
same walk; those lists are the roots of a recursive search. The search
of one mine() call runs in one frame: search() binds the strategy
flags, bounds, EUCS lookup and counters once, and its nested visit()
recurses over the set-enumeration tree. Each candidate's exact utility
and expected support come straight from its list's column sums, so
qualifying patterns are emitted without a verification pass.

Six pruning strategies sit behind independent toggles. All of them are
sound: every configuration produces the same result set and differs
only in visited-node counts and runtime.

  s1  abandon a join when the matched part of Py cannot reach the
      thresholds
  s2  drop items failing the single-item rtwu/probability bounds in the
      initial scan
  s3  do not extend a node whose summed probability is below the bound
  s4  do not extend a node whose pu + rpu sum is below min_util
  s5  do not keep a joined list whose summed probability is below the
      bound
  s6  skip extensions whose item-pair rtwu (from the co-occurrence matrix)
      is below min_util
"""

import time
from dataclasses import dataclass, fields
from itertools import islice
from operator import attrgetter
from typing import ClassVar

from .model import (
    Item,
    MinedPattern,
    Pattern,
    Thresholds,
    UncertainDatabase,
    UtilityTable,
    check_utilities,
)
from .pulist import (
    EUCS,
    NARROW_MIN_LEN,
    PUList,
    build_initial_pulists,
    compute_processing_order,
    construct,
    find_shared,
    gather_rpu,
    walk_children,
    walk_pays,
)


@dataclass(frozen=True)
class MiningConfig:
    """One flag per pruning strategy, in the order of STRATEGIES."""

    s1_pu_prune: bool = True
    s2_initial_filter: bool = True
    s3_probability_bound: bool = True
    s4_remaining_utility_bound: bool = True
    s5_empty_or_lowpro_skip: bool = True
    s6_eucp: bool = True

    @property
    def preset(self) -> str:
        """The name of the preset with exactly these flags, else 'custom'."""
        return _PRESET_OF.get(_flags(self), "custom")

    @classmethod
    def from_preset(cls, name: str) -> "MiningConfig":
        try:
            flags = PRESETS[name.upper()]
        except KeyError:
            raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
        return cls(*flags)

    @classmethod
    def from_strategies(cls, names: list[str]) -> "MiningConfig":
        """Config with exactly the named strategies enabled, e.g. ['s1', 's3']."""
        bad = [n for n in names if n.lower() not in STRATEGIES]
        if bad:
            raise ValueError(f"unknown strategies {bad}; expected subset of {list(STRATEGIES)}")
        on = {n.lower() for n in names}
        return cls(*(s in on for s in STRATEGIES))


# The strategies' names, s1 to s6, read from MiningConfig's flags
STRATEGIES = tuple(f.name.partition("_")[0] for f in fields(MiningConfig))
_flags = attrgetter(*(f.name for f in fields(MiningConfig)))

# Preset -> its flags, one per strategy
PRESETS: dict[str, tuple[bool, ...]] = {
    name: tuple(s in on for s in STRATEGIES) for name, on in [
        ("NONE", ()),
        ("P12", ("s1", "s2")),
        ("P123", ("s1", "s2", "s3")),
        ("P1234", ("s1", "s2", "s3", "s4")),
        ("ALL", ("s1", "s2", "s3", "s4", "s5", "s6")),
    ]
}
_PRESET_OF = {flags: name for name, flags in PRESETS.items()}


@dataclass
class MiningStats:
    """Instrumentation for one mining run. The four phase times add up
    to elapsed, apart from a few statements between them."""

    # the fields that hold seconds
    TIMES: ClassVar[tuple[str, ...]] = ("elapsed", "check_s", "scan_s", "lists_s", "search_s")

    preset: str = ""
    min_util: float = 0.0
    min_pro: float = 0.0
    visited_nodes: int = 0
    joins_attempted: int = 0
    joins_abandoned: int = 0
    eucs_skips: int = 0
    s3_cuts: int = 0
    s4_cuts: int = 0
    s5_skips: int = 0
    phuis_found: int = 0
    tids_in: int = 0  # len(Py) + len(Pz) per attempted join
    tids_out: int = 0  # len(Pyz) per join not abandoned, s5's skips included
    elapsed: float = 0.0
    check_s: float = 0.0  # check_utilities, which forms the utility column
    scan_s: float = 0.0  # initial_scan
    lists_s: float = 0.0  # processing order, EUCS and root lists
    search_s: float = 0.0  # search


def initial_scan(
    db: UncertainDatabase,
    utilities: list[float],
    thresholds: Thresholds,
    *,
    apply_filter: bool = True,
) -> dict[Item, float]:
    """First database pass: {item: rtwu} for the surviving items.

    With the filter on (s2), an item survives only if its expected
    support reaches min_pro * |D| and its rtwu reaches min_util; with it
    off every occurring item survives. utilities is the database's
    utility column, db.utilities(table). The walk reads the columns
    transaction by transaction: rtu adds the positive utilities in row
    order, rtwu and the probabilities are added per item in tid order.
    """
    acc: dict[Item, list[float]] = {i: [0.0, 0.0] for i in sorted(db.item_universe)}
    us = iter(utilities)
    rows = zip(db.items, db.probabilities)
    for n in db.sizes:
        rtu = 0.0
        for u in islice(us, n):
            if u > 0.0:
                rtu += u
        for item, probability in islice(rows, n):
            a = acc[item]
            a[0] += rtu
            a[1] += probability
    if not apply_filter:
        return {i: rtwu for i, (rtwu, _pro) in acc.items()}
    bound = thresholds.probability_bound(db.size)
    return {
        i: rtwu
        for i, (rtwu, pro) in acc.items()
        if pro >= bound and rtwu >= thresholds.min_util
    }


def search(
    db: UncertainDatabase,
    utilities: list[float],
    extensions: list[PUList],
    thresholds: Thresholds,
    config: MiningConfig,
    eucs: EUCS | None,
    stats: MiningStats,
    out: list[MinedPattern],
) -> None:
    """Depth-first exploration of the subtrees under sibling extensions,
    which share all but their last item.

    Every extension examined counts as a visited node. A node is emitted
    when both of its exact measures reach their bounds; it is extended
    unless s3/s4 rule the whole subtree out. Joined child lists with no
    supporting transaction are always discarded (they cannot describe a
    pattern of the database). eucs is read only with s6 on, once per Py
    for all of its later siblings (EUCS.partners); mine() passes None
    otherwise. db is the database the root lists were built from; the
    probability bound is thresholds.probability_bound(db.size).

    The flags, bounds, EUCS lookup and counters are bound once here, in
    one frame; the recursion runs in the nested visit(), and the
    counters are added to stats once, when the whole tree is done.
    Emitted patterns are not counted here: mine() sets phuis_found to
    len(out). The last of a set of siblings has no later sibling to join
    with, so it is emitted and counted but sets up no join. Every join
    calls this module's construct, looked up at call time, with Py and Pz
    as its positional arguments, so a wrapper set on miner.construct sees
    each one.

    Only here is a Py told long or short. A Py of at least
    NARROW_MIN_LEN tids first weighs, against its partners (the later
    siblings that s6 keeps), one walk over its transactions in db
    (pulist.walk_pays). If it walks, the walk reads db's columns and
    row offsets (db.bounds) and builds every child at once
    (pulist.walk_children), each join is given its partner's child, and
    the children that s5 keeps get their rpu column from their partners
    (pulist.gather_rpu). If not, the tids it shares with each sparse
    long partner are found at once (pulist.find_shared), and each of
    those joins is given its partner's. A shorter Py's joins merge as
    they are. utilities is db.utilities(table), as check_utilities
    formed it for mine() and the root lists.

    tids_in adds len(Py) + len(Pz) over the joins attempted, and
    tids_out len(Pyz) over the joins not abandoned, whichever way each
    was built. Both are counted per join: a C-level sum over a Py's
    partners costs more than one addition per join until a Py has about
    eight of them, and most Pys have fewer.
    """
    min_util = thresholds.min_util
    pro_bound = thresholds.probability_bound(db.size)
    s1 = config.s1_pu_prune
    s3 = config.s3_probability_bound
    s4 = config.s4_remaining_utility_bound
    s5 = config.s5_empty_or_lowpro_skip
    s6 = config.s6_eucp
    s6_partners = eucs.partners if s6 else None
    emit = out.append
    # tuple.__new__ makes the named tuples without their Python-level
    # __new__, a cost paid once per emission
    new = tuple.__new__
    # pairs counts the (Py, Pz) sibling pairs of every extended Py; the
    # joins attempted are the pairs that s6 does not skip
    visited = pairs = skipped = abandoned = low_pro = s3_cuts = s4_cuts = 0
    tids_in = tids_out = 0

    def visit(extensions: list[PUList]) -> None:
        nonlocal visited, pairs, skipped, abandoned, low_pro, s3_cuts, s4_cuts
        nonlocal tids_in, tids_out
        visited += len(extensions)
        last = len(extensions) - 1
        for idx, py in enumerate(extensions):
            sum_pro = py.sum_pro
            utility = py.sum_pu + py.sum_nu
            if sum_pro >= pro_bound and utility >= min_util:
                emit(new(MinedPattern,
                         (new(Pattern, (tuple(sorted(py.pattern_po)),)), utility, sum_pro)))

            if s3 and not sum_pro >= pro_bound:
                s3_cuts += 1
                continue
            if s4 and not py.sum_pu + py.sum_rpu >= min_util:
                s4_cuts += 1
                continue
            if idx == last:
                break

            partners = extensions[idx + 1:]
            pairs += len(partners)
            if s6:
                kept = s6_partners(py.pattern_po[-1], partners, min_util)
                skipped += len(partners) - len(kept)
                partners = kept
            y_len = len(py.tids)
            cuts = walked = None
            if y_len >= NARROW_MIN_LEN:
                if walk_pays(py, partners, db):
                    cuts = walked = walk_children(py, partners, db, utilities)
                else:
                    cuts = find_shared(py, partners)
            children: list[PUList] = []
            for pz in partners:
                tids_in += y_len + len(pz.tids)
                pyz = construct(
                    py, pz,
                    min_util=min_util, pro_bound=pro_bound, la_prune=s1,
                    shared=cuts.get(pz.pattern_po[-1]) if cuts else None,
                )
                if pyz is None:
                    abandoned += 1
                    continue
                if not pyz.tids:
                    continue
                tids_out += len(pyz.tids)
                if s5 and not pyz.sum_pro >= pro_bound:
                    low_pro += 1
                    continue
                children.append(pyz)
            if children:
                if walked:
                    gather_rpu(children, partners)
                visit(children)

    try:
        visit(extensions)
    finally:
        # visit holds itself in its closure; dropping the name breaks
        # that cycle, so out and the EUCS are freed by reference counting
        # and not left for a later collection
        del visit
    stats.visited_nodes += visited
    stats.joins_attempted += pairs - skipped
    stats.joins_abandoned += abandoned
    stats.eucs_skips += skipped
    stats.s3_cuts += s3_cuts
    stats.s4_cuts += s4_cuts
    stats.s5_skips += low_pro
    stats.tids_in += tids_in
    stats.tids_out += tids_out


def mine(
    db: UncertainDatabase,
    table: UtilityTable,
    thresholds: Thresholds,
    config: MiningConfig | None = None,
) -> tuple[list[MinedPattern], MiningStats]:
    """Mine the complete set of qualifying patterns.

    Returns the patterns (each with exact utility and expected support)
    in depth-first discovery order, plus the per-run stats. The config
    only changes counters and runtime, never the result set. Raises
    DatabaseValidationError as check_utilities does.
    """
    started = time.perf_counter()
    utilities = check_utilities(db, table)
    checked = time.perf_counter()
    if config is None:
        config = MiningConfig.from_preset("ALL")

    stats = MiningStats(
        preset=config.preset,
        min_util=thresholds.min_util,
        min_pro=thresholds.min_pro,
    )

    rtwu = initial_scan(db, utilities, thresholds, apply_filter=config.s2_initial_filter)
    scanned = listed = time.perf_counter()
    out: list[MinedPattern] = []
    if rtwu:
        order = compute_processing_order(table, rtwu)
        eucs = EUCS.zeros(order) if config.s6_eucp else None
        roots = build_initial_pulists(db, utilities, order, eucs)
        listed = time.perf_counter()
        search(db, utilities, roots, thresholds, config, eucs, stats, out)
    searched = time.perf_counter()
    stats.phuis_found = len(out)

    stats.elapsed = time.perf_counter() - started
    stats.check_s = checked - started
    stats.scan_s = scanned - checked
    stats.lists_s = listed - scanned
    stats.search_s = searched - listed
    return out, stats


__all__ = [
    "MiningConfig",
    "MiningStats",
    "PRESETS",
    "STRATEGIES",
    "initial_scan",
    "mine",
    "search",
]
