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
    """Instrumentation for one mining run."""

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
    elapsed: float = 0.0  # seconds


def initial_scan(
    db: UncertainDatabase,
    table: UtilityTable,
    thresholds: Thresholds,
    *,
    apply_filter: bool = True,
    utilities: list[float] | None = None,
) -> dict[Item, float]:
    """First database pass: {item: rtwu} for the surviving items.

    With the filter on (s2), an item survives only if its expected
    support reaches min_pro * |D| and its rtwu reaches min_util; with it
    off every occurring item survives. utilities is db.utilities(table),
    formed here unless given. The walk reads the columns transaction by
    transaction: rtu adds the positive utilities in row order, rtwu and
    the probabilities are added per item in tid order.
    """
    if utilities is None:
        utilities = db.utilities(table)
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
    extensions: list[PUList],
    thresholds: Thresholds,
    pro_bound: float,
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
    pattern of the database). eucs is read only with s6 on; mine()
    passes None otherwise.

    The flags, bounds, EUCS lookup and counters are bound once here, in
    one frame; the recursion runs in the nested visit(), and the
    counters are added to stats once, when the whole tree is done.
    Emitted patterns are not counted here: mine() sets phuis_found to
    len(out). The last of a set of siblings has no later sibling to join
    with, so it is emitted and counted but sets up no join. Every join
    calls this module's construct, looked up at call time, with Py and Pz
    as its positional arguments, so a wrapper set on miner.construct sees
    each one.
    """
    min_util = thresholds.min_util
    s1 = config.s1_pu_prune
    s3 = config.s3_probability_bound
    s4 = config.s4_remaining_utility_bound
    s5 = config.s5_empty_or_lowpro_skip
    s6 = config.s6_eucp
    pair = eucs.pair if s6 else None
    emit = out.append
    # tuple.__new__ makes the named tuples without their Python-level
    # __new__, a cost paid once per emission
    new = tuple.__new__
    # pairs counts the (Py, Pz) sibling pairs of every extended Py; the
    # joins attempted are the pairs that s6 does not skip
    visited = pairs = skipped = abandoned = low_pro = s3_cuts = s4_cuts = 0

    def visit(extensions: list[PUList]) -> None:
        nonlocal visited, pairs, skipped, abandoned, low_pro, s3_cuts, s4_cuts
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

            y = py.pattern_po[-1]
            # Py's tid set, built at Py's first join of two long lists
            # and shared by the rest; construct narrows long sparse joins
            # with it (see pulist.NARROW_MIN_LEN)
            long_py = len(py.tids) >= NARROW_MIN_LEN
            py_tids = None
            pairs += last - idx
            children: list[PUList] = []
            for pz in extensions[idx + 1:]:
                if s6 and pair(y, pz.pattern_po[-1]) < min_util:
                    skipped += 1
                    continue
                if long_py and py_tids is None and len(pz.tids) >= NARROW_MIN_LEN:
                    py_tids = set(py.tids)
                pyz = construct(
                    py, pz,
                    min_util=min_util, pro_bound=pro_bound,
                    la_prune=s1, py_tids=py_tids,
                )
                if pyz is None:
                    abandoned += 1
                    continue
                if not pyz.tids:
                    continue
                if s5 and not pyz.sum_pro >= pro_bound:
                    low_pro += 1
                    continue
                children.append(pyz)
            if children:
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
    check_utilities(db, table)
    if config is None:
        config = MiningConfig.from_preset("ALL")

    stats = MiningStats(
        preset=config.preset,
        min_util=thresholds.min_util,
        min_pro=thresholds.min_pro,
    )
    started = time.perf_counter()

    utilities = db.utilities(table)
    rtwu = initial_scan(db, table, thresholds, apply_filter=config.s2_initial_filter,
                        utilities=utilities)
    pro_bound = thresholds.probability_bound(db.size)
    out: list[MinedPattern] = []
    if rtwu:
        order = compute_processing_order(table, rtwu)
        eucs = EUCS.zeros(order) if config.s6_eucp else None
        roots = build_initial_pulists(db, table, order, eucs, utilities=utilities)
        search(roots, thresholds, pro_bound, config, eucs, stats, out)
    stats.phuis_found = len(out)

    stats.elapsed = time.perf_counter() - started
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
