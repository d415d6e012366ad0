"""One-phase depth-first miner over the set-enumeration tree.

The miner scans the database once for per-item bounds and once more to
build the single-item lists (and, for s6, the item-pair matrix) in the
same walk; those lists are the roots of a recursive search.
Each candidate's exact utility and expected support come straight from
its list's column sums, so qualifying patterns are emitted without a
verification pass.

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
from dataclasses import dataclass

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
    s1_pu_prune: bool = True
    s2_initial_filter: bool = True
    s3_probability_bound: bool = True
    s4_remaining_utility_bound: bool = True
    s5_empty_or_lowpro_skip: bool = True
    s6_eucp: bool = True
    preset: str | None = None

    @classmethod
    def from_preset(cls, name: str) -> "MiningConfig":
        try:
            flags = PRESETS[name.upper()]
        except KeyError:
            raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
        return cls(*flags, preset=name.upper())

    @classmethod
    def from_strategies(cls, names: list[str]) -> "MiningConfig":
        """Config with exactly the named strategies enabled, e.g. ['s1', 's3']."""
        known = {"s1", "s2", "s3", "s4", "s5", "s6"}
        bad = [n for n in names if n.lower() not in known]
        if bad:
            raise ValueError(f"unknown strategies {bad}; expected subset of {sorted(known)}")
        on = {n.lower() for n in names}
        return cls(
            "s1" in on, "s2" in on, "s3" in on, "s4" in on, "s5" in on, "s6" in on,
            preset=None,
        )


# Preset -> (s1, s2, s3, s4, s5, s6)
PRESETS: dict[str, tuple[bool, bool, bool, bool, bool, bool]] = {
    "NONE": (False, False, False, False, False, False),
    "P12": (True, True, False, False, False, False),
    "P123": (True, True, True, False, False, False),
    "P1234": (True, True, True, True, False, False),
    "ALL": (True, True, True, True, True, True),
}


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
) -> dict[Item, float]:
    """First database pass: {item: rtwu} for the surviving items.

    With the filter on (s2), an item survives only if its expected
    support reaches min_pro * |D| and its rtwu reaches min_util; with it
    off every occurring item survives.
    """
    acc: dict[Item, list[float]] = {i: [0.0, 0.0] for i in sorted(db.item_universe)}
    for tx in db.transactions:
        rtu = 0.0
        for item, quantity, _probability in tx.rows:
            u = table.unit_utility(item) * quantity
            if u > 0.0:
                rtu += u
        for item, _quantity, probability in tx.rows:
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
    """Depth-first exploration of sibling extensions, which share all
    but their last item.

    Every extension examined here counts as a visited node. A node is
    emitted when both of its exact measures reach their bounds; it is
    extended unless s3/s4 rule the whole subtree out. Joined child
    lists with no supporting transaction are always discarded (they
    cannot describe a pattern of the database). eucs is read only with
    s6 on; mine() passes None otherwise.

    Each call adds its work to stats once per Py (joins, abandons, s5
    and s6 counts) or once per call (visited nodes); emitted patterns
    are not counted here: mine() sets phuis_found to len(out).
    """
    min_util = thresholds.min_util
    s1 = config.s1_pu_prune
    s3 = config.s3_probability_bound
    s4 = config.s4_remaining_utility_bound
    s5 = config.s5_empty_or_lowpro_skip
    s6 = config.s6_eucp
    stats.visited_nodes += len(extensions)
    for idx, py in enumerate(extensions):
        sum_pro = py.sum_pro
        utility = py.sum_pu + py.sum_nu
        if sum_pro >= pro_bound and utility >= min_util:
            # Pattern.of without its call: this runs once per emission
            out.append(MinedPattern(Pattern(tuple(sorted(py.pattern_po))), utility, sum_pro))

        if s3 and not sum_pro >= pro_bound:
            stats.s3_cuts += 1
            continue
        if s4 and not py.sum_pu + py.sum_rpu >= min_util:
            stats.s4_cuts += 1
            continue

        y = py.pattern_po[-1]
        # Py's tid set, built at Py's first join of two long lists and
        # shared by the rest; construct narrows long sparse joins with
        # it (see pulist.NARROW_MIN_LEN)
        long_py = len(py.tids) >= NARROW_MIN_LEN
        py_tids = None
        siblings = extensions[idx + 1:]
        skipped = abandoned = low_pro = 0
        children: list[PUList] = []
        for pz in siblings:
            if s6 and eucs.pair(y, pz.pattern_po[-1]) < min_util:
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
        stats.eucs_skips += skipped
        stats.joins_attempted += len(siblings) - skipped
        stats.joins_abandoned += abandoned
        stats.s5_skips += low_pro
        if children:
            search(children, thresholds, pro_bound, config, eucs, stats, out)


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
        preset=config.preset or "custom",
        min_util=thresholds.min_util,
        min_pro=thresholds.min_pro,
    )
    started = time.perf_counter()

    rtwu = initial_scan(db, table, thresholds, apply_filter=config.s2_initial_filter)
    pro_bound = thresholds.probability_bound(db.size)
    out: list[MinedPattern] = []
    if rtwu:
        order = compute_processing_order(table, rtwu)
        eucs = EUCS.zeros(order) if config.s6_eucp else None
        roots = build_initial_pulists(db, table, order, eucs)
        search(roots, thresholds, pro_bound, config, eucs, stats, out)
    stats.phuis_found = len(out)

    stats.elapsed = time.perf_counter() - started
    return out, stats


__all__ = [
    "MiningConfig",
    "MiningStats",
    "PRESETS",
    "initial_scan",
    "mine",
    "search",
]
