"""Shared fixtures-in-code for the test suite: the worked five-transaction
example database and the join-vs-scan list cross-check."""

from phuimine.miner import initial_scan
from phuimine.model import Thresholds, UncertainDatabase, UtilityTable
from phuimine.pulist import (
    PUList,
    build_initial_pulists,
    compute_processing_order,
    construct,
)
from phuimine import dataio

from scan_reference import build_pulist_by_scan

# Item ids for the worked example: a..e -> 1..5.
A, B, C, D, E = 1, 2, 3, 4, 5

EXAMPLE_DB_TEXT = """\
1:5:0.6 2:3:0.5 4:2:0.9 5:4:0.8
3:1:0.75 4:1:0.9 5:2:1.0
1:4:1.0 2:3:1.0 3:2:0.7 5:1:0.75
1:3:0.9 3:1:0.9
2:2:1.0 3:4:0.95 4:5:0.6 5:4:1.0
"""

EXAMPLE_PTABLE_TEXT = "1:8 2:5 3:-2 4:12 5:7\n"


def example_db() -> UncertainDatabase:
    return dataio.parse_database(EXAMPLE_DB_TEXT)


def example_table() -> UtilityTable:
    return dataio.parse_ptable(EXAMPLE_PTABLE_TEXT)


# The ten expected results on the example at min_util=20, min_pro=0.25:
# pattern items -> (utility, expected support).
EXAMPLE_PHUIS = {
    (A,): (96.0, 2.50),
    (B,): (40.0, 2.50),
    (D,): (96.0, 2.40),
    (E,): (77.0, 3.55),
    (A, B): (102.0, 1.30),
    (A, C): (50.0, 1.51),
    (B, E): (103.0, 2.15),
    (C, E): (35.0, 2.225),
    (D, E): (166.0, 2.22),
    (B, C, E): (48.0, 1.475),
}


def rel_close(a: float, b: float, rel_tol: float = 1e-9) -> bool:
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def entries_of(pul: PUList) -> list[tuple[int, float, float, float, float]]:
    return list(zip(pul.tids, pul.pro, pul.pu, pul.nu, pul.rpu))


def lists_match(a: PUList, b: PUList) -> bool:
    """Same pattern, and every column and column sum exactly equal."""
    return all(getattr(a, name) == getattr(b, name) for name in PUList.__slots__)


def _unpruned_roots(db, table):
    """Processing order and single-item lists of the full enumeration:
    no s2 filter, every occurring item kept."""
    order = compute_processing_order(
        table, initial_scan(db, db.utilities(table), Thresholds(0.0, 0.0), apply_filter=False))
    return order, build_initial_pulists(db, db.utilities(table), order)


def attempted_joins(db, table):
    """Every join of the full enumeration tree, depth-first: yields
    (py, pz, pyz) with pyz = construct(py, pz) built without
    abandonment; each non-empty pyz is extended in turn."""
    _order, roots = _unpruned_roots(db, table)

    def rec(extensions):
        for i, py in enumerate(extensions):
            children = []
            for pz in extensions[i + 1:]:
                pyz = construct(py, pz)
                yield py, pz, pyz
                if pyz.tids:
                    children.append(pyz)
            if children:
                yield from rec(children)

    yield from rec(roots)


def join_equivalence_walk(db, table):
    """Rebuild every reachable (non-empty) list twice: bottom-up joins
    without s1 abandonment vs a direct scan. Returns mismatching
    patterns (empty list = all equal)."""
    order, roots = _unpruned_roots(db, table)
    joined = [pyz for _py, _pz, pyz in attempted_joins(db, table) if pyz.tids]
    return [
        pul.pattern_po
        for pul in roots + joined
        if not lists_match(pul, build_pulist_by_scan(db, table, order, pul.pattern_po))
    ]


def results_map(results):
    return {m.pattern.items: (m.utility, m.expected_support) for m in results}
