"""Result checks that do not depend on the package's own measure code.

The miner's result text is parsed here, its format and order checked,
its pattern membership hashed, and a fixed sample of its patterns
re-measured straight from the definitions: a pattern's utility is the
sum, over the transactions holding all its items, of unit utility times
quantity; its expected support is the sum of the products of the items'
probabilities in those transactions.
"""

import hashlib

SAMPLE = 25  # patterns re-measured per result
ABS_TOL = 1e-6  # results print six fractional digits
REL_TOL = 1e-9


def parse_results(text: str) -> list[tuple[tuple[int, ...], float, float]]:
    """`ids #UTIL: u #PROB: p` lines -> [(items, utility, probability)]."""
    rows = []
    for line in text.splitlines():
        head, _, rest = line.partition(" #UTIL: ")
        util, _, prob = rest.partition(" #PROB: ")
        rows.append((tuple(int(t) for t in head.split()), float(util), float(prob)))
    return rows


def membership_digest(rows) -> str:
    h = hashlib.sha256()
    for items, _u, _p in rows:
        h.update((" ".join(map(str, items)) + "\n").encode())
    return h.hexdigest()[:16]


def sample(rows, k: int = SAMPLE):
    """Up to k rows, evenly spaced through the sorted result."""
    if len(rows) <= k:
        return list(rows)
    step = len(rows) / k
    return [rows[int(i * step)] for i in range(k)]


def item_index(db) -> dict[int, set[int]]:
    """item -> positions of the transactions that hold it."""
    index: dict[int, set[int]] = {}
    for pos, tx in enumerate(db.transactions):
        for e in tx.entries:
            index.setdefault(e.item, set()).add(pos)
    return index


def measure(db, table, index, items) -> tuple[float, float]:
    """(utility, expected support) of `items` from the definitions."""
    wanted = set(items)
    utility = 0.0
    support = 0.0
    for pos in sorted(set.intersection(*(index.get(i, set()) for i in wanted))):
        found = [e for e in db.transactions[pos].entries if e.item in wanted]
        prob = 1.0
        for e in found:
            utility += table.entries[e.item] * e.quantity
            prob *= e.probability
        support += prob
    return utility, support


def close(printed: float, exact: float) -> bool:
    return abs(printed - exact) <= ABS_TOL + REL_TOL * abs(exact)


def check_result(text, db, table, thresholds, expected=None):
    """Check one result text; returns (attempted, [problem, ...],
    (pattern count, membership digest) or None if unparsable).

    One check for format and order, one for the recorded membership
    digest and count when `expected` is given, and one per sampled
    pattern (its measures and both threshold tests)."""
    problems = []
    attempted = 1
    try:
        rows = parse_results(text)
    except ValueError as exc:
        return attempted, [f"unparsable result: {exc}"], None
    got = (len(rows), membership_digest(rows))
    keys = [(len(items), items) for items, _u, _p in rows]
    if keys != sorted(set(keys)) or any(list(i) != sorted(set(i)) or not i for i, _u, _p in rows):
        problems.append("result lines not unique and sorted by (length, ids)")
    if expected is not None:
        attempted += 1
        want = (expected["count"], expected["digest"])
        if got != want:
            problems.append(f"membership (count, digest) {got} != recorded {want}")
    bound = thresholds.min_pro * db.size
    index = item_index(db)
    for items, u, p in sample(rows):
        attempted += 1
        exact_u, exact_p = measure(db, table, index, items)
        if not (close(u, exact_u) and close(p, exact_p)):
            problems.append(f"{items}: printed ({u}, {p}) != exact ({exact_u}, {exact_p})")
        elif exact_u < thresholds.min_util - REL_TOL * abs(thresholds.min_util) or exact_p < bound * (1 - REL_TOL):
            problems.append(f"{items}: ({exact_u}, {exact_p}) misses the thresholds")
    return attempted, problems, got
