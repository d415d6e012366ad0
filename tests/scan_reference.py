"""Reference construction of a pattern's PUList by a direct scan of the
transactions, independent of the join and of build_initial_pulists.

The test suite compares every list the miner builds against it, column
by column and sum by sum, so its arithmetic follows the miner's order:
utilities and probabilities are combined in processing order, rpu adds
the following positive utilities from the last back to the first, and
the column sums accumulate in tid order from 0.0. Explicit loops,
because builtin sum() of floats is compensated from Python 3.12 on and
would round differently.
"""

from typing import Sequence

from phuimine.model import Item, UncertainDatabase, UtilityTable
from phuimine.pulist import ProcessingOrder, PUList


def append_entry(pul: PUList, tid: int, pro: float, pu: float, nu: float,
                 rpu: float, iu: float, ip: float) -> None:
    """Add one entry at the end of every column and to the four sums."""
    pul.tids.append(tid)
    pul.pro.append(pro)
    pul.pu.append(pu)
    pul.nu.append(nu)
    pul.rpu.append(rpu)
    pul.iu.append(iu)
    pul.ip.append(ip)
    pul.sum_pro += pro
    pul.sum_pu += pu
    pul.sum_nu += nu
    pul.sum_rpu += rpu


def build_pulist_by_scan(
    db: UncertainDatabase,
    table: UtilityTable,
    order: ProcessingOrder,
    pattern_items: Sequence[Item],
) -> PUList:
    """The list of an arbitrary pattern, given in any order and
    normalized to processing order, read from the transactions."""
    rank = order.rank
    units = table.entries
    members = sorted(pattern_items, key=lambda i: rank[i])
    member_set = set(members)
    last_rank = rank[members[-1]]
    out = PUList(tuple(members))
    for tx in db.transactions:
        found = {
            item: (units[item] * quantity, probability)
            for item, quantity, probability in tx.rows
            if item in member_set
        }
        if len(found) != len(member_set):
            continue
        pro = 1.0
        pu = 0.0
        nu = 0.0
        for item in members:
            u, p = found[item]
            pro *= p
            if u >= 0.0:
                pu += u
            else:
                nu += u
        following = sorted(
            (rank[item], units[item] * quantity)
            for item, quantity, _probability in tx.rows
            if item in rank and rank[item] > last_rank
        )
        rpu = 0.0
        for _rank, u in reversed(following):
            if u > 0.0:
                rpu += u
        iu, ip = found[members[-1]]
        append_entry(out, tx.tid, pro, pu, nu, rpu, iu, ip)
    return out
