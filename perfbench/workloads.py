"""Workload definitions and input generation for the phuimine benchmark.

A generator workload mines one fixed dataset, `datagen.generate` of the
workload's default seed. `--seed` draws the order of its transactions,
so every seed gives other input files but the same mining problem: the
same tree, the same joins of the same lengths and the same patterns. A
seed that redrew the data instead would change the work itself: on
dense-deep, seeds 1 to 5 gave 104k to 140k joins, on top of host speed
swings of up to 1.6x.

fuzz-verify runs `verify.make_fuzz_case` for the fuzz seeds 0 to
fuzz_cases - 1, in an order drawn from `--seed`. A window of fuzz seeds
picked by `--seed` would change the work too: one case in ten costs ten
times the median one, and the sweep time of 200-case windows varied by
a quarter.

Sizes are fixed so that one pass of every workload takes one to four
seconds and a run repeats it several times: see README.md for what each
workload stands for.
"""

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def add_sources_to_path():
    """Put the checkout's `src` on the path.

    Raises SystemExit(2) when the checkout holds no phuimine sources, so
    the benchmark never reports a result it did not measure."""
    if not (SRC / "phuimine" / "__init__.py").is_file():
        print(f"perfbench: no phuimine sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    # generator workloads: datagen.GenParams fields and the thresholds
    n_transactions: int = 0
    n_items: int = 0
    avg_tx_len: float = 0.0
    max_tx_len: int = 0
    min_util: float = 0.0
    min_pro: float = 0.0
    # fuzz workload: make_fuzz_case seeds 0 .. fuzz_cases - 1
    fuzz_cases: int = 0

    @property
    def is_fuzz(self) -> bool:
        return self.fuzz_cases > 0


C7 = dict(n_items=100, avg_tx_len=5.0, max_tx_len=10, min_pro=0.001, default_seed=20260810)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("c7-wide", n_transactions=20_000, min_util=4e4, **C7),
        Workload("c7-scan", n_transactions=50_000, min_util=1e6, **C7),
        Workload("dense-deep", default_seed=7, n_transactions=500, n_items=24,
                 avg_tx_len=12.0, max_tx_len=20, min_util=2.5e4, min_pro=0.001),
        Workload("fuzz-verify", default_seed=0, fuzz_cases=60),
    )
}


def dataset(w: Workload):
    """(db, table) of a generator workload: its default seed's dataset."""
    from phuimine import datagen

    return datagen.generate(datagen.GenParams(
        n_transactions=w.n_transactions, n_items=w.n_items, avg_tx_len=w.avg_tx_len,
        max_tx_len=w.max_tx_len, negative_fraction=0.2, seed=w.default_seed))


def shuffle(db, seed: int):
    """`db` with its transactions in an order drawn from `seed`."""
    from phuimine.model import Transaction, make_database

    rows = list(db.transactions)
    random.Random(seed).shuffle(rows)
    return make_database(Transaction(tid, tx.entries) for tid, tx in enumerate(rows, start=1))


def fuzz_seeds(w: Workload, seed: int) -> list[int]:
    """The fuzz seeds of fuzz-verify in the order drawn from `seed`."""
    order = list(range(w.fuzz_cases))
    random.Random(seed).shuffle(order)
    return order


def thresholds(w: Workload):
    from phuimine.model import Thresholds

    return Thresholds(w.min_util, w.min_pro)
