"""The names that code outside the package relies on: every exported
name, the miner globals that perfbench's traced runs replace with timing
wrappers (perfbench/spans.py), and len() of a list, with which those
runs count the tids each join reads and keeps."""

import importlib
import pkgutil

import pytest

import phuimine
from phuimine import miner
from phuimine.pulist import PUList

from helpers import EXAMPLE_PHUIS, _unpruned_roots, results_map

MODULES = ["phuimine"] + [
    f"phuimine.{info.name}" for info in pkgutil.iter_modules(phuimine.__path__)
]

# patched on miner by name, so mine() must look each one up at call time
TRACED_MINER_GLOBALS = [
    "initial_scan",
    "compute_processing_order",
    "build_initial_pulists",
    "search",
    "construct",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_traced_miner_globals_are_called_through_the_module(ex_db, ex_table, monkeypatch):
    calls = {name: [] for name in TRACED_MINER_GLOBALS}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name].append((args, result))
            return result
        return wrapper

    for name in TRACED_MINER_GLOBALS:
        monkeypatch.setattr(miner, name, recording(name, getattr(miner, name)))
    found, _stats = miner.mine(ex_db, ex_table, phuimine.Thresholds(20, 0.25))

    assert results_map(found).keys() == EXAMPLE_PHUIS.keys()
    assert all(calls[name] for name in TRACED_MINER_GLOBALS)
    for args, result in calls["construct"]:
        # the joined lists are the last two positional arguments
        py, pz = args[-2:]
        assert isinstance(py, PUList) and isinstance(pz, PUList)
        assert result is None or len(result) <= min(len(py), len(pz))


def test_len_of_a_list_counts_its_tids(ex_db, ex_table):
    _order, roots = _unpruned_roots(ex_db, ex_table)
    assert [len(root) for root in roots] == [len(root.tids) for root in roots]
    assert sum(map(len, roots)) == sum(len(tx.rows) for tx in ex_db.transactions)
    assert len(PUList((1,))) == 0
