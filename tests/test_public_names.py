"""The names that code outside the package relies on: every exported
name, the module attributes that perfbench's traced runs replace with
timing wrappers (perfbench/spans.py) and its set-up replaces to time
generation, and len() of a list, with which those runs count the tids
each join reads and keeps. A caller that imported one of the replaced
functions by name would bypass its wrapper, and its metric would read
0 without an error."""

import importlib
import pkgutil

import pytest

import phuimine
from phuimine import cli, dataio, miner, oracle, verify
from phuimine.pulist import PUList

from helpers import (EXAMPLE_DB_TEXT, EXAMPLE_PHUIS, EXAMPLE_PTABLE_TEXT, _unpruned_roots,
                     results_map)

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

# looked up on their module at call time by the functions that call them
TRACED_CALLED_THROUGH = [
    (oracle, "brute_force_mine"),  # by verify.check_instance
    (verify, "compare_results"),  # by verify.check_against
    (verify, "generate_small"),  # by verify.make_fuzz_case
]


def _recording(calls: dict, name: str, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls[name].append((args, result))
        return result
    return wrapper


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_traced_miner_globals_are_called_through_the_module(ex_db, ex_table, monkeypatch):
    calls = {name: [] for name in TRACED_MINER_GLOBALS}
    for name in TRACED_MINER_GLOBALS:
        monkeypatch.setattr(miner, name, _recording(calls, name, getattr(miner, name)))
    found, _stats = miner.mine(ex_db, ex_table, phuimine.Thresholds(20, 0.25))

    assert results_map(found).keys() == EXAMPLE_PHUIS.keys()
    assert all(calls[name] for name in TRACED_MINER_GLOBALS)
    for args, result in calls["construct"]:
        # the joined lists are the last two positional arguments
        py, pz = args[-2:]
        assert isinstance(py, PUList) and isinstance(pz, PUList)
        assert result is None or len(result) <= min(len(py), len(pz))


def test_traced_verify_and_oracle_names_are_called_through_the_module(ex_db, ex_table,
                                                                      monkeypatch):
    calls = {name: [] for _module, name in TRACED_CALLED_THROUGH}
    for module, name in TRACED_CALLED_THROUGH:
        monkeypatch.setattr(module, name, _recording(calls, name, getattr(module, name)))
    assert verify.check_instance(ex_db, ex_table, phuimine.Thresholds(20, 0.25)) is None
    verify.make_fuzz_case(0)

    assert [name for name, made in calls.items() if not made] == []
    assert len(calls["compare_results"]) == len(verify.PRESET_SEQUENCE)


def test_traced_dataio_names_are_called_through_the_module(tmp_path, monkeypatch, capsys):
    # perfbench's measured pass calls these on dataio; so does the CLI
    names = ["parse_database", "parse_ptable", "serialize_results"]
    calls = {name: [] for name in names}
    for name in names:
        monkeypatch.setattr(dataio, name, _recording(calls, name, getattr(dataio, name)))
    (tmp_path / "x.db").write_text(EXAMPLE_DB_TEXT)
    (tmp_path / "x.ptable").write_text(EXAMPLE_PTABLE_TEXT)
    assert cli.main(["mine", "--db", str(tmp_path / "x.db"), "--ptable",
                     str(tmp_path / "x.ptable"), "--min-util", "20", "--min-pro", "0.25"]) == 0

    assert [name for name, made in calls.items() if not made] == []
    assert len(capsys.readouterr().out.splitlines()) == len(EXAMPLE_PHUIS)


def test_len_of_a_list_counts_its_tids(ex_db, ex_table):
    _order, roots = _unpruned_roots(ex_db, ex_table)
    assert [len(root) for root in roots] == [len(root.tids) for root in roots]
    assert sum(map(len, roots)) == sum(len(tx.rows) for tx in ex_db.transactions)
    assert len(PUList((1,))) == 0
