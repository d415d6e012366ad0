import hashlib
import math

import pytest

from phuimine import dataio
from phuimine.datagen import GenParams, generate, generate_small, _SMALL_PROBS
from phuimine.model import check_utilities


def test_same_seed_same_output():
    params = GenParams(n_transactions=200, n_items=30, seed=7)
    assert generate(params) == generate(params)


def test_different_seed_differs():
    a = generate(GenParams(n_transactions=50, n_items=20, seed=1))
    b = generate(GenParams(n_transactions=50, n_items=20, seed=2))
    assert a != b


def test_zero_transactions_gives_empty_db_full_table():
    db, table = generate(GenParams(n_transactions=0, n_items=40, seed=3))
    assert db.size == 0 and db.item_universe == frozenset()
    assert len(table.entries) == 40


def test_negative_item_count_pinned_for_seed_42():
    _db, table = generate(GenParams(n_transactions=10, n_items=100,
                                    negative_fraction=0.2, seed=42))
    negatives = sum(1 for u in table.entries.values() if u < 0)
    assert negatives == 20


def test_output_validates():
    db, table = generate(GenParams(n_transactions=300, n_items=25,
                                   negative_fraction=0.3, seed=11))
    check_utilities(db, table)


def test_value_ranges():
    db, table = generate(GenParams(n_transactions=500, n_items=50,
                                   utility_range=(-400.0, 800.0),
                                   negative_fraction=0.25, seed=5))
    assert all(-400 <= u <= 800 and u == int(u) and u != 0 for u in table.entries.values())
    for tx in db.transactions:
        for e in tx.entries:
            assert 0.0 < e.probability < 1.0
            assert 1 <= e.quantity <= 5


def test_mean_length_within_ten_percent():
    params = GenParams(n_transactions=10_000, n_items=60, avg_tx_len=6.0,
                       max_tx_len=20, seed=9)
    db, _ = generate(params)
    mean = sum(len(tx.entries) for tx in db.transactions) / db.size
    assert abs(mean - 6.0) / 6.0 < 0.10


def test_all_negative_fraction():
    _db, table = generate(GenParams(n_transactions=20, n_items=15,
                                    negative_fraction=1.0, seed=4))
    assert all(u < 0 for u in table.entries.values())


def test_per_item_probability_mode():
    db, _ = generate(GenParams(n_transactions=400, n_items=10, seed=13,
                               per_item_probability=True))
    by_item: dict[int, set[float]] = {}
    for tx in db.transactions:
        for e in tx.entries:
            by_item.setdefault(e.item, set()).add(e.probability)
    assert all(len(ps) == 1 for ps in by_item.values())


def test_param_validation():
    with pytest.raises(ValueError):
        generate(GenParams(n_transactions=10, n_items=0))
    with pytest.raises(ValueError):
        generate(GenParams(n_transactions=10, n_items=5, negative_fraction=2.0))
    with pytest.raises(ValueError):
        generate(GenParams(n_transactions=10, n_items=5, negative_fraction=0.5,
                           utility_range=(10.0, 100.0)))
    with pytest.raises(ValueError):
        generate(GenParams(n_transactions=10, n_items=5, max_quantity=0))


@pytest.mark.parametrize("kwargs, message", [
    (dict(avg_tx_len=math.nan), "transaction lengths"),
    (dict(avg_tx_len=math.inf), "transaction lengths"),
    (dict(utility_range=(-1000.0, math.inf)), "finite"),
    (dict(utility_range=(-math.inf, 1000.0)), "finite"),
    (dict(utility_range=(-1000.0, math.nan), negative_fraction=0.0), "finite"),
    (dict(utility_range=(-0.5, 0.9)), "upper bound"),
    (dict(utility_range=(-0.5, 1000.0)), "lower bound"),
], ids=["nan-avg-len", "inf-avg-len", "inf-hi", "inf-lo", "nan-hi", "hi-below-one",
        "lo-above-minus-one"])
def test_validate_refuses_what_generate_cannot_draw(kwargs, message):
    # checked on the params alone: generate() itself never returns for a
    # NaN avg_tx_len unless validate refuses it
    with pytest.raises(ValueError, match=message):
        GenParams(n_transactions=5, n_items=3, **kwargs).validate()


def test_unit_bounds_of_one():
    _db, table = generate(GenParams(n_transactions=5, n_items=10,
                                    utility_range=(-1.0, 1.0), seed=1))
    assert sorted(table.entries.values()) == [-1.0] * 2 + [1.0] * 8
    # without negative items the lower bound is never read
    GenParams(n_transactions=5, n_items=3, utility_range=(-0.5, 1.0),
              negative_fraction=0.0).validate()


def test_small_generator_validates_and_uses_palette():
    for seed in range(25):
        db, table = generate_small(seed, negative_fraction=0.5)
        check_utilities(db, table)
        assert db.size <= 30 and len(db.item_universe) <= 12
        for tx in db.transactions:
            assert len(tx.entries) <= 10
            for e in tx.entries:
                assert e.probability in _SMALL_PROBS


def test_small_generator_deterministic():
    assert generate_small(123) == generate_small(123)


def _digest(db, table) -> str:
    h = hashlib.sha256(dataio.serialize_database(db).encode())
    h.update(b"\0")
    h.update(dataio.serialize_ptable(table).encode())
    return h.hexdigest()


# sha256 of the serialized database and table: the generators' output
# is part of every benchmark dataset, so it must not drift.
@pytest.mark.parametrize("params, digest", [
    # the C7 family, at 20k transactions
    (GenParams(n_transactions=20_000, n_items=100, avg_tx_len=5.0, max_tx_len=10,
               negative_fraction=0.2, seed=20260810),
     "82fb517cd9a68aa9cef8913957fb54f34470e5d7da604537553a4cc63568cca8"),
    (GenParams(n_transactions=500, n_items=24, avg_tx_len=12.0, max_tx_len=20,
               negative_fraction=0.2, seed=7),
     "29957dd66f0421b926cad8aa1fd6bc9db34c9b3f61f08c9f4e25b7b4da2c369b"),
    (GenParams(n_transactions=200, n_items=30, seed=5, per_item_probability=True,
               utility_range=(-50.0, 300.0)),
     "e18f7e0ce934fcb64f7dbf945455b2480b59ecf94d9deca237eb2fabc8641969"),
    (GenParams(n_transactions=100, n_items=15, seed=11, negative_fraction=0.0),
     "8276f6454ba1fc3bf06bb56233aba05c379f9b9ef24bca111155eb9ac0233138"),
], ids=["c7-20k", "dense", "per-item-probability", "all-positive"])
def test_generate_output_pinned(params, digest):
    assert _digest(*generate(params)) == digest


@pytest.mark.parametrize("seed, kwargs, digest", [
    (0, {}, "8f5738bc44003d20cc668dda41bd9043f0f419c3c494d9a2e41930889b7b69cf"),
    (1, {}, "add9e0b4067bbbfa43f091e7bb9602242534c23815d6cf1175417e5449118905"),
    (7, {}, "7c9bdbfe2b1a695d267b2da384980c9ab3ef2e1f34c9810272956e414bf4a073"),
    (123, {}, "7d4c5546814a3f5af77e806f8b91b428ae25ceb437d7d41e9ee72f0bfff5269c"),
    (42, dict(negative_fraction=0.5, max_items=8, max_transactions=12),
     "1f6a12f22b16fd909200fa2cd8616cc78e50209d68574b7b735771e851eb2f37"),
])
def test_generate_small_output_pinned(seed, kwargs, digest):
    assert _digest(*generate_small(seed, **kwargs)) == digest
