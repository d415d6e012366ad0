import pytest

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
        generate(GenParams(n_transactions=10, n_items=5, quantity_range=(2, 5)))


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
