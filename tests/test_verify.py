import pytest

from phuimine import oracle
from phuimine.miner import mine
from phuimine.model import MinedPattern, Pattern
from phuimine.verify import PRO_REL_TOL, Divergence, compare_results, run_fuzz


def mp(items, utility, expected_support):
    return MinedPattern(Pattern(tuple(items)), utility, expected_support)


BASE = [mp((1,), 10.0, 1.5), mp((2,), 4.0, 0.75), mp((1, 2), 14.0, 0.5)]


class TestCompareResults:
    def test_equal_sets_agree_in_any_order(self):
        assert compare_results("a", BASE, "b", list(reversed(BASE))) is None
        assert compare_results("a", [], "b", []) is None

    def test_missing_from_first(self):
        diff = compare_results("oracle", BASE[:2], "ALL", BASE)
        assert diff == Divergence("oracle", "ALL", Pattern((1, 2)), "missing from oracle")
        assert str(diff) == "oracle vs ALL: pattern {1 2}: missing from oracle"

    def test_missing_from_second(self):
        diff = compare_results("oracle", BASE, "ALL", BASE[1:])
        assert diff == Divergence("oracle", "ALL", Pattern((1,)), "missing from ALL")

    def test_utility_differs(self):
        other = [BASE[0], mp((2,), 4.000000000000001, 0.75), BASE[2]]
        diff = compare_results("oracle", BASE, "P12", other)
        assert diff == Divergence("oracle", "P12", Pattern((2,)),
                                  "utility 4.0 != 4.000000000000001")

    def test_probability_just_inside_tolerance(self):
        p = 0.5 * (1.0 + 0.5 * PRO_REL_TOL)
        other = [BASE[0], BASE[1], mp((1, 2), 14.0, p)]
        assert compare_results("oracle", BASE, "ALL", other) is None

    def test_probability_just_outside_tolerance(self):
        p = 0.5 * (1.0 + 2.0 * PRO_REL_TOL)
        other = [BASE[0], BASE[1], mp((1, 2), 14.0, p)]
        diff = compare_results("oracle", BASE, "ALL", other)
        assert diff == Divergence("oracle", "ALL", Pattern((1, 2)),
                                  f"expected support 0.5 != {p}")

    def test_shortest_then_lowest_id_reported_first(self):
        a = [mp((3,), 1.0, 1.0), mp((1, 2), 2.0, 1.0), mp((2, 4), 3.0, 1.0),
             mp((1, 2, 3), 4.0, 1.0)]
        # (1, 2, 3) and (2, 4) missing from b, (1, 2) has another utility,
        # (5,) and (2, 3) are extra in b; the divergence at length 1 wins
        b = [mp((3,), 1.0, 1.0), mp((1, 2), 2.5, 1.0), mp((5,), 1.0, 1.0),
             mp((2, 3), 1.0, 1.0)]
        assert compare_results("x", a, "y", b) == Divergence(
            "x", "y", Pattern((5,)), "missing from x")
        # without (5,): the lowest ids among the length-2 divergences
        b = b[:2] + b[3:]
        assert compare_results("x", a, "y", b) == Divergence(
            "x", "y", Pattern((1, 2)), "utility 2.0 != 2.5")
        b = [mp((3,), 1.0, 1.0), mp((1, 2), 2.0, 1.0), mp((2, 3), 1.0, 1.0)]
        assert compare_results("x", a, "y", b) == Divergence(
            "x", "y", Pattern((2, 3)), "missing from x")

    def test_same_count_different_members(self):
        other = [BASE[0], BASE[1], mp((1, 3), 14.0, 0.5)]
        assert compare_results("a", BASE, "b", other) == Divergence(
            "a", "b", Pattern((1, 2)), "missing from b")

    @pytest.mark.parametrize("first", [
        mp((1, 2), 3.0, 0.5),  # the same record twice
        mp((1, 2), 4.0, 0.5),  # two records of one pattern, the last one right
    ])
    def test_repeated_pattern_diverges(self, first):
        m = mp((1, 2), 3.0, 0.5)
        twice = Divergence("a", "b", Pattern((1, 2)), "listed 2 times in a")
        assert compare_results("a", [first, m], "b", [m]) == twice
        # both sides repeat it alike, so their dicts are equal
        assert compare_results("a", [first, m], "b", [first, m]) == twice
        assert compare_results("b", [m], "a", [first, m]) == Divergence(
            "b", "a", Pattern((1, 2)), "listed 2 times in a")

    def test_repeat_reported_in_length_then_id_order(self):
        m1, m12 = mp((1,), 1.0, 1.0), mp((1, 2), 3.0, 0.5)
        # the repeated (1, 2) is longer than the missing (3,)
        assert compare_results("a", [m1, m12, m12], "b", [m1, m12, mp((3,), 1.0, 1.0)]) == \
            Divergence("a", "b", Pattern((3,)), "missing from a")
        assert compare_results("a", [m1, m12, m12, m1], "b", [m1, m12]) == \
            Divergence("a", "b", Pattern((1,)), "listed 2 times in a")


def _drop_last(results):
    return results[:-1]


def _bump_last_utility(results):
    *rest, last = results
    return rest + [MinedPattern(last.pattern, last.utility + 1.0, last.expected_support)]


class TestRunFuzz:
    def test_enumerates_each_case_once(self, monkeypatch):
        calls = []
        enumerate_supported = oracle.enumerate_supported

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_supported(*args, **kwargs)

        monkeypatch.setattr(oracle, "enumerate_supported", counted)
        assert run_fuzz(6, seed=3) is None
        assert len(calls) == 6

    @pytest.mark.parametrize("breakage, detail", [
        (_drop_last, "missing from NONE"),
        (_bump_last_utility, "utility "),
    ], ids=["dropped-pattern", "wrong-utility"])
    def test_broken_miner_is_caught(self, breakage, detail):
        def broken_mine(db, table, thresholds, config=None):
            results, stats = mine(db, table, thresholds, config)
            return (breakage(results) if results else results), stats

        diff = run_fuzz(5, mine_fn=broken_mine)
        assert diff is not None and diff.label_b == "NONE"
        assert diff.detail.startswith(detail)
