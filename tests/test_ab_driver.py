"""The paired statistics of the same-host A/B driver (``benchmarks/ab.py``)
on fixed numbers."""

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks", "ab.py"
)
_spec = importlib.util.spec_from_file_location("ab_driver", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [10, 11, 12, 13, 14, 10, 11, 12, 13, 14]


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_iqr():
    # Nine pairs 3 lower, one tie: sorted parent 10,10,11,11,12,12,13,13,
    # 14,14 has median 12 and quartiles 11 and 13.
    change = [7, 8, 9, 10, 11, 7, 8, 9, 10, 14]
    stats = ab.paired_stats(PARENT, change, "lower", 0.25)
    assert stats == {
        "parent_median": 12,
        "change_median": 9,
        "delta": -3,
        "wins": 9,
        "losses": 0,
        "pairs": 10,
        "iqr": 2,
        "verdict": "gain",
    }
    assert ab.format_line("eval_resnet", "peak_rss_mb", "MB", stats) == (
        "eval_resnet peak_rss_mb 12.000 → 9.000 MB "
        "(9/10 pairs, parent IQR 2.000): gain"
    )


def test_eight_wins_of_ten_are_no_gain():
    change = [7, 8, 9, 10, 11, 7, 8, 9, 14, 15]
    stats = ab.paired_stats(PARENT, change, "lower", 0.25)
    assert (stats["wins"], stats["losses"]) == (8, 2)
    assert stats["verdict"] == "within bound"


def test_gain_needs_ten_pairs():
    stats = ab.paired_stats(PARENT[:9], [v - 5 for v in PARENT[:9]], "lower", 0.25)
    assert stats["wins"] == 9
    assert stats["verdict"] == "within bound"


def test_a_median_worse_beyond_the_bound_is_worse_in_either_direction():
    stats = ab.paired_stats([100, 100, 100, 100], [90, 91, 92, 93], "higher", 0.06)
    assert (stats["wins"], stats["losses"], stats["iqr"]) == (0, 4, 0)
    assert stats["delta"] == -8.5
    assert stats["verdict"] == "WORSE"
    lower = ab.paired_stats([100, 100], [106, 108], "lower", 0.06)
    assert lower["verdict"] == "WORSE"
    assert ab.paired_stats([100, 100], [105, 105], "lower", 0.06)["verdict"] == (
        "within bound"
    )


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    stats = ab.paired_stats([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], "lower", 0.25)
    assert (stats["wins"], stats["losses"]) == (0, 0)
    assert stats["iqr"] == 2
    assert stats["verdict"] == "unresolved"


def test_one_pair_has_no_spread():
    stats = ab.paired_stats([0.37], [0.35], "lower", 0.25)
    assert stats["iqr"] == 0
    assert stats["wins"] == 1
    assert stats["verdict"] == "within bound"


def test_bad_inputs_raise():
    with pytest.raises(ValueError):
        ab.paired_stats([1, 2], [1], "lower", 0.1)
    with pytest.raises(ValueError):
        ab.paired_stats([], [], "lower", 0.1)
    with pytest.raises(ValueError):
        ab.paired_stats([1], [1], "up", 0.1)
