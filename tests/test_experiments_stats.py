"""Tests for the statistical utilities."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import (
    mean_confidence_interval,
    paired_comparison,
)
from repro.experiments.stats import _t_quantile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


def test_t_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof in list(range(1, 121)) + [199, 999, 1999]:
        for confidence in CONFIDENCES:
            expected = stats.t.ppf(0.5 + confidence / 2, dof)
            assert _t_quantile(confidence, dof) == pytest.approx(
                expected, rel=1e-10
            ), (dof, confidence)


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_t_quantile_closed_forms(confidence):
    c = confidence
    assert _t_quantile(c, 1) == pytest.approx(math.tan(math.pi * c / 2), rel=1e-10)
    assert _t_quantile(c, 2) == pytest.approx(
        c * math.sqrt(2 / (1 - c * c)), rel=1e-10
    )


@pytest.mark.parametrize("dof", [1, 2, 3, 30, 999])
def test_t_quantile_rises_with_confidence(dof):
    quantiles = [_t_quantile(c, dof) for c in CONFIDENCES]
    assert all(a < b for a, b in zip(quantiles, quantiles[1:]))


@pytest.mark.parametrize("dof", [0, -1])
def test_t_quantile_rejects_dof_below_one(dof):
    with pytest.raises(ValueError):
        _t_quantile(0.95, dof)


def test_ci_identical_without_scipy():
    """The interval is the same bits whether or not scipy is importable."""
    samples = [10.0, 12.0, 11.0, 13.0]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from repro.experiments import mean_confidence_interval\n"
        f"print(*(v.hex() for v in mean_confidence_interval({samples!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    ).stdout.split()
    assert out == [v.hex() for v in mean_confidence_interval(samples)]


def test_ci_contains_mean():
    mean, low, high = mean_confidence_interval([10.0, 12.0, 11.0, 13.0])
    assert low < mean < high
    assert mean == pytest.approx(11.5)


def test_ci_width_shrinks_with_samples(rng):
    small = rng.normal(50, 5, size=10)
    large = rng.normal(50, 5, size=1000)
    _, lo_s, hi_s = mean_confidence_interval(small)
    _, lo_l, hi_l = mean_confidence_interval(large)
    assert (hi_l - lo_l) < (hi_s - lo_s)


def test_ci_coverage_monte_carlo():
    """A 90% CI should cover the true mean ~90% of the time."""
    rng = np.random.default_rng(0)
    covered = 0
    trials = 300
    for _ in range(trials):
        samples = rng.normal(70.0, 3.0, size=20)
        _, low, high = mean_confidence_interval(samples, confidence=0.9)
        covered += low <= 70.0 <= high
    assert 0.84 <= covered / trials <= 0.96


def test_ci_validation():
    with pytest.raises(ValueError):
        mean_confidence_interval([1.0])
    with pytest.raises(ValueError):
        mean_confidence_interval([1.0, 2.0], confidence=1.5)


def test_paired_detects_consistent_difference(rng):
    base = rng.normal(60, 5, size=30)
    better = base + 2.0 + rng.normal(0, 0.2, size=30)
    result = paired_comparison(better, base)
    assert result.significant
    assert result.winner == "a"
    assert result.ci_low > 0
    assert result.mean_difference == pytest.approx(2.0, abs=0.3)


def test_paired_detects_tie(rng):
    base = rng.normal(60, 5, size=30)
    same = base + rng.normal(0, 0.5, size=30)
    result = paired_comparison(same, base)
    assert result.winner in ("tie", "a", "b")
    # Mean difference near zero regardless of significance call.
    assert abs(result.mean_difference) < 0.5


def test_paired_common_random_numbers_beats_unpaired(rng):
    """Pairing removes shared fault-severity noise: a small real gap is
    significant when paired even though marginal variances are large."""
    shared = rng.normal(0, 10, size=40)  # severity of each fault draw
    a = 70 + shared + 1.0  # model a is 1pp better on every draw
    b = 70 + shared
    paired = paired_comparison(a, b)
    assert paired.significant
    assert paired.winner == "a"


def test_paired_identical_sequences():
    result = paired_comparison([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.mean_difference == 0.0
    assert not result.significant
    assert result.winner == "tie"


def test_paired_validation():
    with pytest.raises(ValueError):
        paired_comparison([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        paired_comparison([1.0], [2.0])
    # An invalid confidence once gave a NaN quantile and a "significant" winner.
    for confidence in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            paired_comparison([1.0, 2.0, 3.0], [0.0, 0.5, 1.0], confidence)


def test_paired_with_real_defect_evaluations(rng):
    """End to end: common-seed defect evaluations feed the comparison."""
    from repro import nn
    from repro.core import (
        OneShotFaultTolerantTrainer,
        Trainer,
        evaluate_defect_accuracy,
    )
    from repro.datasets import ArrayDataset, DataLoader
    from repro.models import MLP

    n = 120
    centers = rng.normal(size=(3, 8)) * 3
    labels = rng.integers(0, 3, size=n)
    images = centers[labels] + rng.normal(size=(n, 8)) * 0.3
    loader = DataLoader(ArrayDataset(images.reshape(n, 1, 2, 4), labels),
                        30, shuffle=True, seed=0)
    base = MLP(8, [16], 3, rng=np.random.default_rng(1))
    Trainer(base, nn.SGD(base.parameters(), lr=0.1, momentum=0.9)).fit(
        loader, 8
    )
    ft = MLP(8, [16], 3, rng=np.random.default_rng(1))
    OneShotFaultTolerantTrainer(
        ft, nn.SGD(ft.parameters(), lr=0.1, momentum=0.9),
        p_sa_target=0.1, rng=np.random.default_rng(2),
    ).fit(loader, 8)

    rate = 0.1
    a = evaluate_defect_accuracy(
        ft, loader, rate, num_runs=10, rng=np.random.default_rng(7)
    )
    b = evaluate_defect_accuracy(
        base, loader, rate, num_runs=10, rng=np.random.default_rng(7)
    )
    result = paired_comparison(a.run_accuracies, b.run_accuracies)
    # FT should not be significantly *worse*.
    assert result.winner in ("a", "tie")
