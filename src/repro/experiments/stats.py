"""Statistical treatment of defect-accuracy measurements.

The paper reports the mean over 100 fault draws; a careful reproduction
should also say how certain that mean is and whether two models actually
differ.  This module provides:

* :func:`mean_confidence_interval` — Student-t CI for the mean defect
  accuracy over fault draws;
* :func:`paired_comparison` — paired-t comparison of two models evaluated
  under **common random numbers** (the same fault seeds), the variance-
  reduction trick the harness's seeded evaluation enables.

Both use the exact Student-t quantile for integer degrees of freedom,
computed with the standard library alone: the two-sided t CDF is a
finite cosine series in ``theta = atan(t / sqrt(dof))`` (Abramowitz &
Stegun 26.7.3/26.7.4), inverted by bisection on ``theta`` to float
precision.  The result therefore does not depend on which optional
packages are installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["mean_confidence_interval", "PairedComparison", "paired_comparison"]


def _t_two_sided_cdf(theta: float, dof: int) -> float:
    """``P(|T| <= sqrt(dof) * tan(theta))`` for Student's t with ``dof``."""
    odd = dof % 2
    cos2 = math.cos(theta) ** 2
    term = series = 1.0
    for j in range(1, dof // 2):
        term *= cos2 * (2 * j - 1 + odd) / (2 * j + odd)
        series += term
    if not odd:
        return math.sin(theta) * series
    if dof == 1:
        return 2.0 * theta / math.pi
    return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * series)


def _t_quantile(confidence: float, dof: int) -> float:
    """The ``t`` with ``P(|T| <= t) = confidence`` for ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    # The CDF rises monotonically in theta on [0, pi/2]; halve the bracket
    # until its ends are adjacent floats.
    low, high = 0.0, math.pi / 2
    mid = 0.5 * (low + high)
    while low < mid < high:
        if _t_two_sided_cdf(mid, dof) < confidence:
            low = mid
        else:
            high = mid
        mid = 0.5 * (low + high)
    return math.sqrt(dof) * math.tan(mid)


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Return ``(mean, low, high)`` of a Student-t CI for the mean.

    Parameters
    ----------
    samples:
        Per-draw accuracies (e.g. ``DefectEvaluation.run_accuracies``).
    confidence:
        Two-sided confidence level in (0, 1).
    """
    samples = np.asarray(list(samples), dtype=np.float64)
    if samples.size < 2:
        raise ValueError("need at least two samples for an interval")
    mean = float(samples.mean())
    sem = float(samples.std(ddof=1) / np.sqrt(samples.size))
    t = _t_quantile(confidence, samples.size - 1)
    return mean, mean - t * sem, mean + t * sem


@dataclass(frozen=True)
class PairedComparison:
    """Result of a paired-t comparison of two models' defect accuracies."""

    mean_difference: float  # model_a - model_b, percentage points
    ci_low: float
    ci_high: float
    t_statistic: float
    significant: bool  # CI excludes zero

    @property
    def winner(self) -> str:
        """``"a"``, ``"b"`` or ``"tie"`` at the chosen confidence."""
        if not self.significant:
            return "tie"
        return "a" if self.mean_difference > 0 else "b"


def paired_comparison(
    accuracies_a: Sequence[float],
    accuracies_b: Sequence[float],
    confidence: float = 0.95,
) -> PairedComparison:
    """Paired-t comparison of per-draw accuracies under common seeds.

    Both sequences must come from evaluations with the *same* fault
    seeds (pass the same seeded generator state to
    :func:`repro.core.evaluate_defect_accuracy` for each model), pairing
    draw ``i`` of model A with draw ``i`` of model B.
    """
    a = np.asarray(list(accuracies_a), dtype=np.float64)
    b = np.asarray(list(accuracies_b), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    if a.size < 2:
        raise ValueError("need at least two paired samples")
    diff = a - b
    mean = float(diff.mean())
    sem = float(diff.std(ddof=1) / np.sqrt(diff.size))
    t_quant = _t_quantile(confidence, diff.size - 1)
    if sem == 0.0:
        t_stat = math.inf if mean != 0 else 0.0
        significant = mean != 0.0
        return PairedComparison(mean, mean, mean, t_stat, significant)
    low, high = mean - t_quant * sem, mean + t_quant * sem
    t_stat = mean / sem
    return PairedComparison(mean, low, high, t_stat, not low <= 0.0 <= high)
