"""Per-case comparison of two BENCH documents.

A case counts as a regression only when *both* conditions hold:

1. the candidate median exceeds the baseline median by more than the
   relative ``threshold`` (default 25%), and
2. the absolute slowdown clears the measurement noise — more than
   ``noise_mads`` combined (baseline + candidate) MADs apart — so a 30%
   "regression" on a microsecond-jittery case doesn't fail CI.

Cases whose recorded ``params`` differ between the two files are marked
``incomparable`` rather than diffed: a number measured at a different
problem size is not a regression signal.  ``missing``/``new`` cases are
reported but don't fail the comparison (suites legitimately evolve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "CaseDelta",
    "ComparisonResult",
    "compare_benches",
    "attribute_functions",
    "attribute_comparison",
]

#: delta.status values, in display order.
STATUSES = ("regression", "improvement", "ok", "incomparable", "missing", "new")


@dataclass
class CaseDelta:
    """One case's baseline-vs-candidate outcome."""

    name: str
    status: str
    baseline_median: Optional[float] = None
    candidate_median: Optional[float] = None
    ratio: Optional[float] = None
    note: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form of this delta."""
        return {
            "name": self.name,
            "status": self.status,
            "baseline_median": self.baseline_median,
            "candidate_median": self.candidate_median,
            "ratio": self.ratio,
            "note": self.note,
        }


@dataclass
class ComparisonResult:
    """Every per-case delta plus the headline verdict."""

    threshold: float
    noise_mads: float
    deltas: List[CaseDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[CaseDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def improvements(self) -> List[CaseDelta]:
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def ok(self) -> bool:
        """True when no case regressed beyond threshold + noise."""
        return not self.regressions

    def to_dict(self) -> dict:
        """JSON-ready form of the comparison."""
        return {
            "threshold": self.threshold,
            "noise_mads": self.noise_mads,
            "ok": self.ok,
            "deltas": [d.to_dict() for d in self.deltas],
        }


def _delta_for(
    name: str,
    base: dict,
    cand: dict,
    threshold: float,
    noise_mads: float,
) -> CaseDelta:
    if base.get("params") != cand.get("params"):
        return CaseDelta(
            name,
            "incomparable",
            note="input sizes differ between the two files",
        )
    b, c = base["stats"], cand["stats"]
    base_median, cand_median = b["median"], c["median"]
    ratio = cand_median / base_median if base_median > 0 else float("inf")
    delta = CaseDelta(name, "ok", base_median, cand_median, ratio)
    noise_floor = noise_mads * (b["mad"] + c["mad"])
    if ratio > 1.0 + threshold:
        if (cand_median - base_median) > noise_floor:
            delta.status = "regression"
            delta.note = f"{ratio:.2f}x slower"
        else:
            delta.note = "slower, but within measurement noise"
    elif ratio < 1.0 / (1.0 + threshold):
        if (base_median - cand_median) > noise_floor:
            delta.status = "improvement"
            delta.note = f"{1.0 / ratio:.2f}x faster"
        else:
            delta.note = "faster, but within measurement noise"
    return delta


def _self_seconds_per_repeat(case: dict) -> Optional[Dict[str, float]]:
    """Per-function sampled self time per measured repeat, in seconds.

    ``None`` when the case carries no usable profile (not recorded with
    ``run --profile``, or the body was too fast to catch any samples).
    """
    profile = case.get("profile")
    if not isinstance(profile, dict):
        return None
    functions = profile.get("functions")
    interval = profile.get("interval")
    repeats = profile.get("repeats") or case.get("repeats")
    if not functions or not interval or not repeats:
        return None
    scale = float(interval) / float(repeats)
    return {
        name: entry.get("self", 0) * scale
        for name, entry in functions.items()
    }


def attribute_functions(
    base_case: dict, cand_case: dict
) -> Optional[List[dict]]:
    """Per-function self-time deltas between two profiled case records.

    Returns ``[{"function", "baseline_self", "candidate_self", "delta"},
    ...]`` (seconds per repeat) sorted by descending absolute delta —
    the top movers name the functions responsible for a regression.
    ``None`` when either side lacks a profile.
    """
    base = _self_seconds_per_repeat(base_case)
    cand = _self_seconds_per_repeat(cand_case)
    if base is None or cand is None:
        return None
    movers = [
        {
            "function": name,
            "baseline_self": base.get(name, 0.0),
            "candidate_self": cand.get(name, 0.0),
            "delta": cand.get(name, 0.0) - base.get(name, 0.0),
        }
        for name in sorted(set(base) | set(cand))
    ]
    movers.sort(key=lambda m: (-abs(m["delta"]), m["function"]))
    return movers


def attribute_comparison(
    baseline: dict, candidate: dict
) -> Dict[str, List[dict]]:
    """Function-level attribution for every case profiled on both sides."""
    attribution: Dict[str, List[dict]] = {}
    base_cases = baseline["cases"]
    cand_cases = candidate["cases"]
    for name in sorted(set(base_cases) & set(cand_cases)):
        movers = attribute_functions(base_cases[name], cand_cases[name])
        if movers:
            attribution[name] = movers
    return attribution


def compare_benches(
    baseline: dict,
    candidate: dict,
    threshold: float = 0.25,
    noise_mads: float = 3.0,
) -> ComparisonResult:
    """Diff two (already validated) BENCH documents case by case."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if noise_mads < 0:
        raise ValueError("noise_mads must be >= 0")
    result = ComparisonResult(threshold=threshold, noise_mads=noise_mads)
    base_cases = baseline["cases"]
    cand_cases = candidate["cases"]
    for name in sorted(set(base_cases) | set(cand_cases)):
        if name not in cand_cases:
            result.deltas.append(
                CaseDelta(
                    name,
                    "missing",
                    baseline_median=base_cases[name]["stats"]["median"],
                    note="present in baseline only",
                )
            )
        elif name not in base_cases:
            result.deltas.append(
                CaseDelta(
                    name,
                    "new",
                    candidate_median=cand_cases[name]["stats"]["median"],
                    note="present in candidate only",
                )
            )
        else:
            result.deltas.append(
                _delta_for(
                    name,
                    base_cases[name],
                    cand_cases[name],
                    threshold,
                    noise_mads,
                )
            )
    return result
