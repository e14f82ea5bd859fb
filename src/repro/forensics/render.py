"""Text rendering of recorded fault-forensics aggregates.

Backs ``python -m repro.telemetry forensics`` and the forensics section
of the run summary.  Everything here is a pure function of the
per-``(target, p_sa)`` aggregates :func:`~.aggregate.aggregate_events`
rebuilds from a run's events, so rendered output is deterministic for a
recorded run.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .aggregate import deviation_matrix

__all__ = ["HEATMAP_METRICS", "forensics_summary", "render_forensics"]

#: ASCII intensity ramp for the text heatmap (low -> high deviation).
_RAMP = " .:*#@"

#: Metrics the CLI can pivot the heatmap on.
HEATMAP_METRICS = ("rel_l2", "cosine", "snr_db", "frac_perturbed")


def _fmt_cell(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def _shade(value: Optional[float], lo: float, hi: float) -> str:
    if value is None:
        return " "
    if hi <= lo:
        return _RAMP[-1]
    frac = (value - lo) / (hi - lo)
    return _RAMP[min(int(frac * (len(_RAMP) - 1) + 0.5), len(_RAMP) - 1)]


def forensics_summary(aggregates: Sequence[Mapping]) -> Optional[dict]:
    """Compact digest of a run's forensics aggregates (``None`` when absent).

    Used by :func:`repro.telemetry.summary.summarize_run`: totals plus
    the top first-divergence layers across every whole-model aggregate.
    """
    if not aggregates:
        return None
    totals = {
        "aggregates": len(aggregates),
        "draws": sum(a["num_draws"] for a in aggregates),
        "samples": sum(a["num_samples"] for a in aggregates),
        "flipped": sum(a["num_flipped"] for a in aggregates),
        "undiverged_flips": sum(a["undiverged_flips"] for a in aggregates),
        "targets": sorted(
            {a["target"] for a in aggregates if a.get("target")}
        ),
    }
    divergence: Dict[str, int] = {}
    worst: Optional[tuple] = None
    for aggregate in aggregates:
        if aggregate.get("target"):
            continue
        for entry in aggregate["layers"]:
            count = int(entry["first_divergence"])
            if count:
                divergence[entry["layer"]] = (
                    divergence.get(entry["layer"], 0) + count
                )
            rel = entry.get("rel_l2")
            if rel is not None and (worst is None or rel > worst[1]):
                worst = (entry["layer"], rel)
    totals["first_divergence"] = dict(
        sorted(divergence.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    totals["max_rel_l2"] = (
        {"layer": worst[0], "rel_l2": worst[1]} if worst else None
    )
    return totals


def _render_heatmap(
    aggregates: Sequence[Mapping], metric: str
) -> List[str]:
    # Lazy import: repro.bench imports telemetry, which imports this
    # module, and ``import repro`` must not load the bench harness.
    from ..bench.report import format_table

    layers, rates, cells = deviation_matrix(aggregates, metric=metric)
    if not layers:
        return []
    values = [v for v in cells.values() if v is not None]
    lo = min(values) if values else 0.0
    hi = max(values) if values else 0.0
    headers = ["layer"] + [f"p_sa={rate:g}" for rate in rates]
    rows = []
    for name in layers:
        row = [name]
        for rate in rates:
            value = cells.get((name, rate))
            row.append(f"{_fmt_cell(value)} {_shade(value, lo, hi)}")
        rows.append(row)
    lines = [f"Per-layer deviation heatmap ({metric}, layers × P_sa):"]
    table = format_table(headers, rows)
    lines.extend("  " + line for line in table.split("\n"))
    lines.append(
        f"  scale: {_fmt_cell(lo)} '{_RAMP[0]}' .. {_fmt_cell(hi)} "
        f"'{_RAMP[-1]}'"
    )
    return lines


def _render_first_divergence(aggregates: Sequence[Mapping]) -> List[str]:
    rows = []
    for aggregate in aggregates:
        if aggregate.get("target"):
            continue
        flips = int(aggregate["num_flipped"])
        attributed = [
            (entry["layer"], int(entry["first_divergence"]))
            for entry in aggregate["layers"]
            if entry["first_divergence"]
        ]
        attributed.sort(key=lambda kv: (-kv[1], kv[0]))
        for layer, count in attributed:
            rows.append(
                [
                    f"{aggregate['p_sa']:g}",
                    layer,
                    str(count),
                    f"{100.0 * count / flips:.1f}%" if flips else "-",
                ]
            )
        undiverged = int(aggregate["undiverged_flips"])
        if undiverged:
            rows.append(
                [
                    f"{aggregate['p_sa']:g}",
                    "(below threshold)",
                    str(undiverged),
                    f"{100.0 * undiverged / flips:.1f}%" if flips else "-",
                ]
            )
    if not rows:
        return []
    from ..bench.report import format_table

    table = format_table(
        ["p_sa", "first diverged layer", "flips", "share"], rows
    )
    lines = ["First-divergence attribution (per prediction flip):"]
    lines.extend("  " + line for line in table.split("\n"))
    return lines


def _render_targets(aggregates: Sequence[Mapping]) -> List[str]:
    rows = []
    for aggregate in aggregates:
        target = aggregate.get("target")
        if not target:
            continue
        worst = None
        for entry in aggregate["layers"]:
            rel = entry.get("rel_l2")
            if rel is not None and (worst is None or rel > worst[1]):
                worst = (entry["layer"], rel)
        rows.append(
            [
                target,
                f"{aggregate['p_sa']:g}",
                str(aggregate["num_draws"]),
                str(aggregate["num_flipped"]),
                worst[0] if worst else "-",
                _fmt_cell(worst[1] if worst else None),
            ]
        )
    if not rows:
        return []
    from ..bench.report import format_table

    table = format_table(
        ["faulted tensor", "p_sa", "draws", "flips", "most deviated layer",
         "rel_l2"],
        rows,
    )
    lines = ["Per-target propagation (layer_sensitivity forensics):"]
    lines.extend("  " + line for line in table.split("\n"))
    return lines


def render_forensics(
    aggregates: Sequence[Mapping], metric: str = "rel_l2"
) -> str:
    """Full text view: heatmap, first-divergence and per-target tables."""
    if metric not in HEATMAP_METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {HEATMAP_METRICS}"
        )
    if not aggregates:
        return "no forensics events recorded (run with forensics enabled)"
    totals = forensics_summary(aggregates)
    lines = [
        "Fault forensics — "
        f"{totals['draws']} draws, {totals['samples']} sample evaluations, "
        f"{totals['flipped']} prediction flips",
    ]
    for section in (
        _render_heatmap(aggregates, metric),
        _render_first_divergence(aggregates),
        _render_targets(aggregates),
    ):
        if section:
            lines.append("")
            lines.extend(section)
    return "\n".join(lines)
