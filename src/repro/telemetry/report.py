"""Cross-run HTML dashboard: curves, Stability ranking, cost breakdowns.

``python -m repro.telemetry report <dir>`` aggregates every run under a
telemetry ledger directory into **one self-contained static HTML file**
(inline CSS, inline SVG, no external assets, no JavaScript required):

* accuracy-vs-``P_sa`` curves, one line per ``(run, training method)``,
  built from the ``method_report`` events the experiment runner emits
  (with a fallback to raw ``defect_eval`` events for runs recorded
  before that event existed);
* a Stability-Score ranking table — equation (1) of the paper, scored at
  the largest tested fault rate of each variant;
* a fault-forensics section per probed run: a per-layer deviation
  heatmap (layers × P_sa, coloured by relative L2 deviation) with
  first-divergence attribution of every prediction flip, rebuilt from
  ``forensics_draw`` events in draw order (bit-identical to the live
  aggregates at any worker count);
* per-run time/memory breakdowns: wall-clock by span, peak RSS / CPU
  time / sample counts from the resource monitor, heartbeat counts, and
  the static model-cost totals when recorded;
* bench trend sparklines across the repo's ``BENCH_*.json`` baselines.

The report is **deterministic for a fixed ledger**: no generation
timestamps, stable ordering everywhere, fixed float formatting — so a
golden test can assert byte-identical output and CI archives diff
cleanly run-over-run.
"""

from __future__ import annotations

import html
import json
import math
import os
import re
from typing import Dict, List, Optional, Sequence

from .summary import RunModel, read_runs

__all__ = [
    "build_report",
    "render_report",
    "write_report",
    "find_bench_files",
    "REPORT_FILENAME",
]

#: Default output file name inside the ledger directory.
REPORT_FILENAME = "report.html"

#: Fixed, order-stable line colours for the accuracy curves.
_PALETTE = (
    "#1f6feb", "#d73a49", "#1a7f37", "#a371f7",
    "#bf8700", "#0d8d8d", "#cf222e", "#57606a",
)

_BENCH_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")


# ---------------------------------------------------------------------------
# data collection
# ---------------------------------------------------------------------------
def _fmt(value: Optional[float], digits: int = 2) -> str:
    """Deterministic fixed-point formatting; ``-`` for missing values."""
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "-"
    return f"{value:.{digits}f}"


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value / (1024 * 1024):.1f} MiB"


def _stability_entry(run_id: str, method: dict) -> Optional[dict]:
    """Score one variant at its largest tested fault rate (paper eq. 1)."""
    # Lazy import: repro.core imports telemetry, so a module-level import
    # here would be circular.
    from ..core.stability import stability_score

    rates = sorted(r for r in method["defect"] if r > 0.0)
    if not rates:
        return None
    rate = rates[-1]
    acc_defect = method["defect"][rate]
    acc_pre = method.get("acc_pretrain")
    acc_re = method.get("acc_retrain")
    if acc_pre is None or acc_re is None:
        return None
    try:
        score = stability_score(acc_pre, acc_re, acc_defect)
    except ValueError:
        return None
    return {
        "run_id": run_id,
        "method": method["method"],
        "p_sa": rate,
        "acc_pretrain": acc_pre,
        "acc_retrain": acc_re,
        "acc_defect": acc_defect,
        "stability_score": score,
    }


def _run_entry(run: RunModel) -> dict:
    """The dashboard's view of one run model."""
    profile = run.profile
    top_spans = sorted(
        run.spans.items(), key=lambda item: -item[1]["seconds"]
    )[:5]
    return {
        "run_id": run.run_id,
        "config": dict(sorted(run.config.items())),
        "git_sha": run.provenance.get("git_sha"),
        "duration_seconds": run.provenance.get("duration_seconds"),
        "num_events": len(run.events),
        "methods": run.methods,
        "resources": run.resources,
        "model_cost": run.model_cost,
        "profile": None if profile is None else {
            "samples": profile["merged"].samples,
            "events": profile["events"],
            "worker_events": profile["worker_events"],
            "interval": profile["interval"],
            "stacks": profile["merged"].to_wire(),
        },
        "forensics": run.forensics,
        "sweeps": run.sweeps,
        "spans": [
            {
                "path": path,
                "count": entry["count"],
                "seconds": entry["seconds"],
            }
            for path, entry in top_spans
        ],
    }


def find_bench_files(bench_dir: str) -> List[str]:
    """``BENCH_<n>.json`` files under ``bench_dir``, sorted by ``n``."""
    if not os.path.isdir(bench_dir):
        return []
    found = []
    for entry in os.listdir(bench_dir):
        match = _BENCH_PATTERN.match(entry)
        if match:
            found.append((int(match.group(1)), os.path.join(bench_dir, entry)))
    return [path for _, path in sorted(found)]


def _bench_trends(bench_files: Sequence[str]) -> List[dict]:
    """Per-case mean-seconds series across the baseline files, in order."""
    series: Dict[str, List[Optional[float]]] = {}
    labels: List[str] = []
    for path in bench_files:
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        labels.append(os.path.basename(path))
        cases = doc.get("cases") or {}
        for name in set(series) | set(cases):
            series.setdefault(name, [None] * (len(labels) - 1))
        for name, values in series.items():
            case = cases.get(name) or {}
            stats = case.get("stats") or {}
            values.append(stats.get("mean"))
    return [
        {"case": name, "labels": labels, "means": values}
        for name, values in sorted(series.items())
    ]


def build_report(
    directory: str, bench_dir: Optional[str] = None
) -> dict:
    """Aggregate every run under ``directory`` into the report document.

    Raises ``FileNotFoundError`` when the directory holds no runs at all,
    so the CLI can exit 2 with a clear message.
    """
    runs = [_run_entry(run) for run in read_runs(directory)]
    if not runs:
        raise FileNotFoundError(f"no telemetry runs under {directory!r}")

    curves = []
    for run in runs:
        for method in run["methods"]:
            points = sorted(method["defect"].items())
            if points:
                curves.append(
                    {
                        "run_id": run["run_id"],
                        "method": method["method"],
                        "points": points,
                    }
                )
    stability = []
    for run in runs:
        for method in run["methods"]:
            entry = _stability_entry(run["run_id"], method)
            if entry is not None:
                stability.append(entry)
    stability.sort(
        key=lambda e: (-e["stability_score"], e["run_id"], e["method"])
    )

    sweeps = [sweep for run in runs for sweep in run["sweeps"]]
    sweeps.sort(key=lambda s: (s["sweep"], s["profile"]))

    bench_files = find_bench_files(bench_dir) if bench_dir else []
    return {
        "directory": os.path.abspath(directory),
        "num_runs": len(runs),
        "runs": runs,
        "curves": curves,
        "stability": stability,
        "sweeps": sweeps,
        "bench": _bench_trends(bench_files),
    }


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------
def _svg_accuracy_chart(curves: List[dict]) -> str:
    """Accuracy-vs-P_sa line chart; rates equally spaced, y in [0, 100]."""
    if not curves:
        return "<p class='empty'>No defect-accuracy data recorded.</p>"
    rates = sorted({rate for curve in curves for rate, _ in curve["points"]})
    width, height = 640, 320
    left, right, top, bottom = 60, 20, 16, 44
    plot_w = width - left - right
    plot_h = height - top - bottom

    def x_of(rate: float) -> float:
        if len(rates) == 1:
            return left + plot_w / 2
        return left + plot_w * rates.index(rate) / (len(rates) - 1)

    def y_of(acc: float) -> float:
        return top + plot_h * (1.0 - max(0.0, min(acc, 100.0)) / 100.0)

    parts = [
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        "aria-label='Accuracy vs P_sa'>"
    ]
    for frac in range(0, 101, 25):
        y = y_of(frac)
        parts.append(
            f"<line x1='{left}' y1='{y:.1f}' x2='{width - right}' "
            f"y2='{y:.1f}' class='grid'/>"
            f"<text x='{left - 8}' y='{y + 4:.1f}' class='tick' "
            f"text-anchor='end'>{frac}%</text>"
        )
    for rate in rates:
        x = x_of(rate)
        parts.append(
            f"<text x='{x:.1f}' y='{height - bottom + 18}' class='tick' "
            f"text-anchor='middle'>{rate:g}</text>"
        )
    parts.append(
        f"<text x='{left + plot_w / 2:.1f}' y='{height - 6}' class='axis' "
        "text-anchor='middle'>testing stuck-at rate P_sa</text>"
    )
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(
            f"{x_of(rate):.1f},{y_of(acc):.1f}" for rate, acc in curve["points"]
        )
        parts.append(
            f"<polyline points='{coords}' fill='none' stroke='{color}' "
            "stroke-width='2'/>"
        )
        for rate, acc in curve["points"]:
            parts.append(
                f"<circle cx='{x_of(rate):.1f}' cy='{y_of(acc):.1f}' r='3' "
                f"fill='{color}'/>"
            )
    parts.append("</svg>")

    legend = ["<ul class='legend'>"]
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        label = html.escape(f"{curve['run_id']} · {curve['method']}")
        legend.append(
            f"<li><span class='swatch' style='background:{color}'></span>"
            f"{label}</li>"
        )
    legend.append("</ul>")
    return "".join(parts) + "".join(legend)


def _heat_color(fraction: float) -> str:
    """White -> deep red blend with deterministic hex formatting."""
    fraction = max(0.0, min(fraction, 1.0))
    start, end = (255, 255, 255), (179, 29, 40)
    channels = (
        round(start[i] + (end[i] - start[i]) * fraction) for i in range(3)
    )
    return "#{:02x}{:02x}{:02x}".format(*channels)


def _svg_deviation_heatmap(aggregates: List[dict]) -> str:
    """Per-layer deviation heatmap (layers × P_sa), coloured by rel_l2."""
    # Lazy import: repro.forensics imports telemetry, so a module-level
    # import here would be circular.
    from ..forensics.aggregate import deviation_matrix

    layers, rates, cells = deviation_matrix(aggregates, metric="rel_l2")
    if not layers:
        return ""
    values = [v for v in cells.values() if v is not None]
    top_value = max(values) if values else 0.0
    cell_w, cell_h = 72, 20
    left = min(max((max(len(n) for n in layers) * 7) + 12, 80), 260)
    top = 26
    width = left + cell_w * len(rates) + 8
    height = top + cell_h * len(layers) + 8
    parts = [
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        "aria-label='Per-layer deviation heatmap'>"
    ]
    for j, rate in enumerate(rates):
        x = left + cell_w * j + cell_w / 2
        parts.append(
            f"<text x='{x:.1f}' y='{top - 8}' class='tick' "
            f"text-anchor='middle'>P_sa={rate:g}</text>"
        )
    for i, name in enumerate(layers):
        y = top + cell_h * i
        parts.append(
            f"<text x='{left - 6}' y='{y + cell_h - 6:.1f}' class='tick' "
            f"text-anchor='end'>{html.escape(name)}</text>"
        )
        for j, rate in enumerate(rates):
            x = left + cell_w * j
            value = cells.get((name, rate))
            if value is None:
                fill, label, text_fill = "#f6f8fa", "-", "#57606a"
            else:
                fraction = value / top_value if top_value > 0 else 0.0
                fill = _heat_color(fraction)
                label = f"{value:.3f}"
                text_fill = "#ffffff" if fraction > 0.6 else "#1f2328"
            parts.append(
                f"<rect x='{x}' y='{y}' width='{cell_w - 2}' "
                f"height='{cell_h - 2}' fill='{fill}' class='cell'>"
                f"<title>{html.escape(name)} @ P_sa={rate:g}: {label}"
                "</title></rect>"
                f"<text x='{x + (cell_w - 2) / 2:.1f}' "
                f"y='{y + cell_h - 6:.1f}' class='cellv' fill='{text_fill}' "
                f"text-anchor='middle'>{label}</text>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _svg_sparkline(means: List[Optional[float]]) -> str:
    """Tiny trend polyline over bench baselines; scaled to its own range."""
    points = [(i, m) for i, m in enumerate(means) if m is not None]
    if not points:
        return "<span class='empty'>-</span>"
    width, height, pad = 120, 24, 3
    values = [m for _, m in points]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    n = max(len(means) - 1, 1)

    def xy(i: int, m: float) -> str:
        x = pad + (width - 2 * pad) * i / n
        y = pad + (height - 2 * pad) * (1.0 - (m - low) / span)
        return f"{x:.1f},{y:.1f}"

    coords = " ".join(xy(i, m) for i, m in points)
    last_x, last_y = xy(*points[-1]).split(",")
    return (
        f"<svg viewBox='0 0 {width} {height}' class='spark'>"
        f"<polyline points='{coords}' fill='none' stroke='#1f6feb' "
        "stroke-width='1.5'/>"
        f"<circle cx='{last_x}' cy='{last_y}' r='2' fill='#1f6feb'/></svg>"
    )


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------
_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1f2328; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
h3 { font-size: 1rem; margin-bottom: .3rem; }
table { border-collapse: collapse; margin: .5rem 0 1rem; width: 100%; }
th, td { border: 1px solid #d0d7de; padding: .3rem .6rem; text-align: left;
         font-variant-numeric: tabular-nums; }
th { background: #f6f8fa; }
tr.best td { background: #dafbe1; }
svg { max-width: 100%; height: auto; }
svg .grid { stroke: #d0d7de; stroke-width: 1; }
svg .tick, svg .axis { font: 11px sans-serif; fill: #57606a; }
svg .cell { stroke: #d0d7de; stroke-width: .5; }
svg .cellv { font: 10px sans-serif; }
svg.spark { width: 120px; height: 24px; vertical-align: middle; }
.legend { list-style: none; padding: 0; display: flex; flex-wrap: wrap;
          gap: .4rem 1.2rem; font-size: .85rem; }
.swatch { display: inline-block; width: .8em; height: .8em;
          margin-right: .4em; border-radius: 2px; }
.meta, .empty { color: #57606a; font-size: .85rem; }
code { background: #f6f8fa; padding: .1em .3em; border-radius: 3px; }
"""


def _table(headers: Sequence[str], rows: List[Sequence[str]],
           row_classes: Optional[List[str]] = None) -> str:
    head = "".join(f"<th>{h}</th>" for h in headers)
    body = []
    for i, row in enumerate(rows):
        cls = f" class='{row_classes[i]}'" if row_classes and row_classes[i] else ""
        body.append(
            f"<tr{cls}>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        )
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def _render_stability(stability: List[dict]) -> str:
    if not stability:
        return "<p class='empty'>No variant has a scored fault rate.</p>"
    rows = []
    classes = []
    for rank, entry in enumerate(stability, start=1):
        rows.append(
            [
                str(rank),
                html.escape(entry["run_id"]),
                html.escape(entry["method"]),
                f"{entry['p_sa']:g}",
                _fmt(entry["acc_pretrain"]),
                _fmt(entry["acc_retrain"]),
                _fmt(entry["acc_defect"]),
                _fmt(entry["stability_score"]),
            ]
        )
        classes.append("best" if rank == 1 else "")
    return _table(
        ["#", "run", "method", "P_sa", "Acc_pre %", "Acc_re %",
         "Acc_defect %", "Stability"],
        rows,
        classes,
    )


def _render_sweeps(sweeps: List[dict]) -> str:
    """Sweep-leaderboard section: one ranked table per recorded sweep."""
    if not sweeps:
        return (
            "<p class='empty'>No sweep leaderboards recorded (run one with "
            "<code>python -m repro.sweep run</code>).</p>"
        )
    parts: List[str] = []
    for sweep in sweeps:
        parts.append(
            f"<h3><code>{html.escape(sweep['sweep'])}</code> "
            f"[{html.escape(sweep['profile'])}] · "
            f"{sweep['cells']} cell(s)</h3>"
        )
        rows = []
        classes = []
        for entry in sweep["entries"]:
            p_sa_train = entry.get("p_sa_train")
            rows.append(
                [
                    str(entry.get("rank", "-")),
                    html.escape(str(entry.get("arch", "-"))),
                    html.escape(str(entry.get("variant", "-"))),
                    f"{entry.get('p_sa', 0):g}",
                    "-" if p_sa_train is None else f"{p_sa_train:g}",
                    f"{entry.get('sparsity', 0):g}",
                    str(entry.get("quant_bits") or "-"),
                    str(len(entry.get("seeds") or [])),
                    _fmt(entry.get("acc_retrain")),
                    _fmt(entry.get("acc_defect")),
                    _fmt(entry.get("stability_score"), 4),
                ]
            )
            classes.append("best" if entry.get("rank") == 1 else "")
        parts.append(
            _table(
                ["#", "arch", "variant", "P_sa", "P_sa^T", "sparsity",
                 "bits", "seeds", "Acc_re %", "Acc_defect %", "Stability"],
                rows,
                classes,
            )
        )
    return "".join(parts)


def _render_run(run: dict) -> str:
    parts = [f"<h3><code>{html.escape(run['run_id'])}</code></h3>"]
    config = ", ".join(
        f"{html.escape(str(k))}={html.escape(str(v))}"
        for k, v in run["config"].items()
    )
    sha = (run.get("git_sha") or "-")[:8]
    parts.append(
        f"<p class='meta'>git {html.escape(sha)} · "
        f"{run['num_events']} events · "
        f"duration {_fmt(run['duration_seconds'], 2)}s"
        + (f" · {config}" if config else "")
        + "</p>"
    )
    if run["spans"]:
        parts.append(
            _table(
                ["span", "count", "seconds"],
                [
                    [html.escape(s["path"]), str(s["count"]),
                     _fmt(s["seconds"], 3)]
                    for s in run["spans"]
                ],
            )
        )
    res = run["resources"]
    if res["samples"]:
        parts.append(
            _table(
                ["samples (workers)", "peak RSS", "mean RSS", "CPU time",
                 "heartbeats"],
                [[
                    f"{res['samples']} ({res['worker_samples']})",
                    _fmt_bytes(res["max_rss_bytes"]),
                    _fmt_bytes(res["mean_rss_bytes"]),
                    f"{_fmt(res['cpu_seconds'], 2)}s",
                    str(res["heartbeats"]),
                ]],
            )
        )
    else:
        parts.append(
            "<p class='empty'>No resource samples (run recorded without "
            "<code>resources=True</code>).</p>"
        )
    for cost in run["model_cost"]:
        parts.append(
            _table(
                ["model", "params", "MACs", "FLOPs", "activations",
                 "crossbar cells"],
                [[
                    html.escape(str(cost["model"])),
                    str(cost["params"]),
                    str(cost["macs"]),
                    str(cost["flops"]),
                    _fmt_bytes(cost["activation_bytes"]),
                    str(cost["crossbar_cells"]),
                ]],
            )
        )
    profile = run.get("profile")
    if profile:
        from .profiling import StackAggregate, render_flamegraph_svg

        aggregate = StackAggregate.from_wire(profile["stacks"])
        worker_note = (
            f" ({profile['worker_events']} worker aggregate(s) merged)"
            if profile["worker_events"]
            else ""
        )
        parts.append(
            "<h4>CPU flamegraph</h4>"
            f"<p class='meta'>{profile['samples']} stack samples at "
            f"{profile['interval']:g}s{html.escape(worker_note)} · span-path "
            "roots in blue · details: <code>python -m repro.telemetry "
            "flame &lt;run&gt;</code></p>"
            + render_flamegraph_svg(
                aggregate,
                title=f"CPU flamegraph — {run['run_id']}",
                interval=profile["interval"],
            )
        )
    return "".join(parts)


def _render_forensics(runs: List[dict]) -> str:
    """Fault-forensics section: one heatmap + attribution per probed run."""
    parts: List[str] = []
    for run in runs:
        aggregates = run.get("forensics") or []
        whole_model = [a for a in aggregates if not a.get("target")]
        if not whole_model:
            continue
        parts.append(f"<h3><code>{html.escape(run['run_id'])}</code></h3>")
        parts.append(_svg_deviation_heatmap(whole_model))
        parts.append(
            "<p class='meta'>relative L2 deviation of each layer's "
            "activations under faults (white = clean, red = most "
            "deviated)</p>"
        )
        rows = []
        for aggregate in whole_model:
            flips = int(aggregate["num_flipped"])
            attributed = [
                (entry["layer"], int(entry["first_divergence"]))
                for entry in aggregate["layers"]
                if entry["first_divergence"]
            ]
            attributed.sort(key=lambda kv: (-kv[1], kv[0]))
            undiverged = int(aggregate["undiverged_flips"])
            if undiverged:
                attributed.append(("(below threshold)", undiverged))
            for layer, count in attributed:
                share = f"{100.0 * count / flips:.1f}%" if flips else "-"
                rows.append(
                    [
                        f"{aggregate['p_sa']:g}",
                        html.escape(layer),
                        str(aggregate["num_draws"]),
                        str(count),
                        share,
                    ]
                )
        if rows:
            parts.append(
                _table(
                    ["P_sa", "first diverged layer", "draws", "flips",
                     "share of flips"],
                    rows,
                )
            )
        else:
            parts.append(
                "<p class='empty'>No prediction flips recorded.</p>"
            )
    if not parts:
        return (
            "<p class='empty'>No forensics events recorded (enable with "
            "<code>--forensics</code> or "
            "<code>ForensicsConfig</code>).</p>"
        )
    return "".join(parts)


def _render_bench(bench: List[dict]) -> str:
    if not bench:
        return "<p class='empty'>No BENCH_*.json baselines found.</p>"
    rows = []
    for trend in bench:
        means = trend["means"]
        latest = next(
            (m for m in reversed(means) if m is not None), None
        )
        rows.append(
            [
                f"<code>{html.escape(trend['case'])}</code>",
                _svg_sparkline(means),
                f"{latest * 1e3:.3f} ms" if latest is not None else "-",
            ]
        )
    labels = bench[0]["labels"] if bench else []
    caption = (
        f"<p class='meta'>across {html.escape(', '.join(labels))}</p>"
        if labels
        else ""
    )
    return caption + _table(["case", "trend", "latest mean"], rows)


def render_report(report: dict) -> str:
    """The report document as one self-contained HTML page."""
    sections = [
        "<!DOCTYPE html>",
        "<html lang='en'><head><meta charset='utf-8'>",
        "<title>repro telemetry report</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>Fault-tolerant PIM — run dashboard</h1>",
        f"<p class='meta'>{report['num_runs']} run(s) under "
        f"<code>{html.escape(report['directory'])}</code></p>",
        "<h2>Accuracy vs P<sub>sa</sub></h2>",
        _svg_accuracy_chart(report["curves"]),
        "<h2>Stability-Score ranking</h2>",
        _render_stability(report["stability"]),
        "<h2>Sweep leaderboards</h2>",
        _render_sweeps(report["sweeps"]),
        "<h2>Fault forensics</h2>",
        _render_forensics(report["runs"]),
        "<h2>Runs</h2>",
    ]
    sections.extend(_render_run(run) for run in report["runs"])
    sections.append("<h2>Bench trends</h2>")
    sections.append(_render_bench(report["bench"]))
    sections.append("</body></html>")
    return "\n".join(sections)


def write_report(
    directory: str,
    output: Optional[str] = None,
    bench_dir: Optional[str] = None,
) -> str:
    """Build and write the dashboard; returns the HTML file path."""
    report = build_report(directory, bench_dir=bench_dir)
    if output is None:
        target = directory if os.path.isdir(directory) else os.path.dirname(directory)
        output = os.path.join(target, REPORT_FILENAME)
    parent = os.path.dirname(output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(output, "w") as handle:
        handle.write(render_report(report))
    return output
