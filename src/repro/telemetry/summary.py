"""Offline reconstruction of a finished run: the one run model.

:func:`read_run` reads a run directory's ``run.json``, ``metrics.json``
and ``events.jsonl`` once and folds the log in one pass into a
:class:`RunModel`.  Every offline view projects it: the summary digest
(:meth:`RunModel.summary`, :func:`render_summary`), the ledger's
:class:`~repro.telemetry.ledger.RunRecord`, the dashboard's per-run
entries, and the ``python -m repro.telemetry`` subcommands.  The rules
for what a run directory is (:func:`is_run_dir`) and for rejecting a
log with no readable event (:func:`load_run`) live here only.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .events import read_events_with_errors

__all__ = [
    "RunModel",
    "is_run_dir",
    "find_run_dir",
    "read_artefact",
    "read_run",
    "read_runs",
    "load_run",
    "summarize_run",
    "render_summary",
]

#: Nominal SA1 fraction among faulted cells under the paper's 1.75:9.04
#: split — the reference line for the realized share reported in
#: summaries.
_NOMINAL_SA1_SHARE = 9.04 / (1.75 + 9.04)


def is_run_dir(path: str) -> bool:
    """Whether ``path`` holds a run's ``events.jsonl`` or ``run.json``."""
    return any(
        os.path.isfile(os.path.join(path, name))
        for name in ("events.jsonl", "run.json")
    )


def _run_dirs(directory: str) -> List[str]:
    """``directory`` itself when it is a run, else its runs, by name."""
    if is_run_dir(directory):
        return [directory]
    if not os.path.isdir(directory):
        # A file (or nothing at all): a clear error beats the
        # NotADirectoryError traceback os.listdir would raise.
        raise FileNotFoundError(f"no such telemetry directory: {directory!r}")
    paths = [os.path.join(directory, e) for e in sorted(os.listdir(directory))]
    return [path for path in paths if is_run_dir(path)]


def find_run_dir(path: str) -> str:
    """Resolve ``path`` to a run directory.

    Accepts either a run directory itself or a telemetry parent
    directory, in which case the lexically last run subdirectory is used
    (run ids sort chronologically).
    """
    runs = _run_dirs(path)
    if not runs:
        raise FileNotFoundError(f"no run directory under {path!r}")
    return runs[-1]


def read_artefact(path: str) -> Optional[dict]:
    """A run's JSON artefact, or ``None`` when it is missing or unreadable."""
    if not os.path.isfile(path):
        return None
    try:
        with open(path) as handle:
            return json.load(handle)
    except (json.JSONDecodeError, OSError) as exc:
        # A half-written run.json/metrics.json (killed run) degrades the
        # views, it must not crash them.
        logging.getLogger("repro.telemetry").warning(
            "%s: unreadable run artefact (%s); ignoring", path, exc
        )
        return None


@dataclass
class RunModel:
    """One run directory, read once and folded into every view's sections.

    A section is empty when its artefact or events are missing, so a
    crashed run still has a model.  Peak RSS is the largest
    ``max_rss_bytes`` (each process's ``ru_maxrss`` high-water mark) over
    every ``resource_sample``, parent and workers; CPU time and minor page
    faults are the parent's last ``cpu_seconds`` and ``minor_faults``.
    ``profile["merged"]`` is the parent and worker ``profile_stacks``
    merged into one ``StackAggregate``.
    """

    run_dir: str
    run_id: str
    config: dict
    provenance: dict
    metrics: Optional[dict]
    events: List[dict]
    skipped_lines: int
    events_by_kind: Dict[str, int] = field(default_factory=dict)
    epochs: List[dict] = field(default_factory=list)
    defect: Dict[str, dict] = field(default_factory=dict)
    spans: Dict[str, dict] = field(default_factory=dict)
    fault_realization: Optional[dict] = None
    model_cost: List[dict] = field(default_factory=list)
    resources: dict = field(default_factory=dict)
    profile: Optional[dict] = None
    forensics: List[dict] = field(default_factory=list)
    methods: List[dict] = field(default_factory=list)
    sweeps: List[dict] = field(default_factory=list)

    def summary(self) -> dict:
        """The JSON-friendly digest :func:`render_summary` formats."""
        summary: dict = {
            "run_dir": self.run_dir,
            "run_id": self.run_id,
            "num_events": len(self.events),
            "skipped_lines": self.skipped_lines,
            "events_by_kind": self.events_by_kind,
            "config": self.config,
            "epochs": self.epochs,
            "defect": self.defect,
            "spans": self.spans,
            "fault_realization": self.fault_realization,
            "model_cost": self.model_cost,
            "resources": None,
            "profile": None,
            "forensics": None,
        }
        resources = self.resources
        if any(resources[key] for key in ("samples", "heartbeats", "stalls")):
            summary["resources"] = {
                key: value
                for key, value in resources.items()
                if key != "mean_rss_bytes"
            }
        if self.profile is not None:
            from .profiling import function_totals

            merged = self.profile["merged"]
            summary["profile"] = {
                "events": self.profile["events"],
                "worker_events": self.profile["worker_events"],
                "samples": merged.samples,
                "interval": self.profile["interval"],
                "functions": function_totals(merged),
            }
        if self.forensics:
            from ..forensics.render import forensics_summary

            summary["forensics"] = forensics_summary(self.forensics)
        if self.metrics is not None:
            summary["metrics"] = self.metrics
        return summary


def read_run(run_dir: str) -> RunModel:
    """Read ``run_dir``'s artefacts once and fold them into a model."""
    meta = read_artefact(os.path.join(run_dir, "run.json")) or {}
    events_path = os.path.join(run_dir, "events.jsonl")
    events, skipped = (
        read_events_with_errors(events_path)
        if os.path.isfile(events_path)
        else ([], 0)
    )
    run = RunModel(
        run_dir=run_dir,
        run_id=meta.get("run_id") or os.path.basename(run_dir.rstrip("/")),
        config=meta.get("config") or {},
        provenance=meta.get("provenance") or {},
        metrics=read_artefact(os.path.join(run_dir, "metrics.json")),
        events=events,
        skipped_lines=skipped,
    )
    _fold(run)
    return run


def read_runs(directory: str) -> List[RunModel]:
    """Every run under ``directory``, sorted by run id.

    ``directory`` may itself be a single run directory, in which case the
    result has exactly one model.  Raises ``FileNotFoundError`` when it
    is neither a run nor a directory.
    """
    runs = [read_run(path) for path in _run_dirs(directory)]
    return sorted(runs, key=lambda run: run.run_id)


def load_run(path: str) -> RunModel:
    """The model of one run for a single-run view.

    ``path`` is resolved by :func:`find_run_dir`.  Raises
    ``FileNotFoundError`` when the run has no readable event (a missing,
    empty or fully corrupt ``events.jsonl``) rather than let a view
    render degenerate output.
    """
    run = read_run(find_run_dir(path))
    if not run.events:
        raise FileNotFoundError(
            f"run directory {run.run_dir!r} has no readable events "
            "(empty or fully corrupt events.jsonl)"
        )
    return run


def summarize_run(path: str) -> dict:
    """Digest one run (see :func:`load_run`) into a JSON-friendly dict."""
    return load_run(path).summary()


#: What folding an event whose payload lost its kind's shape raises.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)

#: The ``epoch_end`` and ``model_cost`` fields a view shows, in order.
_EPOCH_KEYS = (
    "epoch", "loss", "train_accuracy", "p_sa", "seconds",
    "grad_norm_pre_clip", "grad_norm_post_clip", "update_ratio",
)
_COST_KEYS = (
    "model", "params", "macs", "flops", "activation_bytes", "crossbar_cells",
)


def _fold(run: RunModel) -> None:
    """Fill ``run``'s sections from its events in one pass.

    An event whose payload does not have its kind's shape (schema drift,
    which ``python -m repro.telemetry validate`` names) is left out of
    the sections with a warning instead of failing every view of the run.
    """
    by_kind: Dict[str, int] = {}
    draws: Dict[float, List[tuple]] = {}
    grid: Dict[float, float] = {}
    faults = {"injections": 0, "cells": 0, "sa0": 0, "sa1": 0}
    histograms = (run.metrics or {}).get("histograms") or {}
    rss = histograms.get("resource/rss_bytes") or {}
    resources = run.resources = {
        "samples": 0,
        "worker_samples": 0,
        "max_rss_bytes": None,
        "mean_rss_bytes": rss.get("mean"),
        "cpu_seconds": None,
        "minor_faults": None,
        "heartbeats": 0,
        "stalls": 0,
    }
    profile_events: List[dict] = []
    forensics_events: List[dict] = []
    malformed = 0
    for event in run.events:
        kind = str(event.get("kind"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        from_worker = event.get("worker_pid") is not None
        # Each branch converts its fields before it changes any section,
        # so a malformed event leaves no partial trace.
        try:
            if kind == "run_start" and not run.config:
                run.config = dict(event.get("config") or {})
            elif kind == "epoch_end":
                run.epochs.append({key: event.get(key) for key in _EPOCH_KEYS})
            elif kind == "defect_draw":
                rate, acc = float(event["p_sa"]), float(event["accuracy"])
                draws.setdefault(rate, []).append((acc, event.get("seed")))
            elif kind == "defect_eval":
                rate = event.get("p_sa")
                acc = event.get("mean_accuracy")
                if isinstance(rate, (int, float)) and isinstance(
                    acc, (int, float)
                ):
                    grid[float(rate)] = float(acc)
            elif kind == "span_end":
                seconds = float(event.get("seconds", 0.0))
                entry = run.spans.setdefault(
                    str(event.get("path")),
                    {"count": 0, "seconds": 0.0, "workers": {}},
                )
                entry["count"] += 1
                entry["seconds"] += seconds
                label = (
                    f"worker-{event['worker_pid']}" if from_worker else "main"
                )
                worker = entry["workers"].setdefault(
                    label, {"count": 0, "seconds": 0.0}
                )
                worker["count"] += 1
                worker["seconds"] += seconds
            elif kind == "fault_inject" and "sa0" in event:
                cells = int(event.get("cells_total", 0))
                sa0, sa1 = int(event["sa0"]), int(event.get("sa1", 0))
                faults["injections"] += 1
                faults["cells"] += cells
                faults["sa0"] += sa0
                faults["sa1"] += sa1
            elif kind == "model_cost":
                run.model_cost.append({key: event.get(key) for key in _COST_KEYS})
            elif kind == "resource_sample":
                resources["samples"] += 1
                if from_worker:
                    resources["worker_samples"] += 1
                peak = event.get("max_rss_bytes")
                if isinstance(peak, (int, float)):
                    best = resources["max_rss_bytes"]
                    resources["max_rss_bytes"] = (
                        peak if best is None else max(best, peak)
                    )
                # Last parent sample wins: CPU time and faults are
                # cumulative per process.
                if not from_worker:
                    for key in ("cpu_seconds", "minor_faults"):
                        value = event.get(key)
                        if isinstance(value, (int, float)):
                            resources[key] = value
            elif kind == "heartbeat":
                resources["heartbeats"] += 1
            elif kind == "progress_stall":
                resources["stalls"] += 1
            elif kind == "profile_stacks":
                profile_events.append(event)
            elif kind == "forensics_draw":
                forensics_events.append(event)
            elif kind == "method_report":
                defect = {
                    float(rate): float(acc)
                    for rate, acc in (event.get("defect") or {}).items()
                }
                run.methods.append(
                    {
                        "method": str(event.get("method", "?")),
                        "acc_pretrain": event.get("acc_pretrain"),
                        "acc_retrain": event.get("acc_retrain"),
                        "defect": defect,
                    }
                )
            elif kind == "sweep_report":
                entries = list(event.get("entries") or [])
                run.sweeps.append(
                    {
                        "sweep": str(event.get("sweep", "?")),
                        "profile": str(event.get("profile", "?")),
                        "cells": event.get("cells"),
                        "entries": entries,
                    }
                )
        except _MALFORMED:
            malformed += 1
    run.events_by_kind = dict(sorted(by_kind.items()))

    if profile_events:
        from .profiling import merge_profile_events, profile_interval_of

        try:
            merged = merge_profile_events(profile_events)
        except _MALFORMED:
            malformed += len(profile_events)
        else:
            run.profile = {
                "events": len(profile_events),
                "worker_events": sum(
                    e.get("worker_pid") is not None for e in profile_events
                ),
                "interval": profile_interval_of(profile_events),
                "merged": merged,
            }
    if forensics_events:
        # Lazy import: repro.forensics imports telemetry, so a
        # module-level import here would be circular.
        from ..forensics.aggregate import aggregate_events

        try:
            run.forensics = aggregate_events(forensics_events)
        except _MALFORMED:
            malformed += len(forensics_events)
    if malformed:
        logging.getLogger("repro.telemetry").warning(
            "%s: %d malformed event(s) left out of the run's views "
            "(python -m repro.telemetry validate names them)",
            run.run_dir,
            malformed,
        )
    if not run.methods and grid:
        clean = grid.get(0.0, max(grid.values()))
        config = run.config
        label = config.get("experiment") or config.get("method") or "run"
        run.methods.append(
            {
                "method": str(label),
                "acc_pretrain": clean,
                "acc_retrain": clean,
                "defect": grid,
            }
        )
    if faults["injections"]:
        faulted = faults["sa0"] + faults["sa1"]
        faults["realized_p_sa"] = (
            faulted / faults["cells"] if faults["cells"] else None
        )
        faults["realized_sa1_share"] = (
            faults["sa1"] / faulted if faulted else None
        )
        faults["nominal_sa1_share"] = _NOMINAL_SA1_SHARE
        run.fault_realization = faults
    for rate in sorted(draws):
        accuracies = [accuracy for accuracy, _ in draws[rate]]
        run.defect[str(rate)] = {
            "draws": len(accuracies),
            "mean_accuracy": float(np.mean(accuracies)),
            "std_accuracy": float(np.std(accuracies)),
            "min_accuracy": float(np.min(accuracies)),
            "max_accuracy": float(np.max(accuracies)),
            "seeds": [seed for _, seed in draws[rate]],
        }


def _top_tables(summary: dict, top: int) -> List[str]:
    """``--top N`` detail: slowest spans + per-layer forward/backward.

    Rendered through the bench reporter's table formatting so the two
    CLIs read the same.  (Imported lazily: ``repro.bench`` itself imports
    telemetry, so a module-level import here would be circular.)
    """
    from ..bench.report import format_seconds, format_table

    lines: List[str] = []
    spans = summary.get("spans") or {}
    if spans:
        ranked = sorted(spans.items(), key=lambda item: -item[1]["seconds"])
        rows = [
            [
                path,
                entry["count"],
                format_seconds(entry["seconds"]),
                format_seconds(entry["seconds"] / max(entry["count"], 1)),
                len(entry.get("workers") or {}) or 1,
            ]
            for path, entry in ranked[:top]
        ]
        lines += [
            "",
            f"Slowest spans (top {min(top, len(ranked))} of {len(ranked)}):",
            format_table(["span", "count", "total", "mean", "procs"], rows),
        ]

    profile = summary.get("profile") or {}
    functions = profile.get("functions") or {}
    if functions:
        samples = max(profile.get("samples") or 0, 1)
        interval = profile.get("interval")
        ranked_fns = sorted(
            functions.items(),
            key=lambda item: (-item[1]["self"], -item[1]["total"], item[0]),
        )

        def _est(count: int) -> str:
            if not interval:
                return "-"
            return format_seconds(count * interval)

        rows = [
            [
                name,
                entry["self"],
                f"{100.0 * entry['self'] / samples:.1f}%",
                _est(entry["self"]),
                f"{100.0 * entry['total'] / samples:.1f}%",
            ]
            for name, entry in ranked_fns[:top]
        ]
        lines += [
            "",
            f"Hottest functions by sampled self time "
            f"(top {min(top, len(ranked_fns))} of {len(ranked_fns)}):",
            format_table(
                ["function", "self", "self %", "est self", "total %"], rows
            ),
        ]

    histograms = (summary.get("metrics") or {}).get("histograms") or {}
    layers: Dict[str, Dict[str, dict]] = {}
    for name, digest in histograms.items():
        for kind in ("forward", "backward"):
            prefix = f"{kind}_seconds/"
            if name.startswith(prefix) and digest.get("count"):
                layers.setdefault(name[len(prefix):], {})[kind] = digest
    if layers:
        def _total(entry: Dict[str, dict]) -> float:
            return sum(d.get("sum", 0.0) for d in entry.values())

        ranked_layers = sorted(
            layers.items(), key=lambda item: -_total(item[1])
        )
        rows = []
        for layer, entry in ranked_layers[:top]:
            fwd = entry.get("forward", {})
            bwd = entry.get("backward", {})
            rows.append(
                [
                    layer,
                    fwd.get("count", 0),
                    format_seconds(fwd.get("sum")) if fwd else "-",
                    format_seconds(fwd.get("mean")) if fwd else "-",
                    format_seconds(bwd.get("sum")) if bwd else "-",
                    format_seconds(bwd.get("mean")) if bwd else "-",
                ]
            )
        lines += [
            "",
            f"Per-layer forward/backward "
            f"(top {min(top, len(ranked_layers))} of {len(ranked_layers)}):",
            format_table(
                ["layer", "calls", "fwd total", "fwd mean", "bwd total",
                 "bwd mean"],
                rows,
            ),
        ]
    if not lines:
        lines = ["", "(no span or per-layer timings recorded)"]
    return lines


def render_summary(summary: dict, top: Optional[int] = None) -> str:
    """Human-readable text report of a :func:`summarize_run` digest.

    ``top`` appends the slowest-``N`` spans and per-layer
    forward/backward tables (the CLI's ``--top N``).
    """
    from ..bench.report import format_seconds

    lines = [
        f"Telemetry summary — {summary.get('run_id')}",
        f"  directory : {summary.get('run_dir')}",
        f"  events    : {summary.get('num_events')}",
    ]
    if summary.get("skipped_lines"):
        lines.append(
            f"  WARNING   : {summary['skipped_lines']} corrupt event "
            "line(s) skipped (truncated run?)"
        )
    config = summary.get("config") or {}
    if config:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))
        lines.append(f"  config    : {rendered}")
    counts = summary.get("events_by_kind") or {}
    if counts:
        rendered = ", ".join(f"{k}×{v}" for k, v in counts.items())
        lines.append(f"  by kind   : {rendered}")

    epochs = summary.get("epochs") or []
    if epochs:
        total = sum(e["seconds"] or 0.0 for e in epochs)
        losses = [e["loss"] for e in epochs if e["loss"] is not None]
        lines.append("")
        lines.append(
            f"Training: {len(epochs)} epochs in {format_seconds(total)}"
            + (
                f", loss {losses[0]:.4f} -> {losses[-1]:.4f}"
                if losses
                else ""
            )
        )
        grads = [
            e["grad_norm_pre_clip"]
            for e in epochs
            if e.get("grad_norm_pre_clip") is not None
        ]
        ratios = [
            e["update_ratio"]
            for e in epochs
            if e.get("update_ratio") is not None
        ]
        if grads:
            health = (
                f"Health: grad norm {grads[0]:.4g} -> {grads[-1]:.4g}"
            )
            if ratios:
                health += (
                    f", update ratio {ratios[0]:.3g} -> {ratios[-1]:.3g}"
                )
            lines.append(health)

    faults = summary.get("fault_realization")
    if faults:
        lines.append("")
        realized = faults.get("realized_p_sa")
        share = faults.get("realized_sa1_share")
        lines.append(
            f"Fault injection: {faults['injections']} injections, "
            f"{faults['sa0'] + faults['sa1']} faulted cells"
            + (f", realized p_sa {realized:.4g}" if realized is not None else "")
            + (
                f", SA1 share {share:.3f} "
                f"(nominal {faults['nominal_sa1_share']:.3f})"
                if share is not None
                else ""
            )
        )

    for cost in summary.get("model_cost") or []:
        lines.append("")
        lines.append(
            f"Model cost ({cost.get('model')}): "
            f"{cost.get('params')} params, "
            f"{cost.get('macs')} MACs, {cost.get('flops')} FLOPs, "
            f"{cost.get('crossbar_cells')} crossbar cells"
            + (
                f", {cost['activation_bytes'] / 1024.0:.1f} KiB activations"
                if isinstance(cost.get("activation_bytes"), (int, float))
                else ""
            )
        )

    resources = summary.get("resources")
    if resources:
        lines.append("")
        peak = resources.get("max_rss_bytes")
        cpu = resources.get("cpu_seconds")
        faults = resources.get("minor_faults")
        lines.append(
            f"Resources: {resources['samples']} samples "
            f"({resources['worker_samples']} from workers)"
            + (
                f", peak RSS {peak / (1024.0 * 1024.0):.1f} MiB"
                if isinstance(peak, (int, float))
                else ""
            )
            + (
                f", CPU {cpu:.2f}s"
                if isinstance(cpu, (int, float))
                else ""
            )
            + (
                f", {faults} minor page faults"
                if isinstance(faults, (int, float))
                else ""
            )
            + f", {resources['heartbeats']} heartbeats"
            + (
                f", {resources['stalls']} STALL WARNING(S)"
                if resources["stalls"]
                else ""
            )
        )

    profile = summary.get("profile")
    if profile:
        lines.append("")
        interval = profile.get("interval")
        line = (
            f"Profile: {profile['samples']} stack samples across "
            f"{profile['events']} aggregate(s) "
            f"({profile['worker_events']} from workers)"
        )
        if interval:
            line += (
                f", {interval:g}s interval "
                f"≈ {format_seconds(profile['samples'] * interval)} sampled"
            )
        line += "  (flamegraph: python -m repro.telemetry flame <run>)"
        lines.append(line)

    forensics = summary.get("forensics")
    if forensics:
        lines.append("")
        flipped = forensics.get("flipped", 0)
        line = (
            f"Fault forensics: {forensics.get('draws', 0)} probed draws, "
            f"{forensics.get('samples', 0)} sample evaluations, "
            f"{flipped} prediction flips"
        )
        divergence = forensics.get("first_divergence") or {}
        if divergence:
            leader = next(iter(divergence.items()))
            line += (
                f"; first divergence most often at {leader[0]} "
                f"({leader[1]}×)"
            )
        lines.append(line)
        worst = forensics.get("max_rel_l2")
        if worst:
            lines.append(
                f"  max relative L2 deviation {worst['rel_l2']:.4g} "
                f"at {worst['layer']} "
                "(details: python -m repro.telemetry forensics <run>)"
            )

    defect = summary.get("defect") or {}
    if defect:
        lines.append("")
        lines.append("Defect evaluation (per testing rate):")
        for rate, stats in defect.items():
            lines.append(
                f"  p_sa={rate:<8} {stats['draws']:>4} draws   "
                f"mean {stats['mean_accuracy']:6.2f}%  "
                f"+/- {stats['std_accuracy']:5.2f}  "
                f"[{stats['min_accuracy']:.2f}, {stats['max_accuracy']:.2f}]"
            )

    spans = summary.get("spans") or {}
    if spans:
        lines.append("")
        lines.append("Spans (wall-clock by scope):")
        width = max(len(path) for path in spans)
        for path, entry in sorted(
            spans.items(), key=lambda item: -item[1]["seconds"]
        ):
            lines.append(
                f"  {path:<{width}}  ×{entry['count']:<4} "
                f"{format_seconds(entry['seconds'])}"
            )
            workers = entry.get("workers") or {}
            if any(label != "main" for label in workers):
                for label, stats in sorted(workers.items()):
                    lines.append(
                        f"    {label:<{max(width - 2, 1)}}  "
                        f"×{stats['count']:<4} "
                        f"{format_seconds(stats['seconds'])}"
                    )

    if top is not None:
        if top < 1:
            raise ValueError("top must be >= 1")
        lines.extend(_top_tables(summary, top))
    return "\n".join(lines)
