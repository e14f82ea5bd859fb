"""Statistical sampling profiler: function-level CPU attribution.

Spans answer *that* ``defect_eval`` took the wall-clock; this module
answers *which functions inside it* burned the time.  A daemon thread
periodically reads the target thread's Python stack out of
``sys._current_frames()`` (paced drift-free by a
:class:`~repro.telemetry.scheduling.DeadlineScheduler`), prepends the
active span path as synthetic root frames, and counts each distinct
stack in a mergeable :class:`StackAggregate`.  Sampling never touches
the profiled code — there are no tracing hooks, no per-call overhead —
so the default rate (:data:`DEFAULT_PROFILE_INTERVAL`, 100 Hz) costs
well under the documented 5% overhead budget.

Two layers:

* :class:`StackSampler` — the bare sampler (thread + aggregate), usable
  standalone; ``repro.bench`` runs one around each measured case when
  profiling is requested.
* :class:`StackProfiler` — the run-bound wrapper (mirroring
  :class:`~repro.telemetry.ResourceMonitor`): attached by
  ``telemetry.session(..., profile=True)`` in the parent and by every
  ``repro.parallel`` worker chunk, it emits the final aggregate as one
  ``profile_stacks`` event, so worker profiles ride back through the
  normal event-merge path stamped ``worker_pid``.

Exports are byte-deterministic for a given sample multiset (stacks are
sorted on every output path), regardless of how many worker aggregates
were merged: collapsed-stack text (:func:`render_collapsed`, the
Brendan Gregg ``frame;frame count`` format), speedscope JSON
(:func:`build_speedscope`), and a self-contained flamegraph SVG
(:func:`render_flamegraph_svg`) — the backing of ``python -m
repro.telemetry flame`` and the dashboard's flamegraph section.

This is the one module sanctioned to read ``sys._current_frames`` /
install profiling hooks; lint rule RL016 bans them everywhere else.
"""

from __future__ import annotations

import sys
import threading
import zlib
from html import escape
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .scheduling import DeadlineScheduler

__all__ = [
    "DEFAULT_PROFILE_INTERVAL",
    "SPAN_FRAME_PREFIX",
    "StackAggregate",
    "StackSampler",
    "StackProfiler",
    "frame_label",
    "function_totals",
    "merge_profile_events",
    "profile_interval_of",
    "render_collapsed",
    "build_speedscope",
    "validate_speedscope",
    "render_flamegraph_svg",
]

#: Default seconds between stack samples (100 Hz).
DEFAULT_PROFILE_INTERVAL = 0.01

#: Synthetic frame prefix marking span-path components at stack roots.
SPAN_FRAME_PREFIX = "span:"

#: Stack-walk depth cap (pathological recursion must not balloon keys).
_MAX_DEPTH = 128

#: Wire/collapsed-format separator between frames of one stack.
_FRAME_SEP = ";"

_PATH_MARKERS = ("/repro/", "/tests/", "/examples/")


def _shorten_path(filename: str) -> str:
    """Repo-relative source path: ``/a/b/src/repro/nn/f.py`` → ``repro/nn/f.py``.

    Files outside the repo (stdlib, numpy) collapse to their basename,
    so labels are stable across machines and virtualenv layouts.
    """
    norm = filename.replace("\\", "/")
    for marker in _PATH_MARKERS:
        index = norm.rfind(marker)
        if index >= 0:
            return norm[index + 1 :]
    return norm.rsplit("/", 1)[-1] or norm


def frame_label(filename: str, funcname: str) -> str:
    """Canonical ``path:function`` frame label (separator-safe)."""
    label = f"{_shorten_path(filename)}:{funcname}"
    # The wire format joins frames with ";" and collapsed text splits on
    # whitespace; labels must never contain either.
    return label.replace(_FRAME_SEP, ",").replace(" ", "_")


class StackAggregate:
    """Mergeable multiset of sampled call stacks.

    ``counts`` maps a root-first frame tuple to how many samples landed
    there.  Merging is commutative and associative — parent and worker
    aggregates combine in any order to the same multiset, which is what
    makes every export byte-identical regardless of worker count.
    """

    def __init__(self) -> None:
        self.counts: Dict[Tuple[str, ...], int] = {}

    @property
    def samples(self) -> int:
        """Total samples across every stack."""
        return sum(self.counts.values())

    def add(self, stack: Tuple[str, ...], count: int = 1) -> None:
        """Count ``count`` samples of ``stack`` (root first)."""
        if not stack or count <= 0:
            return
        self.counts[stack] = self.counts.get(stack, 0) + count

    def merge(self, other: "StackAggregate") -> "StackAggregate":
        """Add every count of ``other`` into this aggregate."""
        for stack, count in other.counts.items():
            self.add(stack, count)
        return self

    def to_wire(self) -> Dict[str, int]:
        """JSON-friendly ``{"a;b;c": count}``, sorted by stack."""
        return {
            _FRAME_SEP.join(stack): count
            for stack, count in sorted(self.counts.items())
        }

    @classmethod
    def from_wire(cls, stacks: Mapping[str, int]) -> "StackAggregate":
        aggregate = cls()
        for key, count in stacks.items():
            aggregate.add(tuple(key.split(_FRAME_SEP)), int(count))
        return aggregate


class StackSampler:
    """Daemon thread sampling one target thread's Python stack.

    Telemetry-agnostic: the result is just :attr:`aggregate`.  The
    target defaults to the thread that calls :meth:`start` (the sampler
    thread reads it from ``sys._current_frames()`` by ident, so it never
    sees its own frames).  ``clock``/``waiter`` are forwarded to the
    :class:`DeadlineScheduler` for fake-clock tests.
    """

    def __init__(
        self,
        interval: float = DEFAULT_PROFILE_INTERVAL,
        span_tracker=None,
        clock=None,
        waiter=None,
        max_depth: int = _MAX_DEPTH,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.aggregate = StackAggregate()
        self.max_depth = max_depth
        self._spans = span_tracker
        self._clock = clock
        self._waiter = waiter
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target_ident: Optional[int] = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def sample_once(self) -> None:
        """Capture one stack of the target thread into the aggregate."""
        frame = sys._current_frames().get(self._target_ident)
        if frame is None:
            return
        labels: List[str] = []
        try:
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                labels.append(frame_label(code.co_filename, code.co_name))
                frame = frame.f_back
                depth += 1
        finally:
            del frame  # drop the frame reference promptly
        labels.reverse()
        prefix: Tuple[str, ...] = ()
        if self._spans is not None:
            prefix = tuple(
                SPAN_FRAME_PREFIX + name
                for name in self._spans.current_path()
            )
        self.aggregate.add(prefix + tuple(labels))

    def _loop(self) -> None:
        scheduler = DeadlineScheduler(
            self.interval, self._stop, clock=self._clock, waiter=self._waiter
        )
        while scheduler.wait_for_tick():
            self.sample_once()

    def start(self, target_ident: Optional[int] = None) -> "StackSampler":
        """Begin sampling (idempotent); targets the calling thread."""
        if self._thread is not None:
            return self
        self._target_ident = (
            target_ident if target_ident is not None else threading.get_ident()
        )
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> StackAggregate:
        """Stop the sampling thread (idempotent); returns the aggregate."""
        thread = self._thread
        if thread is None:
            return self.aggregate
        self._thread = None
        self._stop.set()
        thread.join(timeout=5.0)
        return self.aggregate

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class StackProfiler:
    """Run-bound sampling profiler (the :class:`ResourceMonitor` shape).

    ``start`` resolves the current run when none was given and is a
    no-op on a disabled run; ``stop`` emits the whole aggregate as one
    ``profile_stacks`` event and bumps ``profile/samples_total``, so a
    worker chunk's profile travels to the parent through the standard
    event/metrics merge.  Usable as a context manager.
    """

    def __init__(
        self, run=None, interval: float = DEFAULT_PROFILE_INTERVAL
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self._run = run
        self._sampler: Optional[StackSampler] = None

    @property
    def running(self) -> bool:
        return self._sampler is not None

    def start(self) -> "StackProfiler":
        """Start sampling the calling thread, if the run is enabled."""
        if self._sampler is not None:
            return self
        if self._run is None:
            from .run import current

            self._run = current()
        if not self._run.enabled:
            return self
        self._sampler = StackSampler(
            interval=self.interval, span_tracker=self._run.spans
        )
        self._sampler.start(target_ident=threading.get_ident())
        return self

    def stop(self) -> None:
        """Stop sampling and emit the aggregate (idempotent)."""
        sampler = self._sampler
        if sampler is None:
            return
        self._sampler = None
        aggregate = sampler.stop()
        run = self._run
        run.emit(
            "profile_stacks",
            stacks=aggregate.to_wire(),
            samples=aggregate.samples,
            interval=self.interval,
        )
        run.metrics.counter("profile/samples_total").inc(aggregate.samples)

    def __enter__(self) -> "StackProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- offline merge + exports -------------------------------------------------


def merge_profile_events(events: Iterable[dict]) -> StackAggregate:
    """Merge every ``profile_stacks`` event (parent and workers) of a run."""
    merged = StackAggregate()
    for event in events:
        if event.get("kind") != "profile_stacks":
            continue
        merged.merge(StackAggregate.from_wire(event.get("stacks") or {}))
    return merged


def profile_interval_of(events: Iterable[dict]) -> float:
    """The recorded sampling interval (first ``profile_stacks`` wins)."""
    for event in events:
        if event.get("kind") == "profile_stacks":
            interval = event.get("interval")
            if isinstance(interval, (int, float)) and interval > 0:
                return float(interval)
    return DEFAULT_PROFILE_INTERVAL


def render_collapsed(aggregate: StackAggregate) -> str:
    """Collapsed-stack text: one ``frame;frame;frame count`` line per stack.

    Lexically sorted by stack, so identical sample multisets render to
    identical bytes — and the output feeds any flamegraph toolchain.
    """
    lines = [
        f"{_FRAME_SEP.join(stack)} {count}"
        for stack, count in sorted(aggregate.counts.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def function_totals(
    aggregate: StackAggregate, include_spans: bool = False
) -> Dict[str, Dict[str, int]]:
    """Per-frame ``{"self": n, "total": n}`` sample counts, sorted by name.

    ``self`` counts samples where the frame was on top; ``total`` counts
    stacks containing it (once per stack, so recursion doesn't double
    count).  Synthetic ``span:`` frames are excluded unless asked for.
    """
    totals: Dict[str, Dict[str, int]] = {}
    for stack, count in aggregate.counts.items():
        frames = (
            stack
            if include_spans
            else tuple(
                f for f in stack if not f.startswith(SPAN_FRAME_PREFIX)
            )
        )
        if not frames:
            continue
        for frame in set(frames):
            entry = totals.setdefault(frame, {"self": 0, "total": 0})
            entry["total"] += count
        totals[frames[-1]]["self"] += count
    return dict(sorted(totals.items()))


#: The speedscope file-format schema URL (also the format marker).
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def build_speedscope(
    aggregate: StackAggregate,
    name: str = "repro profile",
    interval: float = DEFAULT_PROFILE_INTERVAL,
) -> dict:
    """A sampled-type speedscope document (https://speedscope.app).

    Frames are the sorted distinct labels; samples are the sorted stacks
    with per-stack weights of ``count * interval`` seconds — fully
    deterministic for a given sample multiset.
    """
    frame_names = sorted(
        {frame for stack in aggregate.counts for frame in stack}
    )
    index = {label: i for i, label in enumerate(frame_names)}
    samples: List[List[int]] = []
    weights: List[float] = []
    for stack, count in sorted(aggregate.counts.items()):
        samples.append([index[frame] for frame in stack])
        weights.append(count * interval)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.telemetry.profiling",
        "shared": {"frames": [{"name": label} for label in frame_names]},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def validate_speedscope(doc: dict) -> List[str]:
    """Every problem keeping ``doc`` from being a valid sampled profile."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    if doc.get("$schema") != SPEEDSCOPE_SCHEMA:
        problems.append(f"$schema must be {SPEEDSCOPE_SCHEMA!r}")
    frames = (doc.get("shared") or {}).get("frames")
    if not isinstance(frames, list) or any(
        not isinstance(f, dict) or not isinstance(f.get("name"), str)
        for f in frames
    ):
        problems.append("shared.frames must be a list of {name: str}")
        frames = []
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        problems.append("profiles must be a non-empty list")
        profiles = []
    for position, profile in enumerate(profiles):
        where = f"profiles[{position}]"
        if not isinstance(profile, dict):
            problems.append(f"{where} must be an object")
            continue
        if profile.get("type") != "sampled":
            problems.append(f"{where}.type must be 'sampled'")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            problems.append(f"{where} needs samples and weights lists")
            continue
        if len(samples) != len(weights):
            problems.append(
                f"{where}: {len(samples)} samples vs {len(weights)} weights"
            )
        for stack in samples:
            if any(
                not isinstance(i, int) or i < 0 or i >= len(frames)
                for i in stack
            ):
                problems.append(
                    f"{where}: sample frame index out of range"
                )
                break
    return problems


# -- flamegraph SVG ----------------------------------------------------------

_FLAME_ROW_HEIGHT = 17
_FLAME_MIN_RECT = 0.4  # px below which a box (and its subtree) is elided
_FLAME_MIN_TEXT = 42.0  # px below which a box stays unlabelled

#: Warm palette for ordinary frames (picked by label CRC, deterministic).
_FLAME_PALETTE = (
    "#e4572e",
    "#e0723a",
    "#dd8e46",
    "#d9a452",
    "#ce5b3f",
    "#e8683b",
    "#d4784d",
    "#e28f55",
)
#: Cool fixed color for synthetic span: frames (the span-tree roots).
_FLAME_SPAN_COLOR = "#5b7d9e"
_FLAME_ROOT_COLOR = "#8f9aa6"


def _flame_color(label: str) -> str:
    if label.startswith(SPAN_FRAME_PREFIX):
        return _FLAME_SPAN_COLOR
    crc = zlib.crc32(label.encode("utf-8"))
    return _FLAME_PALETTE[crc % len(_FLAME_PALETTE)]


def _build_flame_tree(counts: Mapping[Tuple[str, ...], int]) -> dict:
    root = {"name": "all", "value": 0, "children": {}}
    for stack, count in counts.items():
        root["value"] += count
        node = root
        for frame in stack:
            child = node["children"].get(frame)
            if child is None:
                child = {"name": frame, "value": 0, "children": {}}
                node["children"][frame] = child
            child["value"] += count
            node = child
    return root


def _flame_depth(node: dict) -> int:
    if not node["children"]:
        return 1
    return 1 + max(_flame_depth(child) for child in node["children"].values())


def render_flamegraph_svg(
    aggregate: StackAggregate,
    title: str = "CPU flamegraph",
    width: int = 960,
    interval: Optional[float] = None,
) -> str:
    """Self-contained flamegraph SVG (flames grow upward, root at bottom).

    Children are laid out in sorted-name order and widths derive only
    from sample counts, so the bytes are a pure function of the sample
    multiset.  Span-path frames render in a distinct cool color at the
    roots, visually joining the flamegraph to the span tree.
    """
    total = aggregate.samples
    root = _build_flame_tree(aggregate.counts)
    depth = _flame_depth(root) if total else 1
    height = (depth * _FLAME_ROW_HEIGHT) + 34
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#fffaf5"/>',
    ]
    subtitle = f"{total} samples"
    if interval is not None and total:
        subtitle += f" × {interval:g}s ≈ {total * interval:.2f}s"
    parts.append(
        f'<text x="8" y="15" font-size="13" fill="#333">'
        f"{escape(title)} — {escape(subtitle)}</text>"
    )
    if not total:
        parts.append(
            f'<text x="8" y="{height - 10}" fill="#777">(no samples)</text>'
        )
        parts.append("</svg>")
        return "".join(parts)

    def emit(node: dict, x: float, box_width: float, level: int) -> None:
        if box_width < _FLAME_MIN_RECT:
            return
        y = height - (level + 1) * _FLAME_ROW_HEIGHT
        color = (
            _FLAME_ROOT_COLOR if level == 0 else _flame_color(node["name"])
        )
        label = f"{node['name']} ({node['value']} samples)"
        parts.append(
            f'<g><title>{escape(label)}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{box_width:.2f}" '
            f'height="{_FLAME_ROW_HEIGHT - 1}" fill="{color}" rx="1"/>'
        )
        if box_width >= _FLAME_MIN_TEXT:
            text = escape(node["name"])
            # Crude but deterministic truncation at ~6.6 px per glyph.
            keep = max(int(box_width / 6.6), 3)
            if len(text) > keep:
                text = text[: keep - 1] + "…"
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + 12}" fill="#fff">'
                f"{text}</text>"
            )
        parts.append("</g>")
        cursor = x
        for name in sorted(node["children"]):
            child = node["children"][name]
            child_width = width * child["value"] / total
            emit(child, cursor, child_width, level + 1)
            cursor += child_width

    emit(root, 0.0, float(width), 0)
    parts.append("</svg>")
    return "".join(parts)
