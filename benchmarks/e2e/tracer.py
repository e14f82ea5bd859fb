"""Outside-in span tracer for the end-to-end benchmark.

The tracer wraps a fixed list of public ``repro`` callables by attribute
replacement, records one span per call (name, start, end, parent span,
op id) in memory, and puts every original attribute back on
:meth:`Tracer.restore`.  Nothing inside ``repro`` is edited or imported
for measurement: the ruler is this file, ``time.perf_counter`` and the
standard library.

Only the thread and process that installed the tracer record spans.  Pool
workers forked while it is installed restore the originals in their own
memory, so pooled work runs untraced and shows up as the parent's
``parallel.map`` span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Name of the root span the harness opens around every op.
OP_SPAN = "e2e.op"
#: Sentinel for an exhausted iterator.
_END = object()


def _count_cells(tracer: "Tracer", args: tuple, result) -> None:
    # WeightSpaceFaultModel.apply_with_stats(self, weights, p_sa, rng, ...)
    tracer.add("reram.cells_drawn", args[1].size)


def _count_map(tracer: "Tracer", args: tuple, result) -> None:
    # ParallelMap.map(self, fn, tasks, broadcast=None)
    tracer.add("parallel.tasks", len(result))
    if args[0].workers > 1:
        tracer.add("parallel.pooled_maps", 1)


def _count_plan(tracer: "Tracer", args: tuple, plan) -> None:
    """Cells whose pretrain an earlier cell of the same pass computed.

    ``run_pipeline_cell`` pretrains from ``(arch, seed, profile scale)``
    alone, so within one plan every cell after the first with a given
    ``(arch, seed)`` recomputes an identical model.
    """
    seen = set()
    for cell in plan.cells:
        key = (cell.arch, cell.seed)
        if key in seen:
            tracer.add("experiments.pretrain.redundant_cells", 1)
        seen.add(key)
        tracer.add("experiments.pretrain.cells", 1)


@dataclass(frozen=True)
class Target:
    """One traced callable: span name, where it lives, how to count it."""

    name: str
    module: str
    attr: str
    #: ``"iter"`` wraps a generator function with one span per item.
    kind: str = "call"
    count: Optional[Callable[["Tracer", tuple, object], None]] = None
    #: For a module-level function: replace every ``repro`` binding of it
    #: (``True``) or only the one in ``module``.
    everywhere: bool = True


#: Every traced call, ``<layer>.<fn>``; layers are ``repro`` subpackages.
TARGETS: Tuple[Target, ...] = (
    Target("datasets.loader.batch", "repro.datasets.loader",
           "DataLoader.__iter__", kind="iter"),
    Target("nn.conv2d.forward", "repro.nn.conv", "Conv2d.forward"),
    Target("nn.conv2d.backward", "repro.nn.conv", "Conv2d.backward"),
    # As bound in the conv module only: pooling lowers through them too.
    Target("nn.im2col", "repro.nn.conv", "im2col", everywhere=False),
    Target("nn.col2im", "repro.nn.conv", "col2im", everywhere=False),
    Target("nn.batchnorm2d.forward", "repro.nn.norm", "BatchNorm2d.forward"),
    Target("nn.batchnorm2d.backward", "repro.nn.norm", "BatchNorm2d.backward"),
    Target("nn.linear.forward", "repro.nn.linear", "Linear.forward"),
    Target("nn.linear.backward", "repro.nn.linear", "Linear.backward"),
    Target("nn.sgd.step", "repro.nn.optim", "SGD.step"),
    Target("reram.apply_with_stats", "repro.reram.faults",
           "WeightSpaceFaultModel.apply_with_stats", count=_count_cells),
    Target("core.inject", "repro.core.injector", "FaultInjector.inject"),
    Target("core.restore", "repro.core.injector", "FaultInjector.restore"),
    Target("core.evaluate_accuracy", "repro.core.evaluate", "evaluate_accuracy"),
    Target("core.evaluate_defect_accuracy", "repro.core.evaluate",
           "evaluate_defect_accuracy"),
    Target("core.train_epoch", "repro.core.training", "Trainer.train_epoch"),
    Target("core.simulate_fleet", "repro.core.fleet", "simulate_fleet"),
    Target("parallel.map", "repro.parallel.executor", "ParallelMap.map",
           count=_count_map),
    Target("telemetry.emit", "repro.telemetry.run", "TelemetryRun.emit"),
    Target("telemetry.close", "repro.telemetry.run", "TelemetryRun.close"),
    Target("experiments.pretrain_model", "repro.experiments.runner",
           "pretrain_model"),
    Target("experiments.train_fault_tolerant", "repro.experiments.runner",
           "train_fault_tolerant"),
    Target("sweep.run_sweep", "repro.sweep.execute", "run_sweep"),
    Target("sweep.expand_plan", "repro.sweep.plan", "expand_plan",
           count=_count_plan),
)


def _bindings(obj: object) -> Iterable[Tuple[object, str]]:
    """Every ``(module, name)`` of a loaded ``repro`` module bound to ``obj``.

    A function imported by name into other modules (``evaluate_accuracy``
    is bound in five) is called through each of those bindings, so all
    of them are replaced.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is obj:
                yield module, name


class Tracer:
    """Records spans around :data:`TARGETS` while installed.

    Spans are ``[id, parent_id, op_id, name, start, end]`` lists kept in
    memory; counts are plain sums keyed by name.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._op: Optional[int] = None
        #: ``(owner, attr, original, owner_had_own_attr)`` per replacement.
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._thread = threading.get_ident()
        self._batches_seen: set = set()

    # -- install / restore -------------------------------------------------
    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for target in TARGETS:
                self._install_one(target)
        except BaseException:
            self.restore()
            raise
        # A pool worker forked while the tracer is installed puts the
        # originals back in its own copy of memory, so pooled work runs
        # at full speed.  After restore() this is a no-op.
        os.register_at_fork(after_in_child=self.restore)
        return self

    def _install_one(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = getattr(owner, attr)
            self._replace(owner, attr, self._wrap(target, original))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(target, original)
        holders = (
            list(_bindings(original)) if target.everywhere else [(module, attr)]
        )
        for holder, name in holders:
            self._replace(holder, name, wrapped)

    def _replace(self, owner: object, attr: str, value: object) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- recording ---------------------------------------------------------
    def _recording(self) -> bool:
        """Inside an op, on the installing thread: the harness's own
        checks between ops call traced functions too."""
        return self._op is not None and threading.get_ident() == self._thread

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [span_id, parent, self._op, name, time.perf_counter(), None]
        )
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id][5] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    @contextmanager
    def op(self, index: int):
        """Root span of one benchmark op; nested spans carry its id."""
        self._op = index
        span_id = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(span_id)
            self._op = None

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        if target.kind == "iter":
            return self._wrap_iter(target, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            span_id = tracer._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id)
            if target.count is not None:
                target.count(tracer, args, result)
            return result

        return traced

    def _wrap_iter(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        def items(loader, inner):
            while True:
                span_id = tracer._open(target.name)
                try:
                    item = next(inner, _END)
                finally:
                    tracer._close(span_id)
                if item is _END:
                    # Running off the end yields no batch: drop its span
                    # (the last one recorded, as nothing nests in it).
                    if span_id == len(tracer.spans) - 1:
                        tracer.spans.pop()
                    return
                tracer._count_batch(loader, item)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer._recording():
                return inner
            return items(args[0], inner)

        return traced

    def _count_batch(self, loader, batch) -> None:
        """Count batches, and those a non-shuffled loader already yielded."""
        self.add("datasets.loader.batches", 1)
        if getattr(loader, "shuffle", True):
            return
        digest = hashlib.blake2b(digest_size=16)
        for array in batch:
            digest.update(str(array.shape).encode())
            digest.update(memoryview(array.tobytes()))
        key = digest.digest()
        if key in self._batches_seen:
            self.add("datasets.loader.repeat_batches", 1)
        self._batches_seen.add(key)


# -- analysis (pure functions over span lists) ------------------------------
def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, _, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (inclusive) and ``self_s``."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span_id, _, _, name, start, end in spans:
        row = table[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += own[span_id]
    return dict(table)
