"""Accuracy evaluation, with and without stuck-at faults.

``evaluate_defect_accuracy`` implements the paper's testing protocol
(Algorithm 1, Testing): draw ``num_runs`` independent fault patterns at the
target rate, evaluate each faulted model on the test set, and average —
the defect accuracy ``Acc_defect`` of Section III.

Provenance: when a ``seed`` is supplied (instead of a live ``rng``) every
draw uses its own generator seeded ``seed + draw_index``, the per-draw
seeds are emitted on the telemetry event stream, and the base seed is
recorded on the returned :class:`DefectEvaluation` — so any individual
fault pattern behind a reported ``Acc_defect`` can be re-materialised.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .. import nn
from ..datasets.loader import DataLoader
from ..forensics import DeviationProbe, ForensicsConfig
from ..forensics.aggregate import aggregate_payloads
from ..nn.cost import crossbar_footprint, model_cost
from ..parallel import Broadcast, ModelBroadcast, ParallelMap
from ..reram.deploy import crossbar_parameters
from ..reram.faults import WeightSpaceFaultModel
from ..seeding import draw_streams, resolve_base_seed
from ..telemetry import current as _telemetry
from ..telemetry.progress import ProgressTracker
from .injector import FaultInjector

__all__ = [
    "evaluate_accuracy",
    "FaultDrawSpec",
    "evaluate_one_draw",
    "DefectEvaluation",
    "evaluate_defect_accuracy",
    "emit_model_cost",
]


def evaluate_accuracy(model: nn.Module, loader: DataLoader) -> float:
    """Top-1 accuracy (%) of ``model`` on ``loader`` in eval mode.

    The forwards run under :func:`repro.nn.no_grad`; the model's training
    mode is restored afterwards, also when a forward raises.
    """
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    try:
        with nn.no_grad():
            for images, labels in loader:
                logits = model(images)
                correct += int((logits.argmax(axis=1) == labels).sum())
                total += len(labels)
    finally:
        model.train(was_training)
    if total == 0:
        raise ValueError("loader yielded no samples")
    return 100.0 * correct / total


@dataclass(frozen=True)
class FaultDrawSpec:
    """What one Monte Carlo fault draw injects (picklable task config).

    ``fault_model=None`` means the paper's default
    :class:`~repro.reram.faults.WeightSpaceFaultModel` (1.75 : 9.04
    SA0:SA1 split), resolved inside the injector.
    """

    p_sa: float
    fault_model: Optional[WeightSpaceFaultModel] = None


def evaluate_one_draw(
    model: nn.Module,
    loader: DataLoader,
    fault_cfg: FaultDrawSpec,
    seed_stream: Union[int, np.random.SeedSequence, np.random.Generator],
) -> float:
    """One fault draw: inject, evaluate, restore.  The pure per-draw unit.

    This is the function both the serial loops and ``repro.parallel``
    workers execute: accuracy is a deterministic function of the model
    weights, the loader, ``fault_cfg`` and ``seed_stream`` alone.
    ``seed_stream`` is anything ``np.random.default_rng`` accepts — an
    int or :class:`~numpy.random.SeedSequence` for an independent
    per-draw stream (the parallel contract), or a live ``Generator``,
    which is used *in place* and advanced (the legacy shared-stream
    protocol).  The model is restored before returning.
    """
    rng = np.random.default_rng(seed_stream)
    injector = FaultInjector(model, fault_model=fault_cfg.fault_model, rng=rng)
    with injector.faults(fault_cfg.p_sa):
        return evaluate_accuracy(model, loader)


def emit_model_cost(model: nn.Module, loader: DataLoader) -> None:
    """Emit the static per-layer cost breakdown, once per run and model.

    Best-effort observability: the shape probe runs one dummy forward, so
    any model the cost model cannot trace is logged and skipped rather
    than failing the evaluation.  The input shape comes from
    ``loader.dataset[0]`` — *never* from iterating the loader, which
    would consume its shuffle RNG and change subsequent batches.
    """
    telemetry = _telemetry()
    if not telemetry.enabled:
        return
    footprint = crossbar_footprint(model)
    key = f"model_cost:{type(model).__name__}:{footprint['params']}"
    if not telemetry.once(key):
        return
    try:
        sample = loader.dataset[0][0]
        cost = model_cost(model, (1,) + tuple(np.shape(sample)))
    except Exception as exc:
        logging.getLogger("repro.core").debug(
            "model cost unavailable for %s: %s", type(model).__name__, exc
        )
        return
    telemetry.emit("model_cost", model=type(model).__name__, **cost.as_dict())


def _defect_draw_task(task: tuple, context: Dict[str, Any]) -> float:
    """Per-draw task body shared by the serial and pool paths.

    ``task`` is ``(draw_index, draw_seed, seed_stream)``; ``draw_seed``
    is the scalar provenance value emitted on the ``defect_draw`` event
    (``None`` on the legacy shared-``rng`` path, where the stream *is*
    the shared generator).
    """
    draw, draw_seed, seed_stream = task
    accuracy = evaluate_one_draw(
        context["model"], context["loader"], context["cfg"], seed_stream
    )
    telemetry = _telemetry()
    telemetry.metrics.counter("eval/fault_draws_total").inc()
    telemetry.metrics.histogram("eval/defect_accuracy").observe(accuracy)
    telemetry.emit(
        "defect_draw",
        p_sa=context["cfg"].p_sa,
        draw=draw,
        seed=draw_seed,
        accuracy=accuracy,
    )
    return accuracy


def _forensic_draw_task(task: tuple, context: Dict[str, Any]) -> tuple:
    """Forensic twin of :func:`_defect_draw_task`.

    Draws the fault pattern through the *same* injector call (identical
    RNG consumption and ``fault_inject`` event), then replays the draw
    through a :class:`~repro.forensics.DeviationProbe` instead of a plain
    evaluation.  Returns ``(accuracy, payload)`` — the accuracy is
    bit-identical to what :func:`_defect_draw_task` would have returned.
    """
    draw, draw_seed, seed_stream = task
    model = context["model"]
    cfg = context["cfg"]
    rng = np.random.default_rng(seed_stream)
    injector = FaultInjector(model, fault_model=cfg.fault_model, rng=rng)
    injector.inject(cfg.p_sa)
    try:
        faulted = {
            name: param.data.copy()
            for name, param in crossbar_parameters(model)
        }
    finally:
        injector.restore()
    probe = DeviationProbe(model, context["forensics"])
    accuracy, payload = probe.compare(context["loader"], faulted)
    telemetry = _telemetry()
    telemetry.metrics.counter("eval/fault_draws_total").inc()
    telemetry.metrics.histogram("eval/defect_accuracy").observe(accuracy)
    telemetry.metrics.counter("forensics/draws_total").inc()
    telemetry.metrics.counter("forensics/prediction_flips_total").inc(
        int(payload["num_flipped"])
    )
    telemetry.emit(
        "defect_draw",
        p_sa=cfg.p_sa,
        draw=draw,
        seed=draw_seed,
        accuracy=accuracy,
    )
    telemetry.emit(
        "forensics_draw", p_sa=cfg.p_sa, draw=draw, seed=draw_seed, **payload
    )
    return accuracy, payload


@dataclass
class DefectEvaluation:
    """Result of a multi-run defect evaluation.

    Attributes
    ----------
    p_sa:
        Target testing stuck-at rate.
    mean_accuracy:
        ``Acc_defect``: mean accuracy over fault draws (%).
    std_accuracy:
        Std over fault draws (%).
    run_accuracies:
        The per-draw accuracies.
    seed:
        Base seed of the evaluation when it was seed-driven (draw ``i``
        used generator ``default_rng(seed + i)``); ``None`` when a live
        ``rng`` was supplied and the per-draw patterns are not
        reconstructable from the result alone.
    forensics:
        Aggregated per-layer deviation statistics (see
        :func:`repro.forensics.aggregate_payloads`) when the evaluation
        ran with a :class:`~repro.forensics.ForensicsConfig`; ``None``
        otherwise.  Folded in draw order, so bit-identical at any worker
        count.
    """

    p_sa: float
    mean_accuracy: float
    std_accuracy: float
    run_accuracies: List[float] = field(default_factory=list)
    seed: Optional[int] = None
    forensics: Optional[Dict[str, Any]] = None

    @property
    def num_runs(self) -> int:
        """Number of independent fault draws behind the mean."""
        return len(self.run_accuracies)

    @property
    def min_accuracy(self) -> float:
        return min(self.run_accuracies)

    @property
    def max_accuracy(self) -> float:
        return max(self.run_accuracies)


def evaluate_defect_accuracy(
    model: nn.Module,
    loader: DataLoader,
    p_sa: float,
    num_runs: int = 100,
    rng: Optional[np.random.Generator] = None,
    fault_model: Optional[WeightSpaceFaultModel] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    forensics: Optional[ForensicsConfig] = None,
) -> DefectEvaluation:
    """Average accuracy over ``num_runs`` independent fault draws.

    The paper's testing protocol uses ``num_runs=100`` (Algorithm 1,
    Testing; Section III reports ``Acc_defect`` as the mean over 100
    random fault patterns) — the default here.  The model's weights are
    restored after every draw; the function leaves the model exactly as
    it found it.

    Pass either a live ``rng`` (one stream shared across draws, the
    legacy protocol) or a ``seed``: draw ``i`` then uses its own stream
    ``SeedSequence(seed + i)``, with full provenance.  With neither, a
    base seed is drawn from the process-wide policy stream and recorded
    on the result, so every evaluation is re-materialisable.

    ``workers`` distributes the draws over a ``repro.parallel`` process
    pool (``None`` defers to ``REPRO_WORKERS``; 0/1 run serial).  Results
    are bit-identical at any worker count and chunk size.  The shared
    ``rng`` protocol is order-dependent by construction, so it always
    runs serial — asking for workers with an ``rng`` records a telemetry
    fallback rather than silently changing the stream discipline.

    ``forensics`` enables fault forensics: each draw is replayed through
    a :class:`~repro.forensics.DeviationProbe` (clean vs faulted forwards
    over the same batches), per-draw ``forensics_draw`` events are
    emitted, and the draw-order aggregate lands on the result's
    ``forensics`` attribute and a ``forensics_eval`` event.  Accuracy
    numbers are unchanged — the probe evaluates the exact same fault
    patterns.  At ``p_sa=0`` there is nothing to trace and forensics is
    skipped along with the Monte Carlo loop.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    telemetry = _telemetry()
    cells = None
    if telemetry.enabled:
        emit_model_cost(model, loader)
        cells = crossbar_footprint(model)["crossbar_cells"]
    if p_sa == 0.0:
        # No faults: a single clean evaluation suffices and is exact.
        clean = evaluate_accuracy(model, loader)
        telemetry.emit(
            "defect_eval",
            p_sa=0.0,
            num_runs=1,
            seed=seed,
            mean_accuracy=clean,
            std_accuracy=0.0,
            crossbar_cells=cells,
        )
        return DefectEvaluation(0.0, clean, 0.0, [clean], seed=seed)
    cfg = FaultDrawSpec(p_sa=p_sa, fault_model=fault_model)
    pmap = ParallelMap(workers)
    if rng is not None:
        base_seed = None
        tasks = [(draw, None, rng) for draw in range(num_runs)]
        if pmap.workers > 1:
            telemetry.metrics.counter("parallel/fallbacks_total").inc()
            telemetry.emit(
                "parallel_fallback",
                reason="shared rng stream is order-dependent",
                workers=pmap.workers,
            )
    else:
        base_seed = resolve_base_seed(seed)
        streams = draw_streams(base_seed, num_runs)
        tasks = [
            (draw, base_seed + draw, streams[draw]) for draw in range(num_runs)
        ]
    task_fn = _forensic_draw_task if forensics is not None else _defect_draw_task
    if rng is None and pmap.workers > 1:
        results = pmap.map(
            task_fn,
            tasks,
            Broadcast(
                model=ModelBroadcast(model),
                loader=loader,
                cfg=cfg,
                forensics=forensics,
            ),
        )
    else:
        context = {
            "model": model,
            "loader": loader,
            "cfg": cfg,
            "forensics": forensics,
        }
        tracker = ProgressTracker(
            total=len(tasks), label=f"defect_eval p_sa={p_sa:g}"
        )
        results = []
        for task in tasks:
            results.append(task_fn(task, context))
            tracker.update()
        tracker.finish()
    aggregate = None
    if forensics is not None:
        accuracies = [accuracy for accuracy, _ in results]
        # Fold in draw (task) order — ParallelMap returns results in task
        # order, so the aggregate is bit-identical at any worker count.
        aggregate = aggregate_payloads([payload for _, payload in results])
        aggregate["p_sa"] = p_sa
        aggregate["target"] = None
        telemetry.emit("forensics_eval", seed=base_seed, **aggregate)
    else:
        accuracies = results
    evaluation = DefectEvaluation(
        p_sa,
        float(np.mean(accuracies)),
        float(np.std(accuracies)),
        accuracies,
        seed=base_seed,
        forensics=aggregate,
    )
    telemetry.emit(
        "defect_eval",
        p_sa=p_sa,
        num_runs=num_runs,
        seed=base_seed,
        mean_accuracy=evaluation.mean_accuracy,
        std_accuracy=evaluation.std_accuracy,
        crossbar_cells=cells,
    )
    return evaluation
