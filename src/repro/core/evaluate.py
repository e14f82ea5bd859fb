"""Accuracy evaluation, with and without stuck-at faults.

``evaluate_defect_accuracy`` implements the paper's testing protocol
(Algorithm 1, Testing): draw ``num_runs`` independent fault patterns at the
target rate, evaluate each faulted model on the test set, and average —
the defect accuracy ``Acc_defect`` of Section III.

Provenance: every draw uses its own generator seeded ``seed +
draw_index``, the per-draw seeds are emitted on the telemetry event
stream, and the base seed is recorded on the returned
:class:`DefectEvaluation` — so any individual fault pattern behind a
reported ``Acc_defect`` can be re-materialised.
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
    seed_stream: Union[int, np.random.SeedSequence],
) -> float:
    """One fault draw: inject, evaluate, restore.  The pure per-draw unit.

    Defect evaluation and fleet simulation run it for every draw, in
    process or in a ``repro.parallel`` worker: accuracy is a
    deterministic function of the model weights, the loader,
    ``fault_cfg`` and ``seed_stream`` alone.  ``seed_stream`` is the
    draw's own stream, an int or :class:`~numpy.random.SeedSequence` (see
    :func:`repro.seeding.draw_streams`).  The model is restored before
    returning.
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


def _defect_draw_task(task: tuple, context: Dict[str, Any]) -> tuple:
    """One draw of a defect evaluation, in process or in a pool worker.

    ``task`` is ``(draw_index, draw_seed, seed_stream)``; ``draw_seed`` is
    the scalar provenance value emitted on the ``defect_draw`` event.
    Returns ``(accuracy, payload)``.  Without forensics ``payload`` is
    ``None``.  With forensics the draw's fault pattern comes from the
    same injector call (the same RNG use and ``fault_inject`` event) and
    is replayed through a :class:`~repro.forensics.DeviationProbe`,
    whose accuracy is bit-identical to the plain evaluation's.
    """
    draw, draw_seed, seed_stream = task
    model = context["model"]
    cfg = context["cfg"]
    forensics = context["forensics"]
    payload = None
    if forensics is None:
        accuracy = evaluate_one_draw(
            model, context["loader"], cfg, seed_stream
        )
    else:
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
        probe = DeviationProbe(model, forensics)
        accuracy, payload = probe.compare(context["loader"], faulted)
    telemetry = _telemetry()
    telemetry.metrics.counter("eval/fault_draws_total").inc()
    telemetry.metrics.histogram("eval/defect_accuracy").observe(accuracy)
    telemetry.emit(
        "defect_draw",
        p_sa=cfg.p_sa,
        draw=draw,
        seed=draw_seed,
        accuracy=accuracy,
    )
    if payload is not None:
        telemetry.metrics.counter("forensics/draws_total").inc()
        telemetry.metrics.counter("forensics/prediction_flips_total").inc(
            int(payload["num_flipped"])
        )
        telemetry.emit(
            "forensics_draw", p_sa=cfg.p_sa, draw=draw, seed=draw_seed,
            **payload,
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
        Base seed of the evaluation: draw ``i`` used generator
        ``default_rng(seed + i)``, so every per-draw pattern can be
        rebuilt from the result.  ``None`` only for a ``p_sa=0``
        evaluation given no seed, which draws no faults.
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

    Draw ``i`` uses its own stream ``SeedSequence(seed + i)``, with full
    provenance.  Without a ``seed``, a base seed is drawn from the
    process-wide policy stream and recorded on the result, so every
    evaluation is re-materialisable.

    The draws run through :meth:`repro.parallel.ParallelMap.map`:
    ``workers`` sizes its process pool (``None`` defers to
    ``REPRO_WORKERS``; 0/1 run in process).  Results are bit-identical at
    any worker count and chunk size.

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
    base_seed = resolve_base_seed(seed)
    streams = draw_streams(base_seed, num_runs)
    tasks = [(i, base_seed + i, streams[i]) for i in range(num_runs)]
    # Results come back in task (draw) order at any worker count, so the
    # mean and the forensic fold are bit-identical however the draws ran.
    results = ParallelMap(workers).map(
        _defect_draw_task,
        tasks,
        Broadcast(
            model=ModelBroadcast(model),
            loader=loader,
            cfg=cfg,
            forensics=forensics,
        ),
        label=f"defect_eval p_sa={p_sa:g}",
    )
    accuracies = [accuracy for accuracy, _ in results]
    aggregate = None
    if forensics is not None:
        aggregate = aggregate_payloads([payload for _, payload in results])
        aggregate["p_sa"] = p_sa
        aggregate["target"] = None
        telemetry.emit("forensics_eval", seed=base_seed, **aggregate)
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
