"""Per-layer fault-sensitivity analysis.

A diagnostic tool on top of the paper's fault model: inject stuck-at
faults into *one* crossbar-resident tensor at a time and measure the
accuracy drop.  This tells a system designer which layers dominate the
stability problem — e.g. whether to spend redundant columns (a baseline
the paper discusses) on the first conv or on the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from .. import nn
from ..datasets.loader import DataLoader
from ..forensics import DeviationProbe, ForensicsConfig
from ..forensics.aggregate import aggregate_payloads
from ..parallel import Broadcast, ModelBroadcast, ParallelMap
from ..reram.deploy import crossbar_parameters
from ..reram.faults import WeightSpaceFaultModel
from ..seeding import draw_streams, resolve_base_seed
from ..telemetry import current as _telemetry
from .evaluate import evaluate_accuracy

__all__ = ["LayerSensitivity", "layer_sensitivity"]


@dataclass
class LayerSensitivity:
    """Sensitivity of one tensor: accuracy when only it is faulted.

    ``std_accuracy`` is the spread over the ``num_runs`` Monte Carlo
    draws behind ``mean_accuracy`` — two layers with the same mean drop
    but very different stds call for different mitigation budgets.
    """

    name: str
    num_weights: int
    mean_accuracy: float
    accuracy_drop: float
    std_accuracy: float = 0.0
    num_runs: int = 0


def _layer_draw_task(task: tuple, context: Dict[str, Any]) -> tuple:
    """One (layer, run) cell of the sweep: fault one tensor, evaluate.

    ``task`` is ``(name, draw, seed_stream)``.  Returns ``(accuracy,
    payload)``; the tensor is restored.  Without forensics ``payload`` is
    ``None``.  With forensics the same ``fault_model.apply`` draw is
    replayed through a :class:`~repro.forensics.DeviationProbe`: the
    accuracy is bit-identical to the plain cell's, and the payload traces
    how the one faulted tensor's error propagates through the *other*
    layers.
    """
    name, draw, seed_stream = task
    model = context["model"]
    loader = context["loader"]
    fault_model = context["fault_model"]
    p_sa = context["p_sa"]
    param = dict(crossbar_parameters(model))[name]
    pristine = param.data.copy()
    rng = np.random.default_rng(seed_stream)
    if context["forensics"] is None:
        param.data[...] = fault_model.apply(pristine, p_sa, rng)
        try:
            return evaluate_accuracy(model, loader), None
        finally:
            param.data[...] = pristine
    faulted = {name: fault_model.apply(pristine, p_sa, rng)}
    probe = DeviationProbe(model, context["forensics"])
    accuracy, payload = probe.compare(loader, faulted)
    telemetry = _telemetry()
    telemetry.metrics.counter("forensics/draws_total").inc()
    telemetry.metrics.counter("forensics/prediction_flips_total").inc(
        int(payload["num_flipped"])
    )
    telemetry.emit(
        "forensics_draw", p_sa=p_sa, target=name, draw=draw, **payload
    )
    return accuracy, payload


def layer_sensitivity(
    model: nn.Module,
    loader: DataLoader,
    p_sa: float,
    num_runs: int = 10,
    fault_model: Optional[WeightSpaceFaultModel] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    forensics: Optional[ForensicsConfig] = None,
) -> List[LayerSensitivity]:
    """Fault each crossbar-resident tensor in isolation.

    Returns one :class:`LayerSensitivity` per tensor, sorted most
    sensitive first.  The model is left untouched.

    Seeding follows the library's Monte Carlo contract: cell ``(i, j)``
    (layer ``i``, run ``j``) gets the independent stream behind
    ``seed + i*num_runs + j``; without a ``seed``, a base seed is drawn
    from the process-wide policy stream.  The cells run through
    :meth:`repro.parallel.ParallelMap.map` on ``workers`` processes, with
    bit-identical results at any worker count.

    ``forensics`` replays every (layer, run) cell through a
    :class:`~repro.forensics.DeviationProbe`: one ``forensics_draw``
    event per cell (tagged ``target=<faulted tensor>``) and one
    draw-order-aggregated ``forensics_eval`` event per target layer,
    tracing how each tensor's faults propagate through the rest of the
    network.  Accuracy numbers are unchanged.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    fault_model = fault_model or WeightSpaceFaultModel()
    targets = crossbar_parameters(model)
    clean = evaluate_accuracy(model, loader)
    base_seed = resolve_base_seed(seed)
    streams = draw_streams(base_seed, len(targets) * num_runs)
    tasks = [
        (name, j, streams[i * num_runs + j])
        for i, (name, _) in enumerate(targets)
        for j in range(num_runs)
    ]
    cells = ParallelMap(workers).map(
        _layer_draw_task,
        tasks,
        Broadcast(
            model=ModelBroadcast(model),
            loader=loader,
            fault_model=fault_model,
            p_sa=p_sa,
            forensics=forensics,
        ),
    )
    results: List[LayerSensitivity] = []
    for i, (name, param) in enumerate(targets):
        layer_cells = cells[i * num_runs : (i + 1) * num_runs]
        cell_accuracies = [accuracy for accuracy, _ in layer_cells]
        mean_acc = float(np.mean(cell_accuracies))
        results.append(
            LayerSensitivity(
                name=name,
                num_weights=param.size,
                mean_accuracy=mean_acc,
                accuracy_drop=clean - mean_acc,
                std_accuracy=float(np.std(cell_accuracies)),
                num_runs=num_runs,
            )
        )
        if forensics is not None:
            # Per-target fold in draw order: bit-identical at any worker
            # count, matching the defect-eval aggregation contract.
            aggregate = aggregate_payloads(
                [payload for _, payload in layer_cells]
            )
            aggregate["p_sa"] = p_sa
            aggregate["target"] = name
            _telemetry().emit("forensics_eval", **aggregate)
    results.sort(key=lambda s: s.accuracy_drop, reverse=True)
    return results
