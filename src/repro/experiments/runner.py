"""Experiment runner: shared machinery for every table/figure.

The runner owns the full pipeline of the paper's Figure 1 flow:

    pretrain  ->  (optionally prune)  ->  stochastic fault-tolerant
    retraining (one-shot / progressive)  ->  defect evaluation over a
    grid of testing fault rates  ->  AccuracyReport rows.
"""

from __future__ import annotations

import copy
import logging
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .. import nn
from ..nn import SGD, CosineAnnealingLR
from ..core import (
    AccuracyReport,
    OneShotFaultTolerantTrainer,
    ProgressiveFaultTolerantTrainer,
    Trainer,
    default_progressive_schedule,
    evaluate_accuracy,
    evaluate_defect_accuracy,
    stability_score,
)
from ..datasets import DataLoader, make_synthetic_pair
from ..forensics import ForensicsConfig
from ..models import build_model
from ..reram.faults import WeightSpaceFaultModel
from ..telemetry import current as _telemetry
from .config import ExperimentScale

_log = logging.getLogger("repro.experiments")

__all__ = [
    "build_backbone",
    "make_loaders",
    "pretrain_model",
    "clone_model",
    "train_fault_tolerant",
    "evaluate_defect_grid",
    "method_report",
    "run_pipeline_cell",
]


def build_backbone(
    scale: ExperimentScale, num_classes: int, rng: np.random.Generator
) -> nn.Module:
    """Instantiate the scale's backbone for a given class count."""
    if scale.model == "mlp":
        in_features = scale.channels * scale.image_size**2
        return build_model(
            "mlp",
            rng=rng,
            in_features=in_features,
            hidden=[64, 32],
            num_classes=num_classes,
        )
    if scale.model == "simple_cnn":
        return build_model(
            "simple_cnn",
            rng=rng,
            in_channels=scale.channels,
            num_classes=num_classes,
            image_size=scale.image_size,
        )
    return build_model(
        scale.model,
        rng=rng,
        num_classes=num_classes,
        base_width=scale.base_width,
        in_channels=scale.channels,
    )


def make_loaders(
    scale: ExperimentScale, num_classes: int, seed_offset: int = 0
) -> Tuple[DataLoader, DataLoader]:
    """Build (train, test) loaders at this scale.

    When ``scale.use_real_cifar`` is set and the CIFAR binaries are on
    disk under ``data/``, the real datasets are used (10 classes ->
    CIFAR-10, otherwise CIFAR-100); the synthetic analogues otherwise.
    """
    if scale.use_real_cifar:
        from ..datasets import (
            cifar10_available,
            cifar100_available,
            load_cifar10,
            load_cifar100,
        )

        if num_classes == 10 and cifar10_available():
            train_set, test_set = load_cifar10()
            return (
                DataLoader(train_set, scale.batch_size, shuffle=True,
                           seed=scale.seed + 1),
                DataLoader(test_set, scale.batch_size * 2, shuffle=False),
            )
        if num_classes == 100 and cifar100_available():
            train_set, test_set = load_cifar100()
            return (
                DataLoader(train_set, scale.batch_size, shuffle=True,
                           seed=scale.seed + 1),
                DataLoader(test_set, scale.batch_size * 2, shuffle=False),
            )
    train_size = scale.train_size
    if num_classes >= scale.num_classes_large and scale.train_size_large:
        train_size = scale.train_size_large
    train_set, test_set = make_synthetic_pair(
        num_classes=num_classes,
        image_size=scale.image_size,
        train_size=train_size,
        test_size=scale.test_size,
        seed=scale.seed + seed_offset,
        noise_sigma=scale.noise_sigma,
        max_shift=scale.max_shift,
    )
    train_loader = DataLoader(
        train_set, scale.batch_size, shuffle=True, seed=scale.seed + 1
    )
    test_loader = DataLoader(test_set, scale.test_size, shuffle=False)
    return train_loader, test_loader


def pretrain_model(
    scale: ExperimentScale,
    num_classes: int,
    train_loader: DataLoader,
    test_loader: Optional[DataLoader] = None,
) -> Tuple[nn.Module, float]:
    """Standard pretraining (paper recipe: SGD momentum + cosine LR).

    Returns ``(model, acc_pretrain)``; ``acc_pretrain`` is evaluated on
    ``test_loader`` when given, else on the training loader.
    """
    rng = np.random.default_rng(scale.seed + 10)
    model = build_backbone(scale, num_classes, rng)
    optimizer = SGD(
        model.parameters(),
        lr=scale.lr,
        momentum=scale.momentum,
        weight_decay=scale.weight_decay,
    )
    scheduler = CosineAnnealingLR(optimizer, t_max=scale.pretrain_epochs)
    trainer = Trainer(model, optimizer, scheduler=scheduler)
    telemetry = _telemetry()
    with telemetry.span("pretrain"):
        trainer.fit(train_loader, scale.pretrain_epochs)
        eval_loader = test_loader if test_loader is not None else train_loader
        accuracy = evaluate_accuracy(model, eval_loader)
    telemetry.emit(
        "pretrain_done",
        scale=scale.name,
        num_classes=num_classes,
        accuracy=accuracy,
    )
    _log.debug("pretrained %s-class %s: %.2f%%", num_classes, scale.model,
               accuracy)
    return model, accuracy


def clone_model(model: nn.Module) -> nn.Module:
    """Deep copy of a model (weights, buffers, structure)."""
    return copy.deepcopy(model)


def train_fault_tolerant(
    model: nn.Module,
    method: str,
    p_sa_target: float,
    scale: ExperimentScale,
    train_loader: DataLoader,
    fault_model: Optional[WeightSpaceFaultModel] = None,
    rng: Optional[np.random.Generator] = None,
    preserve_sparsity: bool = False,
) -> nn.Module:
    """Retrain a copy of ``model`` with stochastic fault-tolerant training.

    Parameters
    ----------
    method:
        ``"one_shot"`` or ``"progressive"`` (Algorithm 1's two branches).
    p_sa_target:
        The target training stuck-at rate ``P_sa^T``.
    preserve_sparsity:
        Keep the backbone's pruning masks fixed during retraining (for
        fault-tolerant training of pruned models, as in Table II): any
        crossbar-resident tensor that is noticeably sparse has its zero
        pattern frozen.
    """
    if method not in ("one_shot", "progressive"):
        raise ValueError(f"unknown method {method!r}")
    rng = rng if rng is not None else np.random.default_rng(scale.seed + 20)
    telemetry = _telemetry()
    telemetry.emit(
        "ft_train_start",
        method=method,
        p_sa_target=p_sa_target,
        preserve_sparsity=preserve_sparsity,
    )
    retrained = clone_model(model)
    optimizer = SGD(
        retrained.parameters(),
        lr=scale.ft_lr,  # retraining starts from a trained model
        momentum=scale.momentum,
        weight_decay=scale.weight_decay,
    )
    if preserve_sparsity:
        from ..reram.deploy import crossbar_parameters

        for _, param in crossbar_parameters(retrained):
            zero_fraction = float(np.mean(param.data == 0.0))
            if zero_fraction > 0.05:
                optimizer.attach_mask(
                    param, (param.data != 0.0).astype(np.float64)
                )
    if method == "one_shot":
        scheduler = CosineAnnealingLR(optimizer, t_max=scale.ft_epochs)
        trainer = OneShotFaultTolerantTrainer(
            retrained,
            optimizer,
            p_sa_target=p_sa_target,
            fault_model=fault_model,
            rng=rng,
            scheduler=scheduler,
        )
        with telemetry.span("ft_train"):
            trainer.fit(train_loader, scale.ft_epochs)
        _log.debug("one-shot FT retraining at PsaT=%g done", p_sa_target)
        return retrained
    schedule = default_progressive_schedule(
        p_sa_target, num_levels=scale.progressive_levels
    )
    # Algorithm 1 trains the full epoch budget at *every* level (progressive
    # training intentionally spends more compute than one-shot).  The scale
    # knob ``progressive_epoch_fraction`` trades fidelity for runtime.
    epochs_per_level = max(
        1, round(scale.ft_epochs * scale.progressive_epoch_fraction)
    )
    scheduler = CosineAnnealingLR(
        optimizer, t_max=len(schedule) * epochs_per_level
    )
    trainer = ProgressiveFaultTolerantTrainer(
        retrained,
        optimizer,
        p_sa_schedule=schedule,
        fault_model=fault_model,
        rng=rng,
        scheduler=scheduler,
    )
    with telemetry.span("ft_train"):
        trainer.fit(train_loader, epochs_per_level)
    _log.debug(
        "progressive FT retraining at PsaT=%g done (schedule %s)",
        p_sa_target,
        [round(p, 5) for p in schedule],
    )
    return retrained


def evaluate_defect_grid(
    model: nn.Module,
    loader: DataLoader,
    rates: Iterable[float],
    num_runs: int,
    seed: int = 0,
    fault_model: Optional[WeightSpaceFaultModel] = None,
    workers: int = 0,
    forensics: Optional[ForensicsConfig] = None,
) -> Dict[float, float]:
    """Mean defect accuracy at every testing rate (paper's test protocol).

    Each rate gets its own deterministic seed block (``seed + rate·1e6``)
    and every draw within it a per-draw seed, so any individual fault
    pattern behind a table cell can be re-materialised from the telemetry
    event log.  ``workers`` fans the draws of each rate out over a
    ``repro.parallel`` pool; the seed blocks make the grid bit-identical
    at any worker count.  ``forensics`` threads a
    :class:`~repro.forensics.ForensicsConfig` into every evaluation, so
    the recorded run carries the per-layer deviation heatmap (layers ×
    P_sa) the dashboard and ``telemetry forensics`` CLI render.
    """
    telemetry = _telemetry()
    results: Dict[float, float] = {}
    with telemetry.span("defect_grid"):
        for rate in rates:
            evaluation = evaluate_defect_accuracy(
                model,
                loader,
                rate,
                num_runs=num_runs,
                seed=seed + int(rate * 1e6),
                fault_model=fault_model,
                workers=workers,
                forensics=forensics,
            )
            results[rate] = evaluation.mean_accuracy
    return results


def run_pipeline_cell(
    scale: ExperimentScale,
    variant: str,
    p_sa: float,
    p_sa_train: Optional[float] = None,
    sparsity: float = 0.0,
    quant_bits: int = 0,
    num_classes: Optional[int] = None,
) -> Dict[str, Optional[float]]:
    """One sweep cell: pretrain -> (prune) -> (retrain) -> (quantize) -> score.

    The full Figure-1 flow at one grid point, composed from the pipeline
    stages above — this is what every ``repro.sweep`` cell executes.  The
    result is deterministic given ``scale`` (cells pin ``scale.seed`` and
    run the Monte Carlo evaluation serial), so a cell computes identical
    bits no matter which sweep worker hosts it.

    Parameters
    ----------
    scale:
        Fully-resolved scale; ``scale.model`` is the cell's architecture
        and ``scale.seed`` its seed.
    variant:
        ``"baseline"`` (no retraining), ``"one_shot"`` or
        ``"progressive"``.
    p_sa:
        Testing stuck-at rate the cell is scored at.
    p_sa_train:
        Training stuck-at rate ``P_sa^T``; defaults to ``p_sa`` (train at
        the rate you expect to see, the paper's Table-I insight).
        Ignored for the baseline variant.
    sparsity:
        Magnitude-pruning ratio applied after pretraining (0 = dense);
        retraining preserves the zero pattern.
    quant_bits:
        Post-training symmetric weight quantization to ``2**quant_bits``
        magnitude levels (0 = full precision).
    num_classes:
        Class count of the task; ``scale.num_classes_small`` by default.

    Returns
    -------
    dict
        ``{"acc_pretrain", "acc_retrain", "acc_defect", "acc_std",
        "stability_score", "p_sa", "p_sa_train"}`` — accuracies in
        percent, ``stability_score`` per equation (1).
    """
    classes = num_classes if num_classes is not None else scale.num_classes_small
    telemetry = _telemetry()
    with telemetry.span("sweep_cell"):
        train_loader, test_loader = make_loaders(scale, classes)
        model, acc_pretrain = pretrain_model(
            scale, classes, train_loader, test_loader
        )
        if sparsity > 0.0:
            # Pruning and quantization stay cold unless a cell uses them
            # (repro.sweep.execute loads both before its pool forks).
            from ..pruning import magnitude_prune

            magnitude_prune(model, sparsity)
        if variant == "baseline":
            evaluated = model
            effective_train_rate = None
        else:
            effective_train_rate = p_sa_train if p_sa_train is not None else p_sa
            evaluated = train_fault_tolerant(
                model,
                variant,
                effective_train_rate,
                scale,
                train_loader,
                preserve_sparsity=sparsity > 0.0,
            )
        if quant_bits:
            from ..quantization import quantize_model_weights

            quantize_model_weights(evaluated, levels=2 ** quant_bits)
        acc_retrain = (
            acc_pretrain
            if variant == "baseline" and sparsity == 0.0 and not quant_bits
            else evaluate_accuracy(evaluated, test_loader)
        )
        evaluation = evaluate_defect_accuracy(
            evaluated,
            test_loader,
            p_sa,
            num_runs=scale.defect_runs,
            seed=scale.seed + 30 + int(round(p_sa * 1e6)),
            workers=scale.workers,
        )
    return {
        "acc_pretrain": float(acc_pretrain),
        "acc_retrain": float(acc_retrain),
        "acc_defect": float(evaluation.mean_accuracy),
        "acc_std": float(evaluation.std_accuracy),
        "stability_score": float(
            stability_score(acc_pretrain, acc_retrain, evaluation.mean_accuracy)
        ),
        "p_sa": float(p_sa),
        "p_sa_train": (
            None if effective_train_rate is None else float(effective_train_rate)
        ),
    }


def method_report(
    method: str,
    model: nn.Module,
    acc_pretrain: float,
    loader: DataLoader,
    scale: ExperimentScale,
    fault_model: Optional[WeightSpaceFaultModel] = None,
    metadata: Optional[Dict[str, str]] = None,
) -> AccuracyReport:
    """Assemble one table row: clean accuracy + the defect-accuracy grid.

    The report's ``metadata`` records run provenance — the experiment
    scale, defect-evaluation seed and draw count — merged with any extra
    entries the caller supplies (training method, schedule, …).
    """
    acc_retrain = evaluate_accuracy(model, loader)
    provenance = {
        "scale": scale.name,
        "method": method,
        "seed": str(scale.seed),
        "defect_runs": str(scale.defect_runs),
    }
    if metadata:
        provenance.update(metadata)
    report = AccuracyReport(
        method=method,
        acc_pretrain=acc_pretrain,
        acc_retrain=acc_retrain,
        metadata=provenance,
    )
    grid = evaluate_defect_grid(
        model,
        loader,
        scale.test_rates,
        scale.defect_runs,
        seed=scale.seed + 30,
        fault_model=fault_model,
        workers=scale.workers,
        forensics=ForensicsConfig() if scale.forensics else None,
    )
    for rate, accuracy in grid.items():
        report.add_defect(rate, accuracy)
    # The per-variant raw material for the cross-run HTML dashboard: one
    # event carrying the whole accuracy row, so `repro.telemetry report`
    # can draw accuracy-vs-P_sa curves and the Stability ranking without
    # re-deriving the grid from defect_draw events.
    _telemetry().emit(
        "method_report",
        method=method,
        acc_pretrain=acc_pretrain,
        acc_retrain=acc_retrain,
        defect={str(rate): acc for rate, acc in grid.items()},
        metadata=provenance,
    )
    return report
