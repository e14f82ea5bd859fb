"""Training loops: standard, one-shot fault-tolerant, progressive
fault-tolerant (Algorithm 1 of the paper).

All trainers share :class:`Trainer`'s epoch machinery; the fault-tolerant
variants wrap every forward/backward in a :class:`FaultInjector` scope so
each step trains against a freshly sampled simulated device.

When telemetry is enabled, every optimiser step also records training
health — the global gradient norm before/after clipping and the relative
weight-update magnitude ``‖ΔW‖/‖W‖`` — per step into histograms
(``train/grad_norm_pre_clip``, ``train/update_ratio``) and per epoch as
means on the ``epoch_end`` event.  All of it is gated on the run being
enabled, so the default (NULL_RUN) path allocates nothing extra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import nn
from ..nn import CrossEntropyLoss, clip_grad_norm
from ..datasets.loader import DataLoader
from ..reram.faults import WeightSpaceFaultModel
from ..telemetry import Stopwatch
from ..telemetry import current as _telemetry
from .evaluate import evaluate_accuracy
from .injector import FaultInjector

__all__ = [
    "TrainingHistory",
    "Trainer",
    "OneShotFaultTolerantTrainer",
    "ProgressiveFaultTolerantTrainer",
    "default_progressive_schedule",
]


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    epoch_losses: List[float] = field(default_factory=list)
    epoch_train_accuracy: List[float] = field(default_factory=list)
    epoch_val_accuracy: List[float] = field(default_factory=list)
    epoch_lr: List[float] = field(default_factory=list)
    epoch_p_sa: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)

    @property
    def final_val_accuracy(self) -> Optional[float]:
        return self.epoch_val_accuracy[-1] if self.epoch_val_accuracy else None

    @property
    def num_epochs(self) -> int:
        return len(self.epoch_losses)

    @property
    def total_seconds(self) -> float:
        """Total training wall-clock over all recorded epochs."""
        return float(sum(self.epoch_seconds))


def _global_grad_norm(parameters) -> float:
    """Global L2 norm over all parameter gradients (read-only)."""
    total_sq = 0.0
    for param in parameters:
        total_sq += float(np.sum(param.grad**2))
    return float(np.sqrt(total_sq))


class _EpochHealth:
    """Accumulates per-step training health into per-epoch means."""

    __slots__ = ("steps", "pre_sum", "post_sum", "ratio_sum", "ratio_steps")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.steps = 0
        self.pre_sum = 0.0
        self.post_sum = 0.0
        self.ratio_sum = 0.0
        self.ratio_steps = 0

    def record(
        self, pre: float, post: float, ratio: Optional[float]
    ) -> None:
        self.steps += 1
        self.pre_sum += pre
        self.post_sum += post
        if ratio is not None:
            self.ratio_sum += ratio
            self.ratio_steps += 1

    def means(self) -> dict:
        """Epoch-mean health fields for the ``epoch_end`` event."""
        if not self.steps:
            return {
                "grad_norm_pre_clip": None,
                "grad_norm_post_clip": None,
                "update_ratio": None,
            }
        return {
            "grad_norm_pre_clip": self.pre_sum / self.steps,
            "grad_norm_post_clip": self.post_sum / self.steps,
            "update_ratio": (
                self.ratio_sum / self.ratio_steps if self.ratio_steps else None
            ),
        }


class Trainer:
    """Standard supervised training loop (the paper's pretraining recipe).

    Parameters
    ----------
    model:
        Network to optimise.
    optimizer:
        Any :class:`repro.nn.Optimizer`.
    loss_fn:
        Callable ``(logits, labels) -> (loss, grad)``; defaults to
        cross entropy.
    scheduler:
        Optional LR scheduler, stepped once per epoch.
    val_loader:
        Optional loader evaluated at the end of every epoch.
    on_epoch_end:
        Optional hook ``(epoch_index, history) -> None``.
    grad_clip:
        Optional global gradient-norm ceiling (helps stabilise
        fault-tolerant training at large injection rates).
    """

    def __init__(
        self,
        model: nn.Module,
        optimizer: nn.Optimizer,
        loss_fn: Optional[Callable] = None,
        scheduler: Optional[nn.LRScheduler] = None,
        val_loader: Optional[DataLoader] = None,
        on_epoch_end: Optional[Callable] = None,
        grad_clip: Optional[float] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss()
        self.scheduler = scheduler
        self.val_loader = val_loader
        self.on_epoch_end = on_epoch_end
        if grad_clip is not None and grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
        self.grad_clip = grad_clip
        self._health = _EpochHealth()

    # -- single-step machinery (overridden by fault-tolerant trainers) ------
    def _apply_update(self) -> None:
        """Clip gradients, capture step health, apply the optimiser step.

        This is the shared update tail of every ``_step``.  Health
        capture (gradient norms, ``‖ΔW‖/‖W‖``) only happens while a
        telemetry run is active; the disabled path is exactly
        clip-then-step with no extra array work.
        """
        telemetry = _telemetry()
        capture = telemetry.enabled
        if self.grad_clip is not None:
            pre = float(
                clip_grad_norm(self.optimizer.parameters, self.grad_clip)
            )
            post = min(pre, self.grad_clip)
        elif capture:
            pre = _global_grad_norm(self.optimizer.parameters)
            post = pre
        else:
            pre = post = None
        if not capture:
            self.optimizer.step()
            return
        params = [p for p in self.optimizer.parameters if p.requires_grad]
        before = [p.data.copy() for p in params]
        self.optimizer.step()
        delta_sq = 0.0
        weight_sq = 0.0
        for param, prev in zip(params, before):
            delta_sq += float(np.sum((param.data - prev) ** 2))
            weight_sq += float(np.sum(prev**2))
        ratio = (
            float(np.sqrt(delta_sq) / np.sqrt(weight_sq))
            if weight_sq > 0.0
            else None
        )
        self._health.record(pre, post, ratio)
        telemetry.metrics.histogram("train/grad_norm_pre_clip").observe(pre)
        if ratio is not None:
            telemetry.metrics.histogram("train/update_ratio").observe(ratio)

    def _step(self, images: np.ndarray, labels: np.ndarray) -> tuple:
        """One optimisation step; returns (loss, n_correct)."""
        self.optimizer.zero_grad()
        logits = self.model(images)
        loss, grad = self.loss_fn(logits, labels)
        self.model.backward(grad)
        self._apply_update()
        n_correct = int((logits.argmax(axis=1) == labels).sum())
        return loss, n_correct

    def train_epoch(self, loader: DataLoader) -> tuple:
        """One epoch; returns (mean_loss, train_accuracy_percent)."""
        self.model.train()
        self._health.reset()
        steps_total = _telemetry().metrics.counter("train/steps_total")
        total_loss = 0.0
        total_correct = 0
        total_samples = 0
        num_batches = 0
        for images, labels in loader:
            loss, n_correct = self._step(images, labels)
            total_loss += loss
            total_correct += n_correct
            total_samples += len(labels)
            num_batches += 1
            steps_total.inc()
        if num_batches == 0:
            raise ValueError("loader yielded no batches")
        return total_loss / num_batches, 100.0 * total_correct / total_samples

    def fit(self, loader: DataLoader, epochs: int) -> TrainingHistory:
        """Train for ``epochs`` epochs; returns the history."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        telemetry = _telemetry()
        telemetry.emit(
            "train_start",
            trainer=type(self).__name__,
            epochs=epochs,
            p_sa=self._current_p_sa(),
        )
        history = TrainingHistory()
        for epoch in range(epochs):
            watch = Stopwatch().start()
            mean_loss, train_acc = self.train_epoch(loader)
            seconds = watch.stop()
            history.epoch_losses.append(mean_loss)
            history.epoch_train_accuracy.append(train_acc)
            history.epoch_lr.append(self.optimizer.lr)
            history.epoch_p_sa.append(self._current_p_sa())
            history.epoch_seconds.append(seconds)
            if self.val_loader is not None:
                history.epoch_val_accuracy.append(
                    evaluate_accuracy(self.model, self.val_loader)
                )
            if self.scheduler is not None:
                self.scheduler.step()
            telemetry.emit(
                "epoch_end",
                epoch=epoch,
                loss=mean_loss,
                train_accuracy=train_acc,
                val_accuracy=history.final_val_accuracy,
                lr=history.epoch_lr[-1],
                p_sa=self._current_p_sa(),
                seconds=seconds,
                **self._health.means(),
            )
            telemetry.metrics.histogram("train/epoch_seconds").observe(seconds)
            telemetry.metrics.gauge("train/epoch_loss").set(mean_loss)
            if self.on_epoch_end is not None:
                self.on_epoch_end(epoch, history)
        telemetry.emit(
            "train_end",
            trainer=type(self).__name__,
            epochs=history.num_epochs,
            total_seconds=history.total_seconds,
            final_loss=history.epoch_losses[-1] if history.epoch_losses else None,
        )
        return history

    def _current_p_sa(self) -> float:
        return 0.0


class OneShotFaultTolerantTrainer(Trainer):
    """One-shot stochastic fault-tolerant training (Algorithm 1, first
    branch): every step trains under a fresh fault draw at the fixed target
    rate ``p_sa_target``.

    Faults are injected into the crossbar-resident weights for the forward
    and backward pass, then the pristine weights are restored before the
    optimiser update (straight-through estimation, as in the PyTorch
    original where the perturbation is re-applied from the kept weights at
    every iteration).
    """

    def __init__(
        self,
        model: nn.Module,
        optimizer: nn.Optimizer,
        p_sa_target: float,
        fault_model: Optional[WeightSpaceFaultModel] = None,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> None:
        super().__init__(model, optimizer, **kwargs)
        if not 0.0 <= p_sa_target <= 1.0:
            raise ValueError("p_sa_target must be in [0, 1]")
        self.p_sa_target = p_sa_target
        self.injector = FaultInjector(model, fault_model=fault_model, rng=rng)

    def _step(self, images: np.ndarray, labels: np.ndarray) -> tuple:
        self.optimizer.zero_grad()
        with self.injector.faults(self._current_p_sa()):
            logits = self.model(images)
            loss, grad = self.loss_fn(logits, labels)
            self.model.backward(grad)
        # Pristine weights are back; apply the faulted-gradient update.
        self._apply_update()
        n_correct = int((logits.argmax(axis=1) == labels).sum())
        return loss, n_correct

    def _current_p_sa(self) -> float:
        return self.p_sa_target


def default_progressive_schedule(
    p_sa_target: float, num_levels: int = 4
) -> List[float]:
    """Ascending fault-rate ladder ending at ``p_sa_target``.

    Levels are log-spaced over one decade (a natural spacing for failure
    rates, which the paper sweeps logarithmically), e.g. for target 0.1
    and 4 levels: [0.0215.., 0.0464.., 0.0774.., 0.1] — ascending as
    Algorithm 1 requires.
    """
    if not 0.0 < p_sa_target <= 1.0:
        raise ValueError("p_sa_target must be in (0, 1]")
    if num_levels < 1:
        raise ValueError("num_levels must be >= 1")
    if num_levels == 1:
        return [p_sa_target]
    ladder = np.logspace(-1.0, 0.0, num_levels) * p_sa_target
    return [float(p) for p in ladder]


class ProgressiveFaultTolerantTrainer(OneShotFaultTolerantTrainer):
    """Progressive stochastic fault-tolerant training (Algorithm 1, second
    branch): iterate over an ascending list of fault rates, training
    ``epochs_per_level`` epochs at each, ending at the target rate.
    """

    def __init__(
        self,
        model: nn.Module,
        optimizer: nn.Optimizer,
        p_sa_schedule: Sequence[float],
        fault_model: Optional[WeightSpaceFaultModel] = None,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> None:
        schedule = [float(p) for p in p_sa_schedule]
        if not schedule:
            raise ValueError("p_sa_schedule must be non-empty")
        if any(not 0.0 <= p <= 1.0 for p in schedule):
            raise ValueError("all schedule rates must be in [0, 1]")
        if schedule != sorted(schedule):
            raise ValueError("p_sa_schedule must be ascending (Algorithm 1)")
        super().__init__(
            model,
            optimizer,
            p_sa_target=schedule[-1],
            fault_model=fault_model,
            rng=rng,
            **kwargs,
        )
        self.p_sa_schedule = schedule
        self._active_p_sa = schedule[0]

    def _current_p_sa(self) -> float:
        return self._active_p_sa

    def fit(
        self, loader: DataLoader, epochs_per_level: int
    ) -> TrainingHistory:
        """Train ``epochs_per_level`` epochs at each schedule level.

        Total epochs = ``len(p_sa_schedule) * epochs_per_level``, matching
        Algorithm 1's nested loops.
        """
        history = TrainingHistory()
        for index, level in enumerate(self.p_sa_schedule):
            self._active_p_sa = level
            _telemetry().emit(
                "progressive_level",
                level=index,
                p_sa=level,
                epochs_per_level=epochs_per_level,
            )
            level_history = super().fit(loader, epochs_per_level)
            history.epoch_losses.extend(level_history.epoch_losses)
            history.epoch_train_accuracy.extend(
                level_history.epoch_train_accuracy
            )
            history.epoch_val_accuracy.extend(level_history.epoch_val_accuracy)
            history.epoch_lr.extend(level_history.epoch_lr)
            history.epoch_p_sa.extend(level_history.epoch_p_sa)
            history.epoch_seconds.extend(level_history.epoch_seconds)
        return history
