"""Fleet simulation: accuracy yield across mass-produced devices.

The paper's deployment setting is a *product line*: one trained model
shipped to many devices, each with its own random stuck-at pattern.  Mean
defect accuracy (Table I) summarises the fleet; a safety argument also
needs the distribution — worst device, quantiles, and **yield**: the
fraction of manufactured parts whose accuracy clears a requirement.

:func:`simulate_fleet` evaluates a model across N simulated devices and
returns a :class:`FleetReport` with those statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .. import nn
from ..datasets.loader import DataLoader
from ..parallel import Broadcast, ModelBroadcast, ParallelMap
from ..reram.faults import WeightSpaceFaultModel
from ..seeding import draw_streams, resolve_base_seed
from ..telemetry import current as _telemetry
from .evaluate import FaultDrawSpec, evaluate_accuracy, evaluate_one_draw

__all__ = ["FleetReport", "simulate_fleet"]


@dataclass
class FleetReport:
    """Accuracy distribution of one model across a device fleet.

    ``seed`` is the evaluation's base seed: device ``i`` used the stream
    behind ``seed + i``.  It is ``None`` only for a ``p_sa=0`` fleet
    given no seed, which draws no faults.
    """

    p_sa: float
    accuracies: List[float] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def num_devices(self) -> int:
        return len(self.accuracies)

    @property
    def mean(self) -> float:
        # The exact mean always lies in [worst, best]; float summation can
        # drift one ULP outside, so clamp to keep the invariant exact.
        mean = float(np.mean(self.accuracies))
        return min(max(mean, self.worst), self.best)

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))

    @property
    def worst(self) -> float:
        return float(np.min(self.accuracies))

    @property
    def best(self) -> float:
        return float(np.max(self.accuracies))

    def quantile(self, q: float) -> float:
        """Accuracy at quantile ``q`` (e.g. 0.05 = 5th-percentile device)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return float(np.quantile(self.accuracies, q))

    def yield_at(self, required_accuracy: float) -> float:
        """Fraction of devices meeting an accuracy requirement (%)."""
        accuracies = np.asarray(self.accuracies)
        return float(np.mean(accuracies >= required_accuracy))

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"fleet(n={self.num_devices}, rate={self.p_sa:g}): "
            f"mean {self.mean:.2f}% +/- {self.std:.2f}, "
            f"worst {self.worst:.2f}%, p5 {self.quantile(0.05):.2f}%"
        )


def _fleet_device_task(task: tuple, context: Dict[str, Any]) -> float:
    """One simulated device: same draw unit as defect evaluation."""
    device, device_seed, seed_stream = task
    accuracy = evaluate_one_draw(
        context["model"], context["loader"], context["cfg"], seed_stream
    )
    telemetry = _telemetry()
    telemetry.metrics.counter("fleet/devices_total").inc()
    telemetry.metrics.histogram("fleet/accuracy").observe(accuracy)
    telemetry.emit(
        "fleet_device",
        device=device,
        p_sa=context["cfg"].p_sa,
        seed=device_seed,
        accuracy=accuracy,
    )
    return accuracy


def simulate_fleet(
    model: nn.Module,
    loader: DataLoader,
    p_sa: float,
    num_devices: int = 50,
    fault_model: Optional[WeightSpaceFaultModel] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> FleetReport:
    """Evaluate ``model`` on ``num_devices`` simulated defective devices.

    Each device draws an independent fault pattern at rate ``p_sa``; the
    model is restored between devices.  This is the same computation as
    :func:`~repro.core.evaluate.evaluate_defect_accuracy` but reported as
    a distribution rather than a mean.

    Seeding and parallelism follow the defect-evaluation contract: device
    ``i`` gets the independent stream behind ``seed + i``; without a
    ``seed``, a base seed is drawn from the process-wide policy stream and
    recorded on the report.  The devices run through
    :meth:`repro.parallel.ParallelMap.map` on ``workers`` processes, with
    bit-identical results at any worker count.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    if p_sa == 0.0:
        clean = evaluate_accuracy(model, loader)
        return FleetReport(p_sa, [clean] * num_devices, seed=seed)
    cfg = FaultDrawSpec(p_sa=p_sa, fault_model=fault_model)
    base_seed = resolve_base_seed(seed)
    streams = draw_streams(base_seed, num_devices)
    tasks = [(i, base_seed + i, streams[i]) for i in range(num_devices)]
    with _telemetry().span("fleet_simulation"):
        accuracies = ParallelMap(workers).map(
            _fleet_device_task,
            tasks,
            Broadcast(model=ModelBroadcast(model), loader=loader, cfg=cfg),
        )
    return FleetReport(p_sa, accuracies, seed=base_seed)
