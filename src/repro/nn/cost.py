"""Static per-layer cost accounting: params, MACs/FLOPs, footprints.

The paper's deployment story prices a network in crossbar real estate
(every Conv/Linear weight occupies a differential *pair* of ReRAM cells)
and inference cost (multiply-accumulates).  This module computes those
numbers analytically from module and activation shapes:

* :func:`capture_shapes` runs one dummy forward pass (eval mode, zeros)
  under shape-recording forward hooks, so the cost model works for any
  architecture — residual wiring included — without a parallel shape-
  inference implementation that could drift from the real ``forward``;
* :func:`model_cost` folds the shapes into one :class:`LayerCost` per
  leaf layer and a :class:`ModelCost` aggregate;
* :func:`crossbar_footprint` is the cheap no-forward subset (params and
  crossbar cells from weight shapes alone) for hot paths like the fault
  injector that must not pay a forward pass per event.

Counting conventions (pinned by the unit tests):

* counts are for the *given input shape*, batch dimension included —
  pass ``(1, C, H, W)`` for per-sample numbers;
* a MAC is one multiply-accumulate; ``flops = 2 * macs`` plus one add
  per output element when a bias is present;
* normalisation layers cost ``2 * elements`` FLOPs (scale + shift) and
  zero MACs; elementwise activations cost one FLOP per element; pooling
  costs one FLOP per window element;
* ``crossbar_cells = 2 * weight_size`` for Conv/Linear weights (the
  differential-pair mapping of :mod:`repro.reram.mapper`); biases and
  norm parameters live in digital peripheral logic and occupy none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .activations import Dropout, LeakyReLU, ReLU, Sigmoid, Tanh
from .conv import Conv2d
from .functional import conv_output_size
from .linear import Linear
from .module import Module, no_grad
from .norm import BatchNorm1d, BatchNorm2d, GroupNorm
from .pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d

__all__ = [
    "LayerCost",
    "ModelCost",
    "capture_shapes",
    "model_cost",
    "conv2d_output_shape",
    "crossbar_footprint",
]

#: Bytes per activation element (the framework computes in float64).
ACTIVATION_BYTES = 8

#: ReRAM cells per crossbar-resident weight (differential pair).
CELLS_PER_WEIGHT = 2


@dataclass(frozen=True)
class LayerCost:
    """Static cost of one leaf layer at a fixed input shape."""

    name: str
    kind: str
    params: int
    macs: int
    flops: int
    activation_elems: int
    crossbar_cells: int
    output_shape: Tuple[int, ...]

    @property
    def activation_bytes(self) -> int:
        return self.activation_elems * ACTIVATION_BYTES

    def as_dict(self) -> dict:
        """JSON-friendly per-layer record (what telemetry events carry)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "params": self.params,
            "macs": self.macs,
            "flops": self.flops,
            "activation_elems": self.activation_elems,
            "activation_bytes": self.activation_bytes,
            "crossbar_cells": self.crossbar_cells,
            "output_shape": list(self.output_shape),
        }


@dataclass
class ModelCost:
    """Aggregate of every leaf layer's :class:`LayerCost`."""

    input_shape: Tuple[int, ...]
    layers: List[LayerCost] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_flops(self) -> int:
        return sum(layer.flops for layer in self.layers)

    @property
    def total_activation_elems(self) -> int:
        return sum(layer.activation_elems for layer in self.layers)

    @property
    def total_activation_bytes(self) -> int:
        return self.total_activation_elems * ACTIVATION_BYTES

    @property
    def total_crossbar_cells(self) -> int:
        return sum(layer.crossbar_cells for layer in self.layers)

    def totals(self) -> dict:
        """JSON-friendly headline numbers (what telemetry events carry)."""
        return {
            "input_shape": list(self.input_shape),
            "params": self.total_params,
            "macs": self.total_macs,
            "flops": self.total_flops,
            "activation_elems": self.total_activation_elems,
            "activation_bytes": self.total_activation_bytes,
            "crossbar_cells": self.total_crossbar_cells,
        }

    def as_dict(self) -> dict:
        """The :meth:`totals` document plus the per-layer table."""
        return {
            **self.totals(),
            "layers": [layer.as_dict() for layer in self.layers],
        }


def _named_leaf_modules(
    module: Module, prefix: str = ""
) -> Iterator[Tuple[str, Module]]:
    """Yield ``(dotted_name, leaf)`` for modules with no children."""
    children = getattr(module, "_modules", {})
    if not children:
        yield (prefix if prefix else "(root)"), module
        return
    for name, child in children.items():
        child_prefix = f"{prefix}.{name}" if prefix else name
        yield from _named_leaf_modules(child, child_prefix)


def capture_shapes(
    model: Module, input_shape: Sequence[int]
) -> Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """``{leaf_name: (input_shape, output_shape)}`` from one dummy forward.

    The forward runs in eval mode under :func:`no_grad` on a zeros tensor
    (so BatchNorm running statistics, Dropout masks and saved backward
    state are untouched) and the model's training mode is restored
    afterwards.  Shapes are read by forward hooks, removed on exit.
    """
    shapes: Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}

    def record(name: str):
        def hook(module: Module, x: np.ndarray, out: np.ndarray) -> None:
            shapes[name] = (tuple(x.shape), tuple(out.shape))

        return hook

    handles = [
        leaf.register_forward_hook(record(name))
        for name, leaf in _named_leaf_modules(model)
    ]
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            model(np.zeros(tuple(input_shape)))
    finally:
        model.train(was_training)
        for handle in handles:
            handle.remove()
    return shapes


def _param_count(module: Module) -> int:
    return sum(p.size for p in module._parameters.values() if p is not None)


def _layer_cost(
    name: str,
    module: Module,
    in_shape: Tuple[int, ...],
    out_shape: Tuple[int, ...],
) -> LayerCost:
    out_elems = int(np.prod(out_shape)) if out_shape else 0
    in_elems = int(np.prod(in_shape)) if in_shape else 0
    params = _param_count(module)
    macs = 0
    flops = 0
    cells = 0
    if isinstance(module, Conv2d):
        per_output = module.in_channels * module.kernel_size**2
        macs = out_elems * per_output
        flops = 2 * macs + (out_elems if module.bias is not None else 0)
        cells = CELLS_PER_WEIGHT * module.weight.size
    elif isinstance(module, Linear):
        macs = out_elems * module.in_features
        flops = 2 * macs + (out_elems if module.bias is not None else 0)
        cells = CELLS_PER_WEIGHT * module.weight.size
    elif isinstance(module, (BatchNorm1d, BatchNorm2d, GroupNorm)):
        flops = 2 * out_elems
    elif isinstance(module, (ReLU, LeakyReLU, Tanh, Sigmoid, Dropout)):
        flops = out_elems
    elif isinstance(module, (MaxPool2d, AvgPool2d)):
        flops = out_elems * module.kernel_size**2
    elif isinstance(module, GlobalAvgPool2d):
        flops = in_elems
    # Identity, Flatten and unknown leaves: parameters counted, zero compute.
    return LayerCost(
        name=name,
        kind=type(module).__name__,
        params=params,
        macs=macs,
        flops=flops,
        activation_elems=out_elems,
        crossbar_cells=cells,
        output_shape=out_shape,
    )


def model_cost(model: Module, input_shape: Sequence[int]) -> ModelCost:
    """Per-layer static cost of ``model`` at ``input_shape`` (batch incl.).

    Shapes come from one dummy eval-mode forward (:func:`capture_shapes`);
    a leaf the forward never reached (dead branch) is skipped.
    """
    shapes = capture_shapes(model, input_shape)
    cost = ModelCost(input_shape=tuple(input_shape))
    for name, leaf in _named_leaf_modules(model):
        if name not in shapes:
            continue
        in_shape, out_shape = shapes[name]
        cost.layers.append(_layer_cost(name, leaf, in_shape, out_shape))
    return cost


def conv2d_output_shape(
    layer: Conv2d, in_shape: Tuple[int, ...]
) -> Tuple[int, ...]:
    """NCHW output shape of a :class:`Conv2d` for a given input shape."""
    n, _, h, w = in_shape
    out_h = conv_output_size(h, layer.kernel_size, layer.stride, layer.padding)
    out_w = conv_output_size(w, layer.kernel_size, layer.stride, layer.padding)
    return (n, layer.out_channels, out_h, out_w)


def crossbar_footprint(model: Module) -> dict:
    """Cheap no-forward footprint: params and crossbar cells from shapes.

    Follows the library convention (see
    :func:`repro.reram.deploy.crossbar_parameters`): 2-D/4-D ``weight``
    tensors are crossbar-resident, everything else is digital.
    """
    params_total = 0
    crossbar_weights = 0
    for name, param in model.named_parameters():
        params_total += param.size
        if name.endswith("weight") and param.data.ndim in (2, 4):
            crossbar_weights += param.size
    return {
        "params": params_total,
        "crossbar_weights": crossbar_weights,
        "crossbar_cells": CELLS_PER_WEIGHT * crossbar_weights,
    }
