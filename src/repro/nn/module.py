"""Base classes of the ``repro.nn`` neural-network framework.

The framework is a small, self-contained substitute for the PyTorch layer
stack used by the paper.  It is layer-based rather than tape-based: every
:class:`Module` implements an explicit ``forward`` and ``backward``.
Gradients accumulate into :attr:`Parameter.grad`.

Saved state.  ``forward`` keeps what ``backward`` needs (inputs,
normalised activations, masks) in one attribute, ``self._saved``.  The
state lives only while a backward can use it:

* ``backward`` consumes it: :meth:`Module._pop_saved` hands it over and
  clears the attribute, so each layer frees its state as the backward
  sweep passes it, and a second backward after one forward raises
  "backward called before forward" (as PyTorch frees its graph);
* under :func:`no_grad`, :meth:`Module.__call__` drops it as soon as
  ``forward`` returns, so a forward-only pass over a whole model holds one
  layer's state at a time;
* :meth:`Module.train` drops it when the mode changes;
* pickling and deep copies never carry it (nor forward hooks).

``eval()`` alone keeps the state, so an eval-mode backward still works.
State is sized to what ``backward`` cannot cheaply recompute: ``Conv2d``
keeps its input by reference and rebuilds its im2col patches in
``backward`` (9x smaller for a 3x3 kernel, and gradients are bit-identical).
Its forward never builds the whole batch's patches: it lowers one
L2-sized block of images at a time, one GEMM per block.

The design goal is correctness and clarity (every backward pass is verified
against numerical gradients in the test suite), not raw speed.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["Parameter", "Module", "RemovableHandle", "no_grad"]

#: Process-wide id source for hook handles (unique across all modules).
_hook_ids = itertools.count()

#: Grad mode: ``False`` inside :func:`no_grad` (per thread and per task).
_grad_enabled: ContextVar[bool] = ContextVar("repro_nn_grad_enabled", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Run forwards that no backward follows; each layer drops its saved state.

    Outputs are bit-identical to a normal forward.  Calling ``backward``
    on a layer whose last forward ran under ``no_grad`` raises.  Nests,
    and restores the previous mode on exit, also on an exception.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class RemovableHandle:
    """Token returned by :meth:`Module.register_forward_hook`.

    Calling :meth:`remove` detaches the hook; removal is idempotent, so a
    handle can be removed in a ``finally`` block without guarding.
    """

    def __init__(self, hooks: "OrderedDict[int, Callable]") -> None:
        self._hooks = hooks
        self.id = next(_hook_ids)

    def remove(self) -> None:
        """Detach the hook (no-op when already removed)."""
        self._hooks.pop(self.id, None)

    def __enter__(self) -> "RemovableHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


class Parameter:
    """A trainable tensor: value plus accumulated gradient.

    Parameters
    ----------
    data:
        Initial value.  Stored as ``float64`` for gradient-check accuracy;
        callers may pass any float dtype.
    requires_grad:
        When ``False`` the optimiser skips this parameter (used for frozen
        layers and for pruning masks).
    """

    def __init__(self, data: np.ndarray, requires_grad: bool = True) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are auto-registered (in assignment order) and become
    visible to :meth:`parameters`, :meth:`state_dict` and friends.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._forward_hooks: "OrderedDict[int, Callable]" = OrderedDict()
        #: What ``backward`` needs from the last ``forward``; ``None`` when
        #: there is nothing to backpropagate through.
        self._saved: Any = None
        self.training = True

    # -- attribute registration -------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BN running stats)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a registered buffer's value (keeps registration)."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    # -- forward / backward ------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer's output, keeping what backward needs in ``_saved``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; return the input gradient."""
        raise NotImplementedError

    def _pop_saved(self) -> Any:
        """Hand the last forward's saved state to ``backward`` and forget it."""
        saved = self._saved
        if saved is None:
            raise RuntimeError("backward called before forward")
        self._saved = None
        return saved

    def __call__(self, x: np.ndarray) -> np.ndarray:
        try:
            output = self.forward(x)
        finally:
            if not _grad_enabled.get():
                self.__dict__["_saved"] = None
        hooks = self.__dict__.get("_forward_hooks")
        if not hooks:
            return output
        # Hooks run *after* forward completes, so a raising hook leaves the
        # module's saved backward state intact and the next forward clean.
        for hook in tuple(hooks.values()):
            result = hook(self, x, output)
            if result is not None:
                output = result
        return output

    # -- forward hooks -----------------------------------------------------
    def register_forward_hook(
        self, hook: Callable[["Module", np.ndarray, np.ndarray], Optional[np.ndarray]]
    ) -> RemovableHandle:
        """Attach ``hook(module, input, output)`` after every forward.

        The hook observes (and may replace — a non-``None`` return value
        becomes the new output) the result of ``module(x)``.  Hooks fire in
        registration order.  Returns a :class:`RemovableHandle`; hooks are
        *not* pickled or deep-copied with the module (closures over live
        state must not ride into ``repro.parallel`` workers).
        """
        if not callable(hook):
            raise TypeError("hook must be callable")
        handle = RemovableHandle(self._forward_hooks)
        self._forward_hooks[handle.id] = hook
        return handle

    def clear_forward_hooks(self) -> None:
        """Detach every forward hook registered on this module (not children)."""
        self._forward_hooks.clear()

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle/deepcopy support: hook closures and saved activations
        never travel with a model."""
        state = self.__dict__.copy()
        state["_forward_hooks"] = OrderedDict()
        state["_saved"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_forward_hooks", OrderedDict())
        self.__dict__.setdefault("_saved", None)

    # -- traversal ----------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        """Iterate over direct child modules."""
        return iter(self._modules.values())

    def modules(self) -> Iterator["Module"]:
        """Yield self and every descendant module."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, Parameter)`` over the whole module tree."""
        for name, param in self._parameters.items():
            yield (prefix + name if prefix else name), param
        for mod_name, module in self._modules.items():
            child_prefix = f"{prefix}{mod_name}." if prefix else f"{mod_name}."
            yield from module.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        """All parameters of the module tree, in registration order."""
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` over the whole module tree."""
        for name in self._buffers:
            yield (prefix + name if prefix else name), self._buffers[name]
        for mod_name, module in self._modules.items():
            child_prefix = f"{prefix}{mod_name}." if prefix else f"{mod_name}."
            yield from module.named_buffers(child_prefix)

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size
            for p in self.parameters()
            if p.requires_grad or not trainable_only
        )

    # -- train / eval mode ---------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects BatchNorm/Dropout).

        A module whose mode changes drops its saved backward state: it
        was recorded under the other mode.
        """
        if self.training != mode:
            self._saved = None
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode (running stats, no dropout)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Zero every parameter gradient in the module tree."""
        for param in self.parameters():
            param.zero_grad()

    # -- (de)serialisation ----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat ``name -> array copy`` of all parameters and buffers."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a state dict produced by :meth:`state_dict`.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatches, so silent corruption is impossible.
        """
        params = dict(self.named_parameters())
        for name, param in params.items():
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"model {param.data.shape}, state {value.shape}"
                )
            # In-place so optimizer state keeps aliasing the same arrays;
            # checkpoint loading owns this write.
            param.data[...] = value  # repro-lint: disable=RL006
        # Buffers are keyed by owning module; walk the tree to update in place.
        buffer_owners = self._collect_buffer_owners()
        for name, (owner, local) in buffer_owners.items():
            if name not in state:
                raise KeyError(f"state dict is missing buffer {name!r}")
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != owner._buffers[local].shape:
                raise ValueError(f"shape mismatch for buffer {name!r}")
            owner.set_buffer(local, value)

    def _collect_buffer_owners(
        self, prefix: str = ""
    ) -> Dict[str, Tuple["Module", str]]:
        owners: Dict[str, Tuple[Module, str]] = {}
        for local in self._buffers:
            owners[(prefix + local) if prefix else local] = (self, local)
        for mod_name, module in self._modules.items():
            child_prefix = f"{prefix}{mod_name}." if prefix else f"{mod_name}."
            owners.update(module._collect_buffer_owners(child_prefix))
        return owners

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child_reprs = ", ".join(
            f"{name}={module.__class__.__name__}"
            for name, module in self._modules.items()
        )
        return f"{self.__class__.__name__}({child_reprs})"
