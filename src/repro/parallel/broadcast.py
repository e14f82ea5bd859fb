"""Pool-wide broadcast of large read-only objects (model parameters).

Naively submitting a model with every task pickles its full parameter
set once *per task*.  A :class:`ModelBroadcast` instead ships the
parameters once per *worker* — as one compressed ``.npz`` blob built by
:func:`repro.nn.serialization.state_dict_to_bytes` — and each worker
rebuilds the model once, caching it for every chunk it processes.

Under the ``fork`` start method the broadcast is never pickled at all:
workers inherit the parent's object copy-on-write, and
:meth:`ModelBroadcast.materialize` returns it directly.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional

import numpy as np

from ..nn.module import Module
from ..nn.serialization import state_dict_from_bytes, state_dict_to_bytes

__all__ = ["Broadcast", "ModelBroadcast"]


class ModelBroadcast:
    """A model, serialised lazily and exactly once per pool.

    The parent process keeps the live model; pickling (which the pool
    does once per worker under ``spawn``/``forkserver``) replaces it
    with a compressed state blob plus a parameter-free skeleton of the
    module tree.  :meth:`materialize` on either side returns a usable
    model and caches it.
    """

    def __init__(self, model: Module) -> None:
        self._model: Optional[Module] = model
        self._state: Optional[bytes] = None
        self._skeleton: Optional[Module] = None

    def _build_payload(self) -> None:
        if self._state is not None:
            return
        assert self._model is not None
        self._state = state_dict_to_bytes(self._model.state_dict())
        skeleton = copy.deepcopy(self._model)
        for _, param in skeleton.named_parameters():
            param.data = np.empty(0)
            param.grad = np.empty(0)
        self._skeleton = skeleton

    def __getstate__(self) -> dict:
        self._build_payload()
        return {"_model": None, "_state": self._state, "_skeleton": self._skeleton}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def materialize(self) -> Module:
        """The live model (parent) or the rebuilt one (worker), cached."""
        if self._model is not None:
            return self._model
        assert self._state is not None and self._skeleton is not None
        state = state_dict_from_bytes(self._state)
        model = self._skeleton
        # Rebind rather than load_state_dict: the skeleton's parameters
        # were emptied for the wire, so its shape checks cannot pass.
        # Buffers (BN running stats) rode along in the skeleton intact.
        for name, param in model.named_parameters():
            param.data = state[name]
            param.grad = np.zeros_like(param.data)
        self._model = model
        self._state = None
        self._skeleton = None
        return model


class Broadcast:
    """A named bundle of per-pool constants handed to every task.

    Values are pickled once per worker (not per task); any value that is
    itself a :class:`ModelBroadcast` is materialised on access.
    :meth:`materialize` returns a plain dict and caches it for the life
    of the worker.
    """

    def __init__(self, **items: Any) -> None:
        self._items = items
        self._materialized: Optional[Dict[str, Any]] = None

    def __getstate__(self) -> dict:
        return {"_items": self._items, "_materialized": None}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def materialize(self) -> Dict[str, Any]:
        """The context dict, model broadcasts materialized once and cached."""
        if self._materialized is None:
            self._materialized = {
                key: value.materialize()
                if isinstance(value, ModelBroadcast)
                else value
                for key, value in self._items.items()
            }
        return self._materialized
