"""Canonical event-kind registry: the producer/consumer contract.

``EVENT_SCHEMAS`` below is the one declaration of every event kind and
its payload fields.  It is maintained by hand and checked from both
sides:

* producers — :meth:`repro.telemetry.TelemetryRun.emit` calls
  :func:`check_emit` on every event, enabled run or not, so an emit of
  an undeclared kind or field raises ``ValueError`` where it happens;
* consumers — lint rules RL011/RL012 read this literal statically and
  flag readers of unknown kinds or misspelled fields.

Each entry maps an event kind to its payload field names.  ``extra:
True`` marks *open* kinds whose payload also carries fields not listed
here (per-layer forensics aggregates, model-cost dataclasses): the
field tuple is a lower bound and unknown fields are never an error.
Keep both tables pure literals — the lint rules read them without
importing this module.

This module is import-cheap (stdlib only, no numpy) so the lint CLI,
the telemetry CLI, and worker processes can all use it freely.
:func:`validate_events` mirrors the problem-list style of
:func:`repro.telemetry.trace.validate_trace`: it returns human-readable
strings instead of raising, so callers choose their own strictness.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "BOOKKEEPING_FIELDS",
    "EVENT_SCHEMAS",
    "SCHEMA_VERSION",
    "check_emit",
    "fields_for",
    "known_kinds",
    "validate_event",
    "validate_events",
]

#: Version of the registry document shape (bump on structural change).
SCHEMA_VERSION = 1

#: Fields stamped by ``EventLog.emit`` and the worker-event merge; valid
#: on every kind and never part of a producer's payload schema.
BOOKKEEPING_FIELDS = (
    "kind",
    "run_id",
    "seq",
    "ts",
    "worker_pid",
    "worker_seq",
    "worker_ts",
)

#: Every event kind with its payload fields.  A new kind or field is
#: declared here before any ``emit`` can carry it.
EVENT_SCHEMAS: Dict[str, Dict[str, object]] = {
    'defect_draw': {
        "fields": (
            'accuracy',
            'draw',
            'p_sa',
            'seed',
        ),
        "extra": False,
    },
    'defect_eval': {
        "fields": (
            'crossbar_cells',
            'mean_accuracy',
            'num_runs',
            'p_sa',
            'seed',
            'std_accuracy',
        ),
        "extra": False,
    },
    'deploy': {
        "fields": (
            'crossbar_cells',
            'crossbar_weights',
            'model',
            'num_crossbars',
            'params',
            'tile_size',
        ),
        "extra": False,
    },
    'epoch_end': {
        "fields": (
            'epoch',
            'loss',
            'lr',
            'p_sa',
            'seconds',
            'train_accuracy',
            'val_accuracy',
        ),
        "extra": True,
    },
    'fault_inject': {
        "fields": (
            'cells_faulted',
            'cells_total',
            'crossbar_cells',
            'crossbar_weights',
            'p_sa',
            'p_sa0',
            'p_sa1',
            'realized_p_sa',
            'realized_sa1_share',
            'sa0',
            'sa1',
            'tensors',
        ),
        "extra": False,
    },
    'fleet_device': {
        "fields": (
            'accuracy',
            'device',
            'p_sa',
            'seed',
        ),
        "extra": False,
    },
    'forensics_draw': {
        "fields": (
            'draw',
            'p_sa',
            'seed',
            'target',
        ),
        "extra": True,
    },
    'forensics_eval': {
        "fields": (
            'layers',
            'p_sa',
            'seed',
            'target',
        ),
        "extra": True,
    },
    'forensics_shuffled_loader': {
        "fields": (
            'note',
        ),
        "extra": False,
    },
    'ft_train_start': {
        "fields": (
            'method',
            'p_sa_target',
            'preserve_sparsity',
        ),
        "extra": False,
    },
    'heartbeat': {
        "fields": (
            'completed',
            'elapsed_seconds',
            'eta_seconds',
            'label',
            'percent',
            'rate_per_second',
            'total',
        ),
        "extra": False,
    },
    'log': {
        "fields": (
            'level',
            'logger',
            'message',
        ),
        "extra": False,
    },
    'method_report': {
        "fields": (
            'acc_pretrain',
            'acc_retrain',
            'defect',
            'metadata',
            'method',
        ),
        "extra": False,
    },
    'model_cost': {
        "fields": (
            'model',
        ),
        "extra": True,
    },
    'parallel_chunk': {
        "fields": (
            'attempt',
            'seconds',
            'tasks',
            'worker_pid',
        ),
        "extra": False,
    },
    'parallel_fallback': {
        "fields": (
            'reason',
            'workers',
        ),
        "extra": False,
    },
    'parallel_map_end': {
        "fields": (
            'completed',
            'failed',
        ),
        "extra": False,
    },
    'parallel_map_start': {
        "fields": (
            'chunk_size',
            'chunks',
            'tasks',
            'workers',
        ),
        "extra": False,
    },
    'parallel_retry': {
        "fields": (
            'attempt',
            'indices',
            'reason',
        ),
        "extra": False,
    },
    'pretrain_done': {
        "fields": (
            'accuracy',
            'num_classes',
            'scale',
        ),
        "extra": False,
    },
    'profile_stacks': {
        "fields": (
            'interval',
            'samples',
            'stacks',
        ),
        "extra": False,
    },
    'progressive_level': {
        "fields": (
            'epochs_per_level',
            'level',
            'p_sa',
        ),
        "extra": False,
    },
    'resource_sample': {
        "fields": (
            'cpu_seconds',
            'max_rss_bytes',
            'minor_faults',
            'num_fds',
            'rss_bytes',
            'tracemalloc_current',
            'tracemalloc_peak',
        ),
        "extra": False,
    },
    'run_end': {
        "fields": (
            'duration_seconds',
        ),
        "extra": False,
    },
    'run_start': {
        "fields": (
            'config',
            'pid',
        ),
        "extra": False,
    },
    'span_begin': {
        "fields": (
            'depth',
            'name',
            'path',
        ),
        "extra": False,
    },
    'span_end': {
        "fields": (
            'depth',
            'name',
            'path',
            'seconds',
        ),
        "extra": False,
    },
    'sweep_cell': {
        "fields": (
            'acc_defect',
            'acc_pretrain',
            'acc_retrain',
            'arch',
            'digest',
            'p_sa',
            'p_sa_train',
            'profile',
            'quant_bits',
            'seed',
            'sparsity',
            'stability_score',
            'sweep',
            'variant',
        ),
        "extra": False,
    },
    'sweep_report': {
        "fields": (
            'cells',
            'entries',
            'profile',
            'sweep',
        ),
        "extra": False,
    },
    'train_end': {
        "fields": (
            'epochs',
            'final_loss',
            'total_seconds',
            'trainer',
        ),
        "extra": False,
    },
    'train_start': {
        "fields": (
            'epochs',
            'p_sa',
            'trainer',
        ),
        "extra": False,
    },
}

#: Kind -> every field an event of that kind may carry (payload plus
#: bookkeeping), or ``None`` for an open kind.  Built once; the runtime
#: check and the offline validator both read it.
_ALLOWED: Dict[str, Optional[FrozenSet[str]]] = {
    kind: None
    if entry["extra"]
    else frozenset(entry["fields"]) | frozenset(BOOKKEEPING_FIELDS)
    for kind, entry in EVENT_SCHEMAS.items()
}


def known_kinds() -> Tuple[str, ...]:
    """Every declared event kind, sorted."""
    return tuple(sorted(EVENT_SCHEMAS))


def fields_for(kind: str) -> Optional[Tuple[str, ...]]:
    """Payload fields of ``kind`` (without bookkeeping), or ``None``."""
    entry = EVENT_SCHEMAS.get(kind)
    if entry is None:
        return None
    return tuple(entry["fields"])  # type: ignore[arg-type]


def _undeclared(kind: str, names: Iterable[str]) -> List[str]:
    """Field names a closed ``kind`` does not declare, sorted."""
    allowed = _ALLOWED[kind]
    if allowed is None:
        return []
    return sorted(set(names) - allowed)


def check_emit(kind: str, fields: Mapping) -> None:
    """Raise ``ValueError`` unless ``kind`` and ``fields`` are declared.

    Called by :meth:`repro.telemetry.TelemetryRun.emit` on every event.
    Missing fields are never an error: producers emit conditionally.
    """
    try:
        allowed = _ALLOWED[kind]
    except KeyError:
        raise ValueError(
            f"event kind {kind!r} is not declared in EVENT_SCHEMAS"
        ) from None
    if allowed is not None and not allowed.issuperset(fields):
        unknown = ", ".join(map(repr, _undeclared(kind, fields)))
        raise ValueError(
            f"event kind {kind!r} does not declare field(s) {unknown} "
            "in EVENT_SCHEMAS"
        )


def validate_event(event: Mapping, index: Optional[int] = None) -> List[str]:
    """Problems with one recorded event against the registry.

    Flags missing/unknown kinds and — for *closed* kinds only — fields
    the kind does not declare, by the same rule as :func:`check_emit`.
    """
    where = f"event {index}" if index is not None else "event"
    if not isinstance(event, Mapping):
        return [f"{where}: not a mapping"]
    kind = event.get("kind")
    if not isinstance(kind, str) or not kind:
        return [f"{where}: missing or non-string 'kind'"]
    if kind not in _ALLOWED:
        return [f"{where}: unknown kind {kind!r}"]
    return [
        f"{where} ({kind}): field {name!r} is not in the schema"
        for name in _undeclared(kind, event)
    ]


def validate_events(events: Iterable[Mapping]) -> List[str]:
    """Problems across a whole event log, in log order."""
    problems: List[str] = []
    for index, event in enumerate(events):
        problems.extend(validate_event(event, index))
    return problems
