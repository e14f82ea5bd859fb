"""``repro.forensics`` — fault forensics: per-layer error-propagation tracing.

Built on the :meth:`repro.nn.Module.register_forward_hook` activation-tap
API.  :class:`DeviationProbe` compares clean and faulted forwards over the
same batches and records where a stuck-at pattern starts to distort the
computation; :mod:`repro.forensics.aggregate` folds per-draw payloads into
Monte Carlo aggregates that are bit-identical at any worker count.

Recorded runs are inspected with ``python -m repro.telemetry forensics``
or the HTML dashboard's deviation heatmap.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "aggregate": (
            "LAYER_SUM_FIELDS", "DRAW_SUM_FIELDS", "finalize_layer",
            "aggregate_payloads", "aggregate_events", "deviation_matrix",
        ),
        "probe": ("ForensicsConfig", "DeviationProbe", "named_leaf_modules"),
        "render": ("HEATMAP_METRICS", "forensics_summary", "render_forensics"),
    },
)
