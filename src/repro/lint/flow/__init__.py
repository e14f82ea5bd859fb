"""Cross-module dataflow analysis for :mod:`repro.lint`.

The per-file rules (RL001–RL010) see one ``SourceFile`` at a time; the
passes in this package see the whole :class:`~repro.lint.sources.Project`
at once.  They share one import-aware call graph (:mod:`.callgraph`) and
ship as project-scope rules:

* RL011/RL012 — telemetry consumers checked against the declared
  event-schema registry (:mod:`.contracts`);
* RL013 — interprocedural RNG taint (:mod:`.taint`);
* RL014/RL015 — worker purity at ``ParallelMap`` submission sites and
  call-graph dead code (:mod:`.purity`).

Everything here is stdlib-only: the passes parse sources, they never
import the code under analysis.
"""

from ..._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "callgraph": (
            "CallGraph", "FunctionInfo", "build_callgraph", "get_callgraph",
        ),
    },
)
