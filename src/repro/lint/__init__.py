"""repro.lint — AST-based static analysis for the repro codebase.

A stdlib-only linter with project-specific rules: RNG/seed discipline
(the paper's numbers are means over 100 seeded fault draws), import-
graph health, public-API contracts, and hygiene rules sized to a
numerical codebase.  Structure mirrors ``repro.bench``: a rule registry,
an engine, a versioned JSON report and a ``python -m repro.lint`` CLI
(``run`` / ``baseline`` / ``rules``), with a committed baseline file so
pre-existing findings ratchet down instead of blocking CI.

Quick taste::

    python -m repro.lint run --format json
    python -m repro.lint rules

or programmatically::

    from repro.lint import lint_paths
    findings = lint_paths(["src"])

See ``docs/STATIC_ANALYSIS.md`` for every rule with bad/good examples.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "baseline": ("Baseline", "BaselineError"),
        "engine": ("Project", "SourceFile", "lint_paths", "lint_sources"),
        "findings": ("ERROR", "WARNING", "Finding"),
        "registry": ("LintRule", "RuleRegistry", "default_registry", "rule"),
        "suppressions": ("Suppressions",),
    },
)
