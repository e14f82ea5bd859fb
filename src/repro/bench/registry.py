"""Benchmark case declaration: :class:`BenchmarkCase` and the registry.

A case is a timed *body* plus an untimed *setup* that builds its inputs,
declared once and shared by every consumer — the ``repro.bench`` runner
and the pytest-benchmark wrappers in ``benchmarks/test_microbench.py``
both execute the identical registered body, so their numbers describe
the same code.

Input sizes are per-suite metadata: ``params={"fast": {...}, "full":
{...}}`` gives each tier its own problem size, and the chosen dict is
passed to ``setup`` and recorded verbatim in the BENCH document so a
comparison can refuse to diff cases measured at different sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "BenchmarkCase",
    "BenchmarkRegistry",
    "benchmark",
    "default_registry",
]

#: The recognised suite tiers, cheapest first.
SUITES = ("fast", "full")


@dataclass
class BenchmarkCase:
    """One registered benchmark.

    Attributes
    ----------
    name:
        Slash-scoped case name (``conv2d/forward``); unique per registry.
    func:
        The timed body, called as ``func(state)`` where ``state`` is
        whatever ``setup`` returned.  Only this call is on the clock.
    setup:
        ``setup(params, rng) -> state``; runs once, untimed, before the
        repeats.  ``None`` means the body receives ``{"params": params,
        "rng": rng}``.
    teardown:
        Optional ``teardown(state)``; runs once after the repeats.
    suites:
        Tiers this case belongs to (subset of ``("fast", "full")``).
    params:
        Per-suite input-size metadata, keyed by suite name.
    description:
        One-line human description (shown by ``repro.bench list``).
    """

    name: str
    func: Callable[[Any], Any]
    setup: Optional[Callable[[dict, np.random.Generator], Any]] = None
    teardown: Optional[Callable[[Any], None]] = None
    suites: Tuple[str, ...] = SUITES
    params: Dict[str, dict] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark cases need a non-empty name")
        for suite in self.suites:
            if suite not in SUITES:
                raise ValueError(
                    f"unknown suite {suite!r} for case {self.name!r}; "
                    f"expected one of {SUITES}"
                )
        for suite in self.params:
            if suite not in SUITES:
                raise ValueError(
                    f"params for unknown suite {suite!r} on {self.name!r}"
                )

    def params_for(self, suite: str) -> dict:
        """Input-size metadata for ``suite`` (falls back to ``fast``)."""
        if suite in self.params:
            return dict(self.params[suite])
        if "fast" in self.params:
            return dict(self.params["fast"])
        return {}

    def build(self, suite: str, rng: Optional[np.random.Generator] = None):
        """Run setup for ``suite`` and return the body's state."""
        if suite not in self.suites:
            raise ValueError(f"case {self.name!r} is not in suite {suite!r}")
        params = self.params_for(suite)
        rng = rng if rng is not None else np.random.default_rng(0)
        if self.setup is None:
            return {"params": params, "rng": rng}
        return self.setup(params, rng)

    def run_once(self, state) -> Any:
        """Execute the timed body once (used by the pytest wrappers)."""
        return self.func(state)

    def cleanup(self, state) -> None:
        """Run the case's teardown on ``state``, if it has one."""
        if self.teardown is not None:
            self.teardown(state)


class BenchmarkRegistry:
    """Name-keyed collection of :class:`BenchmarkCase` objects."""

    def __init__(self) -> None:
        self._cases: Dict[str, BenchmarkCase] = {}

    def __len__(self) -> int:
        return len(self._cases)

    def __contains__(self, name: str) -> bool:
        return name in self._cases

    def register(self, case: BenchmarkCase) -> BenchmarkCase:
        """Add ``case``; raises on a duplicate name."""
        if case.name in self._cases:
            raise ValueError(f"benchmark {case.name!r} already registered")
        self._cases[case.name] = case
        return case

    def get(self, name: str) -> BenchmarkCase:
        """The case called ``name``; raises KeyError naming the known ones."""
        try:
            return self._cases[name]
        except KeyError:
            known = ", ".join(sorted(self._cases)) or "<none>"
            raise KeyError(
                f"unknown benchmark {name!r}; registered: {known}"
            ) from None

    def cases(
        self,
        suite: Optional[str] = None,
        pattern: Optional[str] = None,
    ) -> Iterator[BenchmarkCase]:
        """Registered cases, name-ordered, filtered by suite/substring."""
        for name in sorted(self._cases):
            case = self._cases[name]
            if suite is not None and suite not in case.suites:
                continue
            if pattern is not None and pattern not in name:
                continue
            yield case

    def benchmark(
        self,
        name: str,
        *,
        suites: Tuple[str, ...] = SUITES,
        params: Optional[Dict[str, dict]] = None,
        setup: Optional[Callable] = None,
        teardown: Optional[Callable] = None,
        description: str = "",
    ) -> Callable:
        """Decorator form of :meth:`register`; returns the case."""

        def decorate(func: Callable) -> BenchmarkCase:
            return self.register(
                BenchmarkCase(
                    name=name,
                    func=func,
                    setup=setup,
                    teardown=teardown,
                    suites=tuple(suites),
                    params=dict(params or {}),
                    description=description or (func.__doc__ or "").strip(),
                )
            )

        return decorate


_DEFAULT = BenchmarkRegistry()


def default_registry() -> BenchmarkRegistry:
    """The process-wide registry the CLI and default suite use."""
    return _DEFAULT


def benchmark(name: str, **kwargs) -> Callable:
    """``@benchmark("conv2d/forward", ...)`` against the default registry."""
    return _DEFAULT.benchmark(name, **kwargs)
