"""RL011–RL015 — cross-module dataflow rules.

Thin registry adapters over :mod:`repro.lint.flow`: the call graph,
event-contract checks, taint propagation, and purity analysis live there;
this module only binds them to rule ids so they plug into the normal
selection, suppression, baseline, and report machinery.  All five are
project-scope: they need every source file at once.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..findings import ERROR, WARNING
from ..registry import rule
from ..sources import Project, SourceFile
from ..flow.contracts import check_consumers
from ..flow.purity import check_dead_code, check_worker_purity
from ..flow.taint import check_rng_taint

__all__ = [
    "check_event_fields",
    "check_event_kinds",
    "check_private_dead_code",
    "check_rng_taint_rule",
    "check_worker_purity_rule",
]

_Findings = Iterator[Tuple[SourceFile, ast.AST, str]]


@rule(
    "RL011",
    name="unknown-event-kind",
    severity=ERROR,
    scope="project",
    description="consumer references an event kind the registry does not "
    "declare",
    rationale="a renamed or deleted producer silently empties dashboard "
    "sections and summary tables; the kind registry makes the contract "
    "checkable at lint time instead of in a recorded run",
)
def check_event_kinds(project: Project) -> _Findings:
    """RL011: unknown event kinds, plus an unreadable
    ``telemetry/schema.py`` registry."""
    for rule_id, source, anchor, message in check_consumers(project):
        if rule_id == "RL011":
            yield source, anchor, message


@rule(
    "RL012",
    name="unknown-event-field",
    severity=ERROR,
    scope="project",
    description="consumer reads an event field the registry does not "
    "declare for the kinds in scope",
    rationale="a misspelled field name returns None/KeyError at render "
    "time, long after the 10^6-device run that produced the events",
)
def check_event_fields(project: Project) -> _Findings:
    """RL012: field accesses outside the narrowed kinds' schemas."""
    for rule_id, source, anchor, message in check_consumers(project):
        if rule_id == "RL012":
            yield source, anchor, message


@rule(
    "RL013",
    name="rng-taint",
    severity=ERROR,
    scope="project",
    description="function reaches hidden entropy through its call chain",
    rationale="the paper's Monte Carlo SAF results are only reproducible "
    "if every stochastic path threads a seeded rng; RL001/RL002 police "
    "direct draws, this rule polices the call graph between them",
)
def check_rng_taint_rule(project: Project) -> _Findings:
    """RL013: interprocedural RNG taint (see :mod:`repro.lint.flow.taint`)."""
    return check_rng_taint(project)


@rule(
    "RL014",
    name="impure-worker",
    severity=ERROR,
    scope="project",
    description="callable shipped to a parallel submission site is not a "
    "pure module-level function",
    rationale="lambdas and closures fail to pickle at submit time; "
    "module-global mutables are re-imported per worker and silently "
    "diverge from the parent's state",
)
def check_worker_purity_rule(project: Project) -> _Findings:
    """RL014: worker purity at declared submission sites."""
    return check_worker_purity(project)


@rule(
    "RL015",
    name="dead-private-helper",
    severity=WARNING,
    scope="project",
    description="private function/method is referenced nowhere in the "
    "project",
    rationale="unreachable helpers rot: their schemas, rng handling, and "
    "purity are never exercised, so every other pass reports stale truth",
)
def check_private_dead_code(project: Project) -> _Findings:
    """RL015: call-graph dead code for ``_private`` helpers."""
    return check_dead_code(project)
