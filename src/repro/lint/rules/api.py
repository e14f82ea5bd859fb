"""RL004 — public-API drift between ``__all__`` and the module body.

Both directions are drift:

* ``__all__`` names nothing in the module binds — ``from mod import *``
  raises AttributeError and the docs promise an export that is not there;
* a public top-level ``def``/``class`` missing from ``__all__`` — the
  symbol silently falls out of the star-import/doc surface.

A package whose ``__init__`` declares its surface with
``lazy_exports(__name__, {...})`` (:mod:`repro._exports`) is checked
through that table instead: every entry must name a module of the
project that binds it (for ``"."``, the ``__init__`` itself or a
submodule), so a lazy export that would raise on first access is caught
without importing anything.

Modules without an ``__all__`` or a table declare no contract and are
skipped.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..sources import Project, SourceFile, export_table
from ..registry import rule
from ..findings import ERROR
from .common import string_elements

__all__ = ["check_public_api"]


def _bound_names(body: List[ast.stmt], bound: Set[str]) -> bool:
    """Collect module-level bindings; returns True when a star import
    makes the namespace open-ended."""
    star = False
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    star = True
                else:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional imports (TYPE_CHECKING / optional deps) still
            # bind names on some path; count every branch.
            branches = [node.body, node.orelse]
            if isinstance(node, ast.Try):
                branches.extend(h.body for h in node.handlers)
                branches.append(node.finalbody)
            for branch in branches:
                star |= _bound_names(branch, bound)
    return star


def _find_all(tree: ast.Module) -> Optional[Tuple[ast.stmt, List[str]]]:
    for node in tree.body:
        value = None
        if isinstance(node, ast.Assign):
            names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "__all__" in names:
                value = node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == "__all__"
            ):
                value = node.value
        if value is None:
            continue
        elements = string_elements(value)
        if elements is None:
            return None  # computed __all__ — nothing to check statically
        return node, [e.value for e in elements]
    return None


def _binds(source: SourceFile) -> Optional[Set[str]]:
    """Names a module binds at top level, its export table included;
    ``None`` when a star import leaves the namespace open-ended."""
    bound: Set[str] = set()
    if _bound_names(source.tree.body, bound):
        return None
    found = export_table(source.tree)
    if found is not None and found[1] is not None:
        bound.update(n.value for names in found[1].values() for n in names)
    return bound


def _check_table(
    source: SourceFile,
    table: Dict[str, List[ast.Constant]],
    modules: Dict[str, SourceFile],
) -> Iterator[Tuple[ast.AST, str]]:
    """Every table entry names a project module that binds it."""
    for sub, names in table.items():
        if sub == ".":
            # The package itself: what its __init__ binds, or a submodule.
            where = source.module
            bound: Optional[Set[str]] = set()
            if _bound_names(source.tree.body, bound):
                continue
            bound.update(
                module.rpartition(".")[2]
                for module in modules
                if module.rpartition(".")[0] == where
            )
        else:
            where = f"{source.module}.{sub}"
            if where not in modules:
                for node in names:
                    yield (
                        node,
                        f"export table takes {node.value!r} from {where}, "
                        "which is not in the project",
                    )
                continue
            bound = _binds(modules[where])
            if bound is None:
                continue
        for node in names:
            if node.value not in bound:
                yield (
                    node,
                    f"export table takes {node.value!r} from {where}, "
                    "which never binds it",
                )


def _check_module(
    source: SourceFile, modules: Dict[str, SourceFile]
) -> Iterator[Tuple[ast.AST, str]]:
    found_table = export_table(source.tree)
    if found_table is not None:
        call, table = found_table
        if table is None:
            yield call, "lazy_exports table is not a literal dict of string tuples"
            return
        yield from _check_table(source, table, modules)
        exported = [n.value for names in table.values() for n in names]
    else:
        found = _find_all(source.tree)
        if found is None:
            return
        all_node, exported = found
        bound = _binds(source)
        if bound is not None:
            for name in exported:
                if name not in bound and name not in ("__version__",):
                    yield (
                        all_node,
                        f"__all__ exports {name!r} but the module never "
                        "binds it",
                    )
    exported_set = set(exported)
    for node in source.tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("_"):
            continue
        if node.name not in exported_set:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            yield (
                node,
                f"public {kind} {node.name!r} missing from __all__",
            )


@rule(
    "RL004",
    name="public-api-drift",
    severity=ERROR,
    scope="project",
    description="__all__ or a package's export table names a missing "
    "symbol, or a public def/class is absent from __all__",
    rationale="the __init__ re-export surface is the library's contract; "
    "drift means star imports break or public symbols silently vanish",
)
def check_public_api(
    project: Project,
) -> Iterator[Tuple[SourceFile, ast.AST, str]]:
    """RL004: ``__all__`` (or export table) vs module-body drift."""
    for source in project.sources:
        for anchor, message in _check_module(source, project.by_module):
            yield source, anchor, message
