"""Parsed-source model: what rules receive from the engine.

Lives apart from :mod:`repro.lint.engine` so rule modules can import
these types without importing the engine (which imports the rules
package for registration) — RL003 flagged exactly that cycle when the
linter first ran on itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["Anchor", "SourceFile", "Project", "export_table", "module_name"]

#: Anchor accepted from rules: an AST node or a 1-based line number.
Anchor = Union[ast.AST, int]


def module_name(relpath: str) -> str:
    """Dotted module name for a path relative to an import root."""
    parts = relpath.replace("\\", "/").split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(p for p in parts if p)


def export_table(
    tree: ast.Module,
) -> Optional[Tuple[ast.Call, Optional[Dict[str, List[ast.Constant]]]]]:
    """The ``lazy_exports(__name__, {...})`` call of a package ``__init__``
    and its table: submodule (``"."`` for the package itself) to the
    string constants naming its exports.

    Returns ``None`` when the module has no such module-level call, and
    ``(call, None)`` when its table is not a literal ``dict`` of string
    tuples (nothing can then be checked or followed statically).
    """
    for node in tree.body:
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        call = node.value
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name != "lazy_exports":
            continue
        literal = call.args[1] if len(call.args) > 1 else None
        if not isinstance(literal, ast.Dict):
            return call, None
        table: Dict[str, List[ast.Constant]] = {}
        for key, value in zip(literal.keys, literal.values):
            names = value.elts if isinstance(value, (ast.Tuple, ast.List)) else None
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and names is not None
                and all(
                    isinstance(n, ast.Constant) and isinstance(n.value, str)
                    for n in names
                )
            ):
                return call, None
            table[key.value] = list(names)
        return call, table
    return None


@dataclass
class SourceFile:
    """One parsed source file, as rules see it."""

    path: str  # repo-relative posix path (report anchor)
    text: str
    module: str  # dotted module name, "" when unknown
    is_package: bool  # True for __init__.py
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def from_text(
        cls,
        text: str,
        path: str = "<memory>",
        module: str = "",
        is_package: bool = False,
    ) -> "SourceFile":
        """Parse ``text``; raises SyntaxError on unparsable input."""
        tree = ast.parse(text, filename=path)
        return cls(
            path=path,
            text=text,
            module=module,
            is_package=is_package,
            tree=tree,
            lines=text.splitlines(),
        )

    def snippet(self, line: int) -> str:
        """The stripped source line at 1-based ``line`` ('' off the end)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def anchor(self, anchor: Anchor) -> Tuple[int, int]:
        """Normalise an AST node or line number to ``(line, col)``."""
        if isinstance(anchor, ast.AST):
            return getattr(anchor, "lineno", 1), getattr(anchor, "col_offset", 0)
        return int(anchor), 0


@dataclass
class Project:
    """All files under analysis; what project-scope rules receive."""

    sources: List[SourceFile]
    by_module: Dict[str, SourceFile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.by_module:
            self.by_module = {
                s.module: s for s in self.sources if s.module
            }
