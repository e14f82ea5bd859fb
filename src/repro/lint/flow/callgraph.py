"""Import-aware call graph over a lint :class:`Project`.

Resolution is deliberately shallow but honest: an edge is recorded only
when the callee can be traced to a module-level function, method, or
class defined inside the project — via a local ``def``, a ``from x
import y`` (absolute or relative), or a dotted ``module.attr`` call
whose head is an imported project module.  ``self.method()`` resolves
within the enclosing class.  Everything else is kept as an *external*
call (with its import aliases expanded, so ``np.random.default_rng``
surfaces as ``numpy.random.default_rng``) for passes that pattern-match
on well-known library entry points.

Function nodes are keyed ``module:qualname`` (``repro.core.evaluate:
evaluate_defect_accuracy``, ``repro.parallel.executor:ParallelMap.map``)
and module-level statements of module ``m`` are attributed to the pseudo
caller ``m:<module>``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..sources import Project, SourceFile, export_table

__all__ = [
    "CallEdge",
    "CallGraph",
    "ExternalCall",
    "FunctionInfo",
    "ModuleTable",
    "build_callgraph",
    "get_callgraph",
    "module_caller_key",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_caller_key(module: str) -> str:
    """Pseudo function key attributing module-level statements."""
    return f"{module}:<module>"


@dataclass
class FunctionInfo:
    """One module-level function or method defined in the project."""

    key: str
    module: str
    qualname: str
    node: ast.AST
    source: SourceFile
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_public(self) -> bool:
        """Public = no component of module or qualname is underscored."""
        parts = self.module.split(".") + self.qualname.split(".")
        return not any(part.startswith("_") for part in parts)

    @property
    def params(self) -> Tuple[str, ...]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return tuple(names)

    @property
    def decorator_names(self) -> Tuple[str, ...]:
        names = []
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            dotted = _dotted(target)
            if dotted:
                names.append(dotted)
        return tuple(names)


@dataclass
class CallEdge:
    """A resolved in-project call: ``caller`` invokes ``callee``."""

    caller: str
    callee: str
    call: ast.Call


@dataclass
class ExternalCall:
    """A call whose target lives outside the project (aliases expanded)."""

    caller: str
    name: str
    call: ast.Call


@dataclass
class ModuleTable:
    """Per-module symbol table: imports, defs, and classes."""

    module: str
    source: SourceFile
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, Dict[str, str]] = field(default_factory=dict)


@dataclass
class CallGraph:
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    modules: Dict[str, ModuleTable] = field(default_factory=dict)
    edges: List[CallEdge] = field(default_factory=list)
    externals: List[ExternalCall] = field(default_factory=list)
    callers: Dict[str, List[CallEdge]] = field(default_factory=dict)
    callees: Dict[str, List[CallEdge]] = field(default_factory=dict)

    def function_for_caller(self, key: str) -> Optional[FunctionInfo]:
        return self.functions.get(key)

    def resolve_qualified(
        self, qualified: str, _depth: int = 0
    ) -> Optional[str]:
        """Resolve a fully-dotted name to a function key, if in-project.

        Tries the longest module prefix first, so ``repro.core.training.
        Trainer.fit`` finds module ``repro.core.training`` and method
        ``Trainer.fit``.  Package ``__init__`` re-exports are followed
        (``repro.parallel.ParallelMap`` chases the ``"executor"`` entry
        of the package's export table, as it would ``from .executor
        import ParallelMap``), bounded to a few hops to stay cycle-safe.
        """
        if _depth > 4:
            return None
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            table = self.modules.get(module)
            if table is None:
                continue
            rest = parts[cut:]
            name = rest[0]
            if len(rest) == 1:
                if name in table.functions:
                    return table.functions[name]
                if name in table.classes:
                    return table.classes[name].get("__init__")
            elif len(rest) == 2:
                methods = table.classes.get(name)
                if methods is not None:
                    return methods.get(rest[1])
            if name in table.imports:
                target = ".".join([table.imports[name]] + rest[1:])
                return self.resolve_qualified(target, _depth + 1)
            return None
        return None


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chain as a string, or ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _absolute_import(source: SourceFile, node: ast.ImportFrom) -> str:
    """Resolve ``from . import x`` / ``from ..pkg import y`` bases."""
    if node.level == 0:
        return node.module or ""
    parts = source.module.split(".")
    if not source.is_package:
        parts = parts[:-1]
    drop = node.level - 1
    if drop:
        parts = parts[: max(len(parts) - drop, 0)]
    if node.module:
        parts.extend(node.module.split("."))
    return ".".join(parts)


def _build_table(source: SourceFile) -> ModuleTable:
    table = ModuleTable(module=source.module, source=source)
    # Imports are collected from the whole file, not just module level:
    # deferred function-local imports (the lazy-import idiom used to
    # keep cold paths cheap) resolve the same names.  First binding wins
    # so a module-level import is not shadowed by a local one.
    for stmt in ast.walk(source.tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    table.imports.setdefault(alias.asname, alias.name)
                else:
                    # ``import a.b`` binds the name ``a``.
                    head = alias.name.split(".")[0]
                    table.imports.setdefault(head, head)
        elif isinstance(stmt, ast.ImportFrom):
            base = _absolute_import(source, stmt)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table.imports.setdefault(
                    local, f"{base}.{alias.name}" if base else alias.name
                )
    # A package's lazy-export table re-exports exactly as ``from .sub
    # import name`` (or ``from . import name`` for ``"."``) would.
    found = export_table(source.tree)
    if found is not None and found[1] is not None:
        for sub, names in found[1].items():
            base = source.module if sub == "." else f"{source.module}.{sub}"
            for name in names:
                table.imports.setdefault(name.value, f"{base}.{name.value}")
    for stmt in source.tree.body:
        if isinstance(stmt, _FUNC_NODES):
            key = f"{source.module}:{stmt.name}"
            table.functions[stmt.name] = key
        elif isinstance(stmt, ast.ClassDef):
            methods: Dict[str, str] = {}
            for item in stmt.body:
                if isinstance(item, _FUNC_NODES):
                    methods[item.name] = (
                        f"{source.module}:{stmt.name}.{item.name}"
                    )
            table.classes[stmt.name] = methods
    return table


def _iter_function_nodes(
    source: SourceFile,
) -> Iterator[Tuple[str, Optional[str], ast.AST]]:
    """Yield ``(qualname, class_name, node)`` for defs and methods."""
    for stmt in source.tree.body:
        if isinstance(stmt, _FUNC_NODES):
            yield stmt.name, None, stmt
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, _FUNC_NODES):
                    yield f"{stmt.name}.{item.name}", stmt.name, item


def _expand_alias(table: ModuleTable, dotted: str) -> str:
    """Rewrite a dotted name's head through the module's import aliases."""
    head, _, rest = dotted.partition(".")
    target = table.imports.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def _resolve_call(
    graph: CallGraph,
    table: ModuleTable,
    class_name: Optional[str],
    call: ast.Call,
) -> Tuple[Optional[str], Optional[str]]:
    """Return ``(internal_key, external_name)`` for one call node."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        if name in table.functions:
            return table.functions[name], None
        if name in table.classes:
            return table.classes[name].get("__init__"), None
        if name in table.imports:
            qualified = table.imports[name]
            key = graph.resolve_qualified(qualified)
            if key is not None:
                return key, None
            return None, qualified
        return None, name
    dotted = _dotted(func)
    if dotted is None:
        return None, None
    head = dotted.split(".", 1)[0]
    if head == "self" and class_name is not None:
        parts = dotted.split(".")
        if len(parts) == 2:
            methods = table.classes.get(class_name, {})
            return methods.get(parts[1]), None
        return None, None
    if head in table.classes:
        parts = dotted.split(".")
        if len(parts) == 2:
            return table.classes[head].get(parts[1]), None
    qualified = _expand_alias(table, dotted)
    key = graph.resolve_qualified(qualified)
    if key is not None:
        return key, None
    return None, qualified


def _body_calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def build_callgraph(project: Project) -> CallGraph:
    """Build the symbol tables, function nodes, and call edges."""
    graph = CallGraph()
    for source in project.sources:
        table = _build_table(source)
        graph.modules[source.module] = table
        for qualname, class_name, node in _iter_function_nodes(source):
            key = f"{source.module}:{qualname}"
            graph.functions[key] = FunctionInfo(
                key=key,
                module=source.module,
                qualname=qualname,
                node=node,
                source=source,
                class_name=class_name,
            )
    for source in project.sources:
        table = graph.modules[source.module]
        seen_calls = set()
        for info in _function_infos_of(graph, source.module):
            for call in _body_calls(info.node):
                seen_calls.add(id(call))
                _record(graph, table, info.class_name, info.key, call)
        caller = module_caller_key(source.module)
        for call in _body_calls(source.tree):
            if id(call) not in seen_calls:
                _record(graph, table, None, caller, call)
    return graph


def _function_infos_of(graph: CallGraph, module: str) -> List[FunctionInfo]:
    return [f for f in graph.functions.values() if f.module == module]


def _record(
    graph: CallGraph,
    table: ModuleTable,
    class_name: Optional[str],
    caller: str,
    call: ast.Call,
) -> None:
    key, external = _resolve_call(graph, table, class_name, call)
    if key is not None:
        edge = CallEdge(caller=caller, callee=key, call=call)
        graph.edges.append(edge)
        graph.callers.setdefault(key, []).append(edge)
        graph.callees.setdefault(caller, []).append(edge)
    elif external is not None:
        graph.externals.append(
            ExternalCall(caller=caller, name=external, call=call)
        )


_CACHE_ATTR = "_flow_callgraph"


def get_callgraph(project: Project) -> CallGraph:
    """Build (or fetch the cached) call graph for ``project``.

    The graph is stashed on the project instance so the five flow rules
    dispatched by one ``lint_sources`` run share a single build.
    """
    graph = getattr(project, _CACHE_ATTR, None)
    if graph is None:
        graph = build_callgraph(project)
        setattr(project, _CACHE_ATTR, graph)
    return graph
