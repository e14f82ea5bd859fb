"""Event-schema contracts: the declared registry vs telemetry consumers.

The registry is the ``EVENT_SCHEMAS`` literal of the project's
``telemetry/schema.py`` module: each event kind with its payload fields,
``extra: True`` marking an *open* kind whose field tuple is only a lower
bound.  ``BOOKKEEPING_FIELDS`` in the same module lists the fields valid
on every kind.  Both are read with ``ast.literal_eval``; the code under
analysis is never imported.  Producers are checked at runtime instead,
by ``TelemetryRun.emit``.

**Checking** — a *consumer variable* is any name whose scope reads
``x["kind"]``/``x.get("kind")``.  Constant kind comparisons against such
expressions (``==``, ``!=``, ``in`` over literal or module-constant
sets, kind-keyed dict lookups) are validated against the registry
(RL011); constant field subscripts/gets/membership tests on the
variable are validated against the kind set the surrounding control flow
narrows to (RL012).  Narrowing understands ``if kind == "k":`` bodies,
``if kind != "k": continue/return`` guards, ``kind in CONSTANT_SET``,
and ``and``-conjunctions; unresolvable guards fall back to the union of
all known fields, so the pass under-reports rather than guesses.

A project without a registry module has no contract to check, and a
registry module whose tables are not readable literals is itself an
RL011 finding.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..sources import Project, SourceFile

__all__ = [
    "check_consumers",
    "parse_registry_literal",
    "SCHEMA_MODULE_SUFFIX",
]

#: Project-relative path suffix of the event-schema registry module.
SCHEMA_MODULE_SUFFIX = "telemetry/schema.py"

#: The registry table: kind -> ``{"fields": (...), "extra": bool}``.
_Schemas = Dict[str, Dict[str, object]]


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ---------------------------------------------------------------------------
# consumer checking

_JUMPS = (ast.Continue, ast.Break, ast.Return, ast.Raise)


def _module_string_sets(source: SourceFile) -> Dict[str, Set[str]]:
    """Module-level names bound to all-string set/frozenset/tuple/list."""
    out: Dict[str, Set[str]] = {}
    for stmt in source.tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set", "tuple")
            and len(value.args) == 1
        ):
            value = value.args[0]
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            elements = [_const_str(e) for e in value.elts]
            if elements and all(e is not None for e in elements):
                out[target.id] = set(elements)
    return out


def _is_kind_access(node: ast.AST) -> Optional[str]:
    """If ``node`` reads ``x["kind"]``/``x.get("kind")``, return ``x``."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        if _const_str(node.slice) == "kind":
            return node.value.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.args
        and _const_str(node.args[0]) == "kind"
    ):
        return node.func.value.id
    return None


@dataclass
class _Scope:
    """Consumer facts for one function (or the module body)."""

    event_vars: Set[str] = field(default_factory=set)
    kind_vars: Set[str] = field(default_factory=set)
    kind_dict_vars: Set[str] = field(default_factory=set)
    #: list name -> kinds stored in it (None = unknown); iterating the
    #: list yields events of those kinds.
    list_collections: Dict[str, Optional[Set[str]]] = field(
        default_factory=dict
    )
    #: dict-of-lists name -> kinds; iterating ``d[key]`` yields events.
    dict_collections: Dict[str, Optional[Set[str]]] = field(
        default_factory=dict
    )


def _collect_scope(node: ast.AST) -> _Scope:
    """First pass: find event vars, kind vars, and kind-keyed dicts."""
    scope = _Scope()
    nested = _nested_function_nodes(node)
    for child in ast.walk(node):
        if id(child) in nested:
            continue
        var = _is_kind_access(child)
        if var is not None:
            scope.event_vars.add(var)
        if isinstance(child, ast.Assign):
            if _is_kind_expr(child.value, scope):
                for t in child.targets:
                    if isinstance(t, ast.Name):
                        scope.kind_vars.add(t.id)
            for t in child.targets:
                if (
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                    and _is_kind_expr(t.slice, scope)
                ):
                    scope.kind_dict_vars.add(t.value.id)
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in ("get", "setdefault")
            and isinstance(child.func.value, ast.Name)
            and child.args
            and _is_kind_expr(child.args[0], scope)
            and _const_str(child.args[0]) is None
        ):
            scope.kind_dict_vars.add(child.func.value.id)
    return scope


def _nested_function_nodes(node: ast.AST) -> Set[int]:
    """ids of nodes inside nested defs (they get their own scope pass)."""
    out: Set[int] = set()
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(child):
                if sub is not child:
                    out.add(id(sub))
    return out


def _is_kind_expr(node: ast.AST, scope: _Scope) -> bool:
    """Does ``node`` evaluate to an event kind?"""
    if _is_kind_access(node) is not None:
        return True
    if isinstance(node, ast.Name) and node.id in scope.kind_vars:
        return True
    return False


def _kind_literals(
    node: ast.AST, constants: Dict[str, Set[str]]
) -> Optional[Set[str]]:
    """Constant kind-set of a comparison operand, if known."""
    text = _const_str(node)
    if text is not None:
        return {text}
    if isinstance(node, ast.Name) and node.id in constants:
        return set(constants[node.id])
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        elements = [_const_str(e) for e in node.elts]
        if elements and all(e is not None for e in elements):
            return set(elements)
    return None


def _test_narrowing(
    test: ast.AST, scope: _Scope, constants: Dict[str, Set[str]]
) -> Tuple[Optional[Set[str]], Optional[Set[str]]]:
    """``(positive, negative)`` kind sets implied by an if-test.

    ``positive`` narrows the body; ``negative`` narrows the code
    after a ``!= k: continue``-style guard.  ``None`` = no claim.
    """
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        positive: Optional[Set[str]] = None
        for value in test.values:
            pos, _ = _test_narrowing(value, scope, constants)
            if pos is not None:
                positive = pos if positive is None else positive & pos
        return positive, None
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None, None
    left, op, right = test.left, test.ops[0], test.comparators[0]
    if isinstance(op, (ast.Eq, ast.NotEq)):
        kind_side = None
        const_side = None
        for a, b in ((left, right), (right, left)):
            if _is_kind_expr(a, scope):
                kind_side, const_side = a, b
                break
        if kind_side is None:
            return None, None
        kinds = _kind_literals(const_side, constants)
        if kinds is None:
            return None, None
        if isinstance(op, ast.Eq):
            return kinds, None
        return None, kinds
    if isinstance(op, (ast.In, ast.NotIn)):
        if not _is_kind_expr(left, scope):
            return None, None
        kinds = _kind_literals(right, constants)
        if kinds is None:
            return None, None
        if isinstance(op, ast.In):
            return kinds, None
        return None, kinds
    return None, None


def _collection_base(node: ast.AST) -> Optional[str]:
    """Dict name behind ``C[k]`` or ``C.setdefault(k, default)``."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setdefault"
        and isinstance(node.func.value, ast.Name)
    ):
        return node.func.value.id
    return None


def _merge_collection(
    out: Dict[str, Optional[Set[str]]],
    name: str,
    kinds: Optional[Set[str]],
) -> None:
    if name in out:
        previous = out[name]
        out[name] = (
            None
            if previous is None or kinds is None
            else previous | kinds
        )
    else:
        out[name] = set(kinds) if kinds is not None else None


def _collect_collections(
    stmts: List[ast.stmt],
    scope: _Scope,
    constants: Dict[str, Set[str]],
    kinds: Optional[Set[str]] = None,
) -> None:
    """Record collections that store event vars, with the kind
    narrowing in force at each store site.

    ``events`` appended to a list (``bucket.append(event)``) or filed
    into a dict of lists (``by_rate.setdefault(r, []).append(event)``)
    keep their schema; tracking the store lets the checker treat a later
    ``for d in by_rate[r]`` loop variable as an event of those kinds.
    An unnarrowed store poisons the collection to ``None`` (no claim).
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # own scope
        if isinstance(stmt, ast.If):
            positive, _ = _test_narrowing(stmt.test, scope, constants)
            body_kinds = kinds
            if positive is not None:
                body_kinds = positive if kinds is None else positive & kinds
            _collect_collections(stmt.body, scope, constants, body_kinds)
            _collect_collections(stmt.orelse, scope, constants, kinds)
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            _collect_collections(stmt.body, scope, constants, kinds)
            _collect_collections(stmt.orelse, scope, constants, kinds)
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            _collect_collections(stmt.body, scope, constants, kinds)
            continue
        if isinstance(stmt, ast.Try):
            _collect_collections(stmt.body, scope, constants, kinds)
            for handler in stmt.handlers:
                _collect_collections(handler.body, scope, constants, kinds)
            _collect_collections(stmt.orelse, scope, constants, kinds)
            _collect_collections(stmt.finalbody, scope, constants, kinds)
            continue
        for child in ast.walk(stmt):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "append"
                and len(child.args) == 1
                and isinstance(child.args[0], ast.Name)
                and child.args[0].id in scope.event_vars
            ):
                target = child.func.value
                if isinstance(target, ast.Name):
                    _merge_collection(
                        scope.list_collections, target.id, kinds
                    )
                else:
                    base = _collection_base(target)
                    if base is not None:
                        _merge_collection(
                            scope.dict_collections, base, kinds
                        )
            if (
                isinstance(child, ast.Assign)
                and isinstance(child.value, ast.Name)
                and child.value.id in scope.event_vars
            ):
                for assign_target in child.targets:
                    base = _collection_base(assign_target)
                    if base is not None:
                        _merge_collection(
                            scope.dict_collections, base, kinds
                        )


#: Sentinel distinguishing "not an event collection" from a collection
#: whose stored kinds are unknown (``None``).
_NOT_A_COLLECTION = object()


class _ConsumerChecker:
    """Second pass over one scope: validate kinds and narrowed fields."""

    def __init__(
        self,
        source: SourceFile,
        scope: _Scope,
        schemas: _Schemas,
        bookkeeping: Set[str],
        constants: Dict[str, Set[str]],
    ) -> None:
        self.source = source
        self.scope = scope
        self.schemas = schemas
        self.bookkeeping = bookkeeping
        self.constants = constants
        self.all_fields: Set[str] = set(bookkeeping)
        for entry in schemas.values():
            self.all_fields.update(entry["fields"])
        self.any_open = any(entry["extra"] for entry in schemas.values())
        self.findings: List[Tuple[str, ast.AST, str]] = []

    # -- checks ---------------------------------------------------------

    def _check_kind(self, kind: str, anchor: ast.AST) -> None:
        if kind not in self.schemas:
            self.findings.append(
                (
                    "RL011",
                    anchor,
                    f"unknown event kind {kind!r}: EVENT_SCHEMAS does "
                    "not declare it",
                )
            )

    def _check_field(
        self, name: str, kinds: Optional[Set[str]], anchor: ast.AST
    ) -> None:
        if name in self.bookkeeping:
            return
        if kinds is None:
            if name not in self.all_fields and not self.any_open:
                self.findings.append(
                    (
                        "RL012",
                        anchor,
                        f"unknown event field {name!r}: no kind in "
                        "EVENT_SCHEMAS declares it",
                    )
                )
            return
        known = {k for k in kinds if k in self.schemas}
        if not known:
            return  # RL011 already reported the unknown kind
        if any(self.schemas[k]["extra"] for k in known):
            return
        allowed: Set[str] = set()
        for k in known:
            allowed.update(self.schemas[k]["fields"])
        if name not in allowed:
            label = ", ".join(sorted(known))
            self.findings.append(
                (
                    "RL012",
                    anchor,
                    f"unknown event field {name!r}: kind {label} "
                    "does not declare it in EVENT_SCHEMAS",
                )
            )

    def _check_expr(
        self, node: ast.AST, kinds: Optional[Set[str]]
    ) -> None:
        """Walk one expression tree, validating each access once.

        Nested defs get their own scope pass.  A comprehension that
        narrows the kinds checks its element itself, so the walk skips it.
        """
        todo = deque([node])
        while todo:
            child = todo.popleft()
            checked = self._check_node(child, kinds)
            if child is not node and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            todo.extend(
                sub for sub in ast.iter_child_nodes(child) if sub is not checked
            )

    def _stored_event_kinds(self, node: ast.AST):
        """Kinds of events yielded by iterating ``node``, or the
        ``_NOT_A_COLLECTION`` sentinel."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("sorted", "list", "reversed")
            and len(node.args) >= 1
        ):
            return self._stored_event_kinds(node.args[0])
        if (
            isinstance(node, ast.Name)
            and node.id in self.scope.list_collections
        ):
            return self.scope.list_collections[node.id]
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.scope.dict_collections
        ):
            return self.scope.dict_collections[node.value.id]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.scope.dict_collections
        ):
            return self.scope.dict_collections[node.func.value.id]
        return _NOT_A_COLLECTION

    def _check_node(
        self, node: ast.AST, kinds: Optional[Set[str]]
    ) -> Optional[ast.AST]:
        """Validate the accesses ``node`` itself makes; returns a subtree
        already checked under a tighter narrowing, if any."""
        # comprehensions: re-derive narrowing from their generators
        # (iterating a tracked event collection binds a new event var)
        # and their if-clauses
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            local = kinds
            for gen in node.generators:
                if isinstance(gen.target, ast.Name):
                    stored = self._stored_event_kinds(gen.iter)
                    if stored is not _NOT_A_COLLECTION:
                        self.scope.event_vars.add(gen.target.id)
                        local = stored
                for cond in gen.ifs:
                    pos, _ = _test_narrowing(
                        cond, self.scope, self.constants
                    )
                    if pos is not None:
                        local = pos if local is None else local & pos
            if local is not kinds:
                self._check_expr(node.elt, local)
                return node.elt
            return None
        # kind usages
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, op, right = node.left, node.ops[0], node.comparators[0]
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for a, b in ((left, right), (right, left)):
                    if _is_kind_expr(a, self.scope):
                        literals = _kind_literals(b, self.constants)
                        if literals is not None:
                            for kind in sorted(literals):
                                self._check_kind(kind, b)
                        break
            elif isinstance(op, (ast.In, ast.NotIn)) and _is_kind_expr(
                left, self.scope
            ):
                literals = _kind_literals(right, self.constants)
                if literals is not None:
                    for kind in sorted(literals):
                        self._check_kind(kind, right)
            # membership over an event var: ``"field" in event``
            if (
                isinstance(op, (ast.In, ast.NotIn))
                and isinstance(right, ast.Name)
                and right.id in self.scope.event_vars
            ):
                name = _const_str(left)
                if name is not None:
                    self._check_field(name, kinds, left)
        # field subscript ``event["f"]``
        if isinstance(node, ast.Subscript) and isinstance(
            node.value, ast.Name
        ):
            var = node.value.id
            name = _const_str(node.slice)
            if name is not None:
                if var in self.scope.event_vars and name != "kind":
                    self._check_field(name, kinds, node)
                elif var in self.scope.kind_dict_vars:
                    self._check_kind(name, node)
        # ``event.get("f", ...)`` / kind-dict ``by_kind.get("k")``
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.args
        ):
            var = node.func.value.id
            name = _const_str(node.args[0])
            if name is not None:
                if var in self.scope.event_vars and name != "kind":
                    self._check_field(name, kinds, node)
                elif var in self.scope.kind_dict_vars:
                    self._check_kind(name, node)

    def check_statements(
        self, stmts: List[ast.stmt], kinds: Optional[Set[str]]
    ) -> None:
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            index += 1
            if isinstance(stmt, ast.If):
                positive, negative = _test_narrowing(
                    stmt.test, self.scope, self.constants
                )
                self._check_expr(stmt.test, kinds)
                if positive is not None:
                    body_kinds = (
                        positive if kinds is None else positive & kinds
                    )
                    self.check_statements(stmt.body, body_kinds)
                    self.check_statements(stmt.orelse, kinds)
                    continue
                if negative is not None and any(
                    isinstance(s, _JUMPS) for s in stmt.body
                ):
                    self.check_statements(stmt.body, kinds)
                    self.check_statements(stmt.orelse, kinds)
                    remaining = (
                        negative if kinds is None else negative & kinds
                    )
                    self.check_statements(stmts[index:], remaining)
                    return
                self.check_statements(stmt.body, kinds)
                self.check_statements(stmt.orelse, kinds)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                body_kinds = kinds
                if isinstance(stmt, ast.While):
                    self._check_expr(stmt.test, kinds)
                else:
                    self._check_expr(stmt.iter, kinds)
                    if isinstance(stmt.target, ast.Name):
                        stored = self._stored_event_kinds(stmt.iter)
                        if stored is not _NOT_A_COLLECTION:
                            self.scope.event_vars.add(stmt.target.id)
                            body_kinds = stored
                self.check_statements(stmt.body, body_kinds)
                self.check_statements(stmt.orelse, kinds)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._check_expr(item.context_expr, kinds)
                self.check_statements(stmt.body, kinds)
                continue
            if isinstance(stmt, ast.Try):
                self.check_statements(stmt.body, kinds)
                for handler in stmt.handlers:
                    self.check_statements(handler.body, kinds)
                self.check_statements(stmt.orelse, kinds)
                self.check_statements(stmt.finalbody, kinds)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # own scope; handled separately
            self._check_expr(stmt, kinds)


def _iter_scopes(source: SourceFile) -> Iterator[Tuple[ast.AST, List[ast.stmt]]]:
    yield source.tree, [
        s
        for s in source.tree.body
        if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, list(node.body)


def parse_registry_literal(source: SourceFile, name: str) -> object:
    """The literal value bound to module-level ``name``, or ``None``."""
    for stmt in source.tree.body:
        target: Optional[ast.AST] = None
        value_node: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value_node = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value_node = stmt.target, stmt.value
        if (
            not isinstance(target, ast.Name)
            or target.id != name
            or value_node is None
        ):
            continue
        try:
            return ast.literal_eval(value_node)
        except (ValueError, SyntaxError):
            return None
    return None


def _is_names(value: object) -> bool:
    return isinstance(value, (tuple, list)) and all(
        isinstance(item, str) for item in value
    )


def _read_registry(
    source: SourceFile,
) -> Optional[Tuple[_Schemas, Set[str]]]:
    """``(EVENT_SCHEMAS, BOOKKEEPING_FIELDS)`` when both are well-formed."""
    schemas = parse_registry_literal(source, "EVENT_SCHEMAS")
    bookkeeping = parse_registry_literal(source, "BOOKKEEPING_FIELDS")
    if not isinstance(schemas, dict) or not _is_names(bookkeeping):
        return None
    for entry in schemas.values():
        if not (
            isinstance(entry, dict)
            and _is_names(entry.get("fields"))
            and isinstance(entry.get("extra"), bool)
        ):
            return None
    return schemas, set(bookkeeping)


def check_consumers(
    project: Project,
) -> Iterator[Tuple[str, SourceFile, object, str]]:
    """Yield ``(rule, source, anchor, message)`` contract violations."""
    registry_source = next(
        (
            source
            for source in project.sources
            if source.path.replace("\\", "/").endswith(SCHEMA_MODULE_SUFFIX)
        ),
        None,
    )
    if registry_source is None:
        return  # no registry in the linted paths: no contract to check
    registry = _read_registry(registry_source)
    if registry is None:
        yield (
            "RL011",
            registry_source,
            1,
            "event-schema registry needs EVENT_SCHEMAS and "
            "BOOKKEEPING_FIELDS as well-formed literals",
        )
        return
    schemas, bookkeeping = registry
    for source in project.sources:
        constants = _module_string_sets(source)
        for scope_node, stmts in _iter_scopes(source):
            scope = _collect_scope(scope_node)
            if not (scope.event_vars or scope.kind_dict_vars):
                continue
            _collect_collections(stmts, scope, constants)
            checker = _ConsumerChecker(
                source, scope, schemas, bookkeeping, constants
            )
            checker.check_statements(stmts, None)
            for rule, anchor, message in checker.findings:
                yield rule, source, anchor, message
