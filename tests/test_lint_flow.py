"""Cross-module dataflow rules (RL011–RL015) and the event registry.

Fixture projects are in-memory multi-file snippets run through the real
engine, plus acceptance checks against the actual ``src/repro`` tree:
every constant-kind ``emit()`` site must match the declared registry,
and the tree must be clean under all five flow rules.
"""

import ast
import os
import textwrap

import repro.lint.rules  # noqa: F401  (registers the built-in rules)
from repro.lint import lint_paths, lint_sources
from repro.lint.flow.purity import submission_sites
from repro.lint.sources import Project, SourceFile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

FLOW_RULES = ["RL011", "RL012", "RL013", "RL014", "RL015"]

#: Registry declaration shared by the contract fixtures: one closed kind.
CLOSED_KIND = '{"epoch_done": {"fields": ("accuracy", "epoch"), "extra": False}}'


def source(text, path="pkg/mod.py", module="pkg.mod"):
    return SourceFile.from_text(
        textwrap.dedent(text), path=path, module=module
    )


def registry(schemas=CLOSED_KIND):
    """A ``pkg/telemetry/schema.py`` fixture declaring ``schemas``."""
    return SourceFile.from_text(
        'BOOKKEEPING_FIELDS = ("kind", "run_id", "seq", "ts")\n'
        f"EVENT_SCHEMAS = {schemas}\n",
        path="pkg/telemetry/schema.py",
        module="pkg.telemetry.schema",
    )


def lint_project(*sources, select=None):
    return lint_sources(Project(list(sources)), select=select)


def rules_fired(findings):
    return {f.rule for f in findings}


# -- RL011 unknown-event-kind ----------------------------------------------


def test_rl011_flags_unknown_kind():
    consumer = source(
        """
        def consume(events):
            for event in events:
                if event["kind"] == "train_done":
                    yield event
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    findings = lint_project(registry(), consumer, select=["RL011"])
    assert rules_fired(findings) == {"RL011"}
    assert "train_done" in findings[0].message
    assert findings[0].path == "pkg/cons.py"


def test_rl011_accepts_known_kind():
    consumer = source(
        """
        def consume(events):
            return [e for e in events if e["kind"] == "epoch_done"]
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    assert not lint_project(registry(), consumer, select=["RL011"])


def test_rl011_silent_without_registry_module():
    # A project with no registry module has no contract to check: its
    # consumers must not all be flagged.
    consumer = source(
        """
        def consume(events):
            return [e for e in events if e["kind"] == "anything"]
        """
    )
    assert not lint_project(consumer, select=["RL011", "RL012"])


def test_rl011_flags_unreadable_registry():
    unreadable = SourceFile.from_text(
        'BOOKKEEPING_FIELDS = ("kind",)\n'
        "EVENT_SCHEMAS = build_schemas()\n",
        path="pkg/telemetry/schema.py",
        module="pkg.telemetry.schema",
    )
    consumer = source(
        """
        def consume(events):
            return [e for e in events if e["kind"] == "anything"]
        """
    )
    findings = lint_project(unreadable, consumer, select=["RL011"])
    assert [f.path for f in findings] == ["pkg/telemetry/schema.py"]
    assert "EVENT_SCHEMAS" in findings[0].message


# -- RL012 unknown-event-field ---------------------------------------------


def test_rl012_flags_misspelled_field_under_narrowing():
    consumer = source(
        """
        def consume(events):
            for event in events:
                if event["kind"] == "epoch_done":
                    yield event["acuracy"]
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    findings = lint_project(registry(), consumer, select=["RL012"])
    assert rules_fired(findings) == {"RL012"}
    assert "acuracy" in findings[0].message


def test_rl012_accepts_schema_and_bookkeeping_fields():
    consumer = source(
        """
        def consume(events):
            for event in events:
                if event["kind"] == "epoch_done":
                    yield event["accuracy"], event.get("ts"), event["seq"]
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    assert not lint_project(registry(), consumer, select=["RL012"])


def test_rl012_open_kind_skips_field_checks():
    open_kind = registry(
        '{"epoch_done": {"fields": ("epoch",), "extra": True}}'
    )
    consumer = source(
        """
        def consume(events):
            for event in events:
                if event["kind"] == "epoch_done":
                    yield event["whatever"]
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    # An open kind declares only a lower bound of its fields: never guess.
    assert not lint_project(open_kind, consumer, select=["RL012"])


def test_rl012_follows_events_through_collections():
    # The summarize_run pattern: events filed into a dict of lists
    # under kind narrowing, then read back in a later loop.
    consumer = source(
        """
        def summarize(events):
            draws = {}
            for event in events:
                kind = event["kind"]
                if kind == "epoch_done":
                    draws.setdefault(event["epoch"], []).append(event)
            out = []
            for key in sorted(draws):
                out.append([d["acuracy"] for d in draws[key]])
            return out
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    findings = lint_project(registry(), consumer, select=["RL012"])
    assert len(findings) == 1  # once, under the comprehension's narrowing
    assert rules_fired(findings) == {"RL012"}
    assert "acuracy" in findings[0].message
    assert "epoch_done" in findings[0].message


def test_rl012_collection_tracking_accepts_valid_fields():
    consumer = source(
        """
        def summarize(events):
            bucket = []
            for event in events:
                if event["kind"] == "epoch_done":
                    bucket.append(event)
            for d in bucket:
                yield d["accuracy"], d.get("ts")
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    assert not lint_project(registry(), consumer, select=["RL012"])


def test_rl012_unnarrowed_collection_store_makes_no_claim():
    consumer = source(
        """
        def summarize(events, extras):
            bucket = []
            for event in events:
                event["kind"]
                bucket.append(event)  # no narrowing at the store site
            return [d["anything"] for d in bucket]
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    # One closed kind and no open kinds: the all-kinds fallback still
    # applies, so 'anything' is flagged — but against no specific kind.
    findings = lint_project(registry(), consumer, select=["RL012"])
    assert all("epoch_done" not in f.message for f in findings)


def test_rl012_unnarrowed_access_checked_against_all_kinds():
    consumer = source(
        """
        def consume(events):
            return [e["nowhere"] for e in events if e["kind"] == "epoch_done"]
        """,
        path="pkg/cons.py",
        module="pkg.cons",
    )
    findings = lint_project(registry(), consumer, select=["RL012"])
    assert rules_fired(findings) == {"RL012"}


# -- RL013 rng-taint --------------------------------------------------------


def test_rl013_flags_public_api_hiding_entropy():
    mod = source(
        """
        import numpy as np

        def _noise():
            return np.random.default_rng().normal()

        def sample_devices(count):
            return [_noise() for _ in range(count)]
        """
    )
    findings = lint_project(mod, select=["RL013"])
    assert rules_fired(findings) == {"RL013"}
    assert any("sample_devices" in f.message for f in findings)


def test_rl013_flags_rng_param_reaching_hidden_entropy():
    mod = source(
        """
        import numpy as np

        def _noise():
            return np.random.default_rng().normal()

        def jitter(rng, x):
            return x + _noise()
        """
    )
    findings = lint_project(mod, select=["RL013"])
    messages = " | ".join(f.message for f in findings)
    assert "jitter" in messages and "rng" in messages


def test_rl013_accepts_threaded_rng_and_seeded_generators():
    mod = source(
        """
        import numpy as np

        def _noise(rng):
            return rng.normal()

        def sample_devices(count, rng):
            return [_noise(rng) for _ in range(count)]

        def reference_draw():
            return np.random.default_rng(1234).normal()
        """
    )
    assert not lint_project(mod, select=["RL013"])


# -- RL014 impure-worker ----------------------------------------------------


def test_rl014_flags_worker_capturing_module_global_mutable():
    mod = source(
        """
        from repro.parallel import ParallelMap

        _CACHE = {}

        def bad_task(task, context):
            return _CACHE[task]

        def run(tasks, ctx):
            pmap = ParallelMap(workers=2)
            return pmap.map(bad_task, tasks, ctx)
        """
    )
    findings = lint_project(mod, select=["RL014"])
    assert rules_fired(findings) == {"RL014"}
    assert "_CACHE" in findings[0].message


def test_rl014_flags_lambda_worker():
    mod = source(
        """
        from repro.parallel import ParallelMap

        def run(tasks, ctx):
            pmap = ParallelMap(workers=2)
            return pmap.map(lambda t, c: t, tasks, ctx)
        """
    )
    findings = lint_project(mod, select=["RL014"])
    assert rules_fired(findings) == {"RL014"}


def test_rl014_flags_nested_def_worker():
    mod = source(
        """
        from repro.parallel import ParallelMap

        def run(tasks, ctx):
            def task(t, c):
                return t

            pmap = ParallelMap(workers=2)
            return pmap.map(task, tasks, ctx)
        """
    )
    findings = lint_project(mod, select=["RL014"])
    assert rules_fired(findings) == {"RL014"}


def test_rl014_accepts_pure_module_level_worker():
    mod = source(
        """
        from repro.parallel import ParallelMap

        _SCALE = 2.0

        def good_task(task, context):
            return task * _SCALE

        def run(tasks, ctx):
            pmap = ParallelMap(workers=2)
            return pmap.map(good_task, tasks, ctx)
        """
    )
    # _SCALE is an immutable module constant: safe to re-import per worker.
    assert not lint_project(mod, select=["RL014"])


def test_rl014_submission_site_marker_extends_defaults():
    marker = source(
        """
        LINT_SUBMISSION_SITES = {"MyPool.run": 0}

        class MyPool:
            def run(self, fn):
                return fn()
        """,
        path="pkg/pool.py",
        module="pkg.pool",
    )
    user = source(
        """
        from pkg.pool import MyPool

        def launch():
            pool = MyPool()
            return pool.run(lambda: 1)
        """,
        path="pkg/use.py",
        module="pkg.use",
    )
    project = Project([marker, user])
    sites = submission_sites(project)
    assert sites["MyPool.run"] == 0
    assert sites["ParallelMap.map"] == 0  # defaults survive the merge
    findings = lint_sources(project, select=["RL014"])
    assert rules_fired(findings) == {"RL014"}


# -- RL015 dead-private-helper ----------------------------------------------


def test_rl015_flags_unreferenced_private_helper():
    mod = source(
        """
        def _unused_helper():
            return 1

        def _used_helper():
            return 2

        def public():
            return _used_helper()
        """
    )
    findings = lint_project(mod, select=["RL015"])
    assert [f.rule for f in findings] == ["RL015"]
    assert "_unused_helper" in findings[0].message
    assert findings[0].severity == "warning"


def test_rl015_exempts_decorated_and_cross_module_references():
    mod = source(
        """
        def fixture(fn):
            return fn

        @fixture
        def _registered():
            return 1
        """,
        path="pkg/a.py",
        module="pkg.a",
    )
    other = source(
        """
        from pkg.b import _shared

        def use():
            return _shared()
        """,
        path="pkg/c.py",
        module="pkg.c",
    )
    shared = source(
        """
        def _shared():
            return 3
        """,
        path="pkg/b.py",
        module="pkg.b",
    )
    assert not lint_project(mod, other, shared, select=["RL015"])


# -- acceptance against the real tree ---------------------------------------


def _sweep_emit_sites():
    """Independent AST sweep: ``(path, line, kind, keyword names)`` of
    every constant-kind ``.emit(`` call."""
    sites = []
    for dirpath, dirnames, filenames in os.walk(
        os.path.join(SRC_ROOT, "repro")
    ):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    keywords = {kw.arg for kw in node.keywords if kw.arg}
                    sites.append(
                        (path, node.lineno, node.args[0].value, keywords)
                    )
    return sites


def test_registry_covers_every_emit_site():
    # The runtime check in TelemetryRun.emit only sees the sites a test
    # runs; this sweep covers every site statically.
    from repro.telemetry.schema import BOOKKEEPING_FIELDS, EVENT_SCHEMAS

    sites = _sweep_emit_sites()
    assert sites, "the tree must contain emit() sites"
    swept = {kind for _, _, kind, _ in sites}
    unproduced = sorted(set(EVENT_SCHEMAS) - swept)
    assert not unproduced, (
        f"declared kinds no emit() site produces: {unproduced}"
    )
    violations = []
    for path, line, kind, keywords in sites:
        where = f"{os.path.relpath(path, REPO_ROOT)}:{line}"
        entry = EVENT_SCHEMAS.get(kind)
        if entry is None:
            violations.append(f"{where}: undeclared kind {kind!r}")
            continue
        if entry["extra"]:
            continue
        allowed = set(entry["fields"]) | set(BOOKKEEPING_FIELDS)
        for name in sorted(keywords - allowed):
            violations.append(f"{where}: {kind!r} does not declare {name!r}")
    assert not violations, violations


def test_repo_is_clean_under_flow_rules():
    findings = lint_paths([SRC_ROOT], select=FLOW_RULES)
    assert findings == [], [f.to_dict() for f in findings]


# -- the call graph follows lazy package exports -------------------------------


def test_callgraph_resolves_through_a_lazy_export_table():
    """``pkg.run`` and a caller's ``from pkg import run`` both reach the
    submodule's def through the package's ``lazy_exports`` table, two
    packages deep, as they would through ``from .core import run``."""
    from repro.lint.flow.callgraph import build_callgraph

    def init(module, table):
        return SourceFile.from_text(
            "from ._exports import lazy_exports\n"
            f"__getattr__, __dir__, __all__ = lazy_exports(__name__, {table})\n",
            path=module.replace(".", "/") + "/__init__.py",
            module=module,
            is_package=True,
        )

    project = Project(
        [
            init("pkg", '{"inner": ("run",)}'),
            init("pkg.inner", '{"core": ("run",)}'),
            source("def run():\n    return 1\n", "pkg/inner/core.py", "pkg.inner.core"),
            source(
                "from pkg import run\n\ndef main():\n    return run()\n",
                "app.py",
                "app",
            ),
        ]
    )
    graph = build_callgraph(project)
    assert graph.resolve_qualified("pkg.run") == "pkg.inner.core:run"
    assert [e.callee for e in graph.callees["app:main"]] == ["pkg.inner.core:run"]
