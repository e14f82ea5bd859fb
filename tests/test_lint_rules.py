"""Per-rule tests for `repro.lint`: positive + negative fixtures each.

Fixtures are in-memory snippets run through the real engine (default
registry), so what is asserted here is exactly what `python -m
repro.lint run` would report.
"""

import textwrap

import pytest

import repro.lint.rules  # noqa: F401  (registers the built-in rules)
from repro.lint import Finding, default_registry, lint_sources
from repro.lint.sources import Project, SourceFile


def lint_snippet(text, path="pkg/mod.py", module="pkg.mod", select=None):
    source = SourceFile.from_text(
        textwrap.dedent(text), path=path, module=module
    )
    return lint_sources(Project([source]), select=select)


def rules_fired(findings):
    return {f.rule for f in findings}


# -- registry ---------------------------------------------------------------


def test_all_rules_registered():
    ids = [rule.id for rule in default_registry().rules()]
    assert ids == [f"RL{i:03d}" for i in range(1, 17)]


def test_rule_metadata_complete():
    for rule in default_registry().rules():
        assert rule.name and rule.description and rule.rationale
        assert rule.severity in ("error", "warning")
        assert rule.scope in ("file", "project")


# -- RL001 unseeded-rng -----------------------------------------------------


def test_rl001_flags_unseeded_default_rng():
    findings = lint_snippet(
        """
        import numpy as np
        rng = np.random.default_rng()
        """
    )
    assert rules_fired(findings) == {"RL001"}


def test_rl001_flags_legacy_global_api():
    findings = lint_snippet(
        """
        import numpy as np
        np.random.seed(0)
        x = np.random.normal(0.0, 1.0, size=4)
        """
    )
    assert [f.rule for f in findings] == ["RL001", "RL001"]


def test_rl001_accepts_seeded_default_rng():
    findings = lint_snippet(
        """
        import numpy as np
        rng = np.random.default_rng(1234)
        other = np.random.default_rng(seed=0)
        """
    )
    assert not rules_fired(findings)


# -- RL002 rng-not-threaded -------------------------------------------------


def test_rl002_flags_fresh_generator_inside_rng_function():
    findings = lint_snippet(
        """
        import numpy as np

        def sample(rng=None):
            generator = np.random.default_rng()
            return generator.random()
        """
    )
    assert rules_fired(findings) == {"RL002"}


def test_rl002_flags_global_api_inside_rng_function():
    findings = lint_snippet(
        """
        import numpy as np

        def shuffle_rows(x, rng):
            np.random.shuffle(x)
            return x
        """
    )
    assert rules_fired(findings) == {"RL002"}


def test_rl002_accepts_threaded_rng():
    findings = lint_snippet(
        """
        import numpy as np
        from repro.seeding import resolve_rng

        def sample(rng=None):
            rng = resolve_rng(rng)
            return rng.random()

        def spawn(rng):
            return np.random.default_rng(rng.integers(2**31))
        """
    )
    assert not rules_fired(findings)


# -- RL003 import-cycle -----------------------------------------------------


def _project(files):
    sources = [
        SourceFile.from_text(
            textwrap.dedent(text),
            path=path,
            module=path[: -len(".py")].replace("/", ".").replace(
                ".__init__", ""
            ),
            is_package=path.endswith("__init__.py"),
        )
        for path, text in files.items()
    ]
    return Project(sources)


def test_rl003_flags_two_module_cycle():
    project = _project(
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "from pkg import b\n",
            "pkg/b.py": "from pkg import a\n",
        }
    )
    findings = lint_sources(project, select=["RL003"])
    assert len(findings) == 1
    assert "pkg.a -> pkg.b -> pkg.a" in findings[0].message


def test_rl003_resolves_relative_imports():
    project = _project(
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "from .b import helper\n",
            "pkg/b.py": "from . import a\n",
        }
    )
    findings = lint_sources(project, select=["RL003"])
    assert len(findings) == 1


def test_rl003_accepts_acyclic_graph():
    project = _project(
        {
            "pkg/__init__.py": "from . import a, b\n",
            "pkg/a.py": "from .b import helper\n",
            "pkg/b.py": "def helper():\n    return 1\n",
        }
    )
    assert not lint_sources(project, select=["RL003"])


# -- RL004 public-api-drift -------------------------------------------------


def test_rl004_flags_ghost_export():
    findings = lint_snippet(
        """
        __all__ = ["exists", "ghost"]

        def exists():
            return 1
        """,
        select=["RL004"],
    )
    assert len(findings) == 1
    assert "ghost" in findings[0].message


def test_rl004_flags_unexported_public_def():
    findings = lint_snippet(
        """
        __all__ = ["exported"]

        def exported():
            return 1

        class Forgotten:
            pass
        """,
        select=["RL004"],
    )
    assert len(findings) == 1
    assert "Forgotten" in findings[0].message


def test_rl004_accepts_consistent_module():
    findings = lint_snippet(
        """
        from collections import Counter

        __all__ = ["Counter", "public", "CONSTANT"]

        CONSTANT = 3

        def public():
            return CONSTANT

        def _private():
            return 0
        """,
        select=["RL004"],
    )
    assert not findings


def test_rl004_skips_modules_without_all():
    findings = lint_snippet(
        """
        def anything():
            return 1
        """,
        select=["RL004"],
    )
    assert not findings


def _lazy_package(table):
    """A fixture package whose ``__init__`` declares ``table`` with
    ``lazy_exports``, plus a ``core`` module and a ``sub`` module."""
    init = (
        "from ._exports import lazy_exports\n\n"
        "VERSION = 1\n"
        f"__getattr__, __dir__, __all__ = lazy_exports(__name__, {table})\n"
    )
    return Project(
        [
            SourceFile.from_text(
                init, path="pkg/__init__.py", module="pkg", is_package=True
            ),
            SourceFile.from_text(
                "def run():\n    return 1\n", path="pkg/core.py", module="pkg.core"
            ),
            SourceFile.from_text("", path="pkg/sub.py", module="pkg.sub"),
        ]
    )


def test_rl004_accepts_consistent_export_table():
    project = _lazy_package('{".": ("sub", "VERSION"), "core": ("run",)}')
    assert not lint_sources(project, select=["RL004"])


@pytest.mark.parametrize(
    "table, ghost",
    [
        ('{"core": ("run", "ghost")}', "'ghost' from pkg.core"),
        ('{".": ("sub", "nowhere")}', "'nowhere'"),
        ('{"missing": ("run",)}', "pkg.missing, which is not in the project"),
    ],
    ids=["unbound-name", "unbound-own-name", "missing-module"],
)
def test_rl004_flags_export_table_entry_its_module_does_not_bind(table, ghost):
    findings = lint_sources(_lazy_package(table), select=["RL004"])
    assert [f.path for f in findings] == ["pkg/__init__.py"]
    assert ghost in findings[0].message


def test_rl004_rejects_a_computed_export_table():
    project = _lazy_package("dict(core=(\"run\",))")
    findings = lint_sources(project, select=["RL004"])
    assert len(findings) == 1 and "not a literal" in findings[0].message


# -- RL005 mutable-default --------------------------------------------------


def test_rl005_flags_mutable_defaults():
    findings = lint_snippet(
        """
        def f(history=[], table={}, tags=set()):
            return history, table, tags
        """
    )
    assert [f.rule for f in findings] == ["RL005"] * 3


def test_rl005_accepts_none_and_immutable_defaults():
    findings = lint_snippet(
        """
        def f(history=None, shape=(3, 3), name="x"):
            history = history if history is not None else []
            return history, shape, name
        """
    )
    assert not rules_fired(findings)


# -- RL006 param-mutation ---------------------------------------------------


def test_rl006_flags_subscript_and_augmented_writes():
    findings = lint_snippet(
        """
        def corrupt(model, mask):
            model.weight.data[mask] = 0.0
            model.head.bias.data += 1.0
        """,
        path="src/repro/experiments/hack.py",
    )
    assert [f.rule for f in findings] == ["RL006", "RL006"]


def test_rl006_accepts_rebinding_and_grad_accumulation():
    findings = lint_snippet(
        """
        def backward(self, grad):
            self.weight.grad += grad
            self.weight = grad
            snapshot = self.weight.data.copy()
            return snapshot
        """,
        path="src/repro/experiments/fine.py",
    )
    assert not rules_fired(findings)


def test_rl006_allowlists_optimizer_and_injector_code():
    snippet = """
        def step(param, lr, grad):
            param.data[...] = param.data - lr * grad
    """
    assert rules_fired(
        lint_snippet(snippet, path="src/repro/experiments/x.py")
    ) == {"RL006"}
    assert not lint_snippet(snippet, path="src/repro/nn/optim.py")
    assert not lint_snippet(snippet, path="src/repro/core/injector.py")


# -- RL007 docstring-param-drift --------------------------------------------


def test_rl007_flags_stale_documented_parameter():
    findings = lint_snippet(
        '''
        def f(alpha):
            """Compute.

            Parameters
            ----------
            alpha:
                Present.
            beta:
                Renamed away long ago.
            """
            return alpha
        '''
    )
    assert rules_fired(findings) == {"RL007"}
    assert "beta" in findings[0].message


def test_rl007_checks_class_docstring_against_init():
    findings = lint_snippet(
        '''
        class Layer:
            """A layer.

            Parameters
            ----------
            old_width:
                Stale.
            """

            def __init__(self, width):
                self.width = width
        '''
    )
    assert rules_fired(findings) == {"RL007"}


def test_rl007_accepts_matching_docstring():
    findings = lint_snippet(
        '''
        def f(alpha, beta=1, *args, gamma, **kwargs):
            """Compute.

            Parameters
            ----------
            alpha, beta:
                Documented together.
            *args:
                Extras.
            gamma:
                Keyword-only.
            **kwargs:
                Passthrough.
            """
            return alpha
        '''
    )
    assert not rules_fired(findings)


def test_rl007_ignores_returns_section():
    findings = lint_snippet(
        '''
        def f(x):
            """Compute.

            Returns
            -------
            result:
                Not a parameter.
            """
            return x
        '''
    )
    assert not rules_fired(findings)


# -- RL008 swallowed-exception ----------------------------------------------


def test_rl008_flags_bare_except_and_silent_broad_handler():
    findings = lint_snippet(
        """
        def risky():
            try:
                return 1
            except:
                raise
        """
    )
    assert rules_fired(findings) == {"RL008"}

    findings = lint_snippet(
        """
        def risky():
            try:
                return 1
            except Exception:
                pass
        """
    )
    assert rules_fired(findings) == {"RL008"}


def test_rl008_accepts_narrow_and_handled_exceptions():
    findings = lint_snippet(
        """
        def risky(log):
            try:
                return 1
            except ValueError:
                pass
            except Exception as exc:
                log(exc)
                return 0
        """
    )
    assert not rules_fired(findings)


# -- RL009 direct-multiprocessing -------------------------------------------


def test_rl009_flags_multiprocessing_import_outside_parallel():
    findings = lint_snippet(
        """
        import multiprocessing

        def fan_out(tasks):
            with multiprocessing.Pool(4) as pool:
                return pool.map(str, tasks)
        """,
        path="src/repro/experiments/hack.py",
        module="repro.experiments.hack",
    )
    assert rules_fired(findings) == {"RL009"}


def test_rl009_flags_concurrent_futures_forms():
    findings = lint_snippet(
        """
        import concurrent.futures
        from concurrent.futures import ProcessPoolExecutor
        from concurrent import futures
        from multiprocessing import get_context
        """,
        path="src/repro/core/sneaky.py",
        module="repro.core.sneaky",
    )
    assert [f.rule for f in findings] == ["RL009"] * 4


def test_rl009_accepts_repro_parallel_and_unrelated_imports():
    snippet = """
        import concurrent.futures as cf
        from multiprocessing import get_context
    """
    assert not lint_snippet(
        snippet,
        path="src/repro/parallel/executor.py",
        module="repro.parallel.executor",
    )
    findings = lint_snippet(
        """
        import threading
        from concurrency_toolkit import futures
        """,
        path="src/repro/core/fine.py",
        module="repro.core.fine",
    )
    assert not rules_fired(findings)


# -- RL010 walltime-duration ------------------------------------------------


def test_rl010_flags_time_time_duration():
    findings = lint_snippet(
        """
        import time

        def slow_step():
            start = time.time()
            do_work()
            return time.time() - start
        """,
        path="src/repro/core/slow.py",
        module="repro.core.slow",
    )
    assert [f.rule for f in findings] == ["RL010", "RL010"]
    assert all(f.severity == "warning" for f in findings)


def test_rl010_allows_timing_module_and_perf_counter():
    snippet = """
        import time

        def now():
            return time.time()
    """
    # The sanctioned clock module may read whatever clock it wants.
    assert not lint_snippet(
        snippet,
        path="src/repro/telemetry/timing.py",
        module="repro.telemetry.timing",
    )
    # perf_counter is the recommended path and never fires.
    assert not lint_snippet(
        """
        import time

        def measure():
            start = time.perf_counter()
            do_work()
            return time.perf_counter() - start
        """,
        path="src/repro/core/fast.py",
        module="repro.core.fast",
    )


# -- RL016 foreign-profiler --------------------------------------------------


def test_rl016_flags_cprofile_import():
    findings = lint_snippet(
        """
        import cProfile

        def profile_it(fn):
            cProfile.run("fn()")
        """,
        path="src/repro/core/hot.py",
        module="repro.core.hot",
    )
    assert "RL016" in rules_fired(findings)


def test_rl016_flags_trace_hooks_and_frame_reads():
    findings = lint_snippet(
        """
        import sys
        import threading

        def hook(profiler):
            sys.setprofile(profiler)
            sys.settrace(profiler)
            threading.setprofile(profiler)
            frames = sys._current_frames()
            return frames
        """,
        path="src/repro/core/hooks.py",
        module="repro.core.hooks",
    )
    assert [f.rule for f in findings] == ["RL016"] * 4
    assert all(f.severity == "error" for f in findings)


def test_rl016_flags_from_import():
    findings = lint_snippet(
        """
        from cProfile import Profile

        p = Profile()
        """,
        path="src/repro/core/hot.py",
        module="repro.core.hot",
    )
    assert "RL016" in rules_fired(findings)


def test_rl016_allows_the_sampling_profiler_module():
    snippet = """
        import sys

        def sample(ident):
            return sys._current_frames().get(ident)
    """
    assert not lint_snippet(
        snippet,
        path="src/repro/telemetry/profiling.py",
        module="repro.telemetry.profiling",
    )
    # Same code anywhere else fires.
    assert "RL016" in rules_fired(
        lint_snippet(
            snippet,
            path="src/repro/core/peek.py",
            module="repro.core.peek",
        )
    )


def test_rl016_ignores_unrelated_profile_names():
    findings = lint_snippet(
        """
        from repro.telemetry import profiling

        def shape_profile(model):
            return model.profile()
        """,
        path="src/repro/core/shapes.py",
        module="repro.core.shapes",
    )
    assert "RL016" not in rules_fired(findings)


# -- suppressions -----------------------------------------------------------


def test_line_suppression_silences_named_rule():
    findings = lint_snippet(
        """
        import numpy as np
        rng = np.random.default_rng()  # repro-lint: disable=RL001
        """
    )
    assert not findings


def test_line_suppression_is_rule_specific():
    findings = lint_snippet(
        """
        import numpy as np
        rng = np.random.default_rng()  # repro-lint: disable=RL005
        """
    )
    assert rules_fired(findings) == {"RL001"}


def test_file_suppression_and_disable_all():
    findings = lint_snippet(
        """
        # repro-lint: disable-file=RL001
        import numpy as np
        a = np.random.default_rng()
        b = np.random.default_rng()
        """
    )
    assert not findings

    findings = lint_snippet(
        """
        import numpy as np

        def f(a=[]):  # repro-lint: disable=all
            return np.random.default_rng()
        """
    )
    # RL001 anchors on the call's own line, which carries no comment.
    assert rules_fired(findings) == {"RL001"}


# -- findings model ---------------------------------------------------------


def test_fingerprint_is_stable_across_line_moves():
    a = Finding(
        rule="RL001", severity="error", path="m.py", line=3, col=0,
        message="msg", snippet="rng = np.random.default_rng()",
    )
    b = Finding(
        rule="RL001", severity="error", path="m.py", line=99, col=4,
        message="msg", snippet="  rng = np.random.default_rng()  ",
    )
    assert a.fingerprint == b.fingerprint


def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError):
        Finding(
            rule="RL001", severity="fatal", path="m.py", line=1, col=0,
            message="msg",
        )
