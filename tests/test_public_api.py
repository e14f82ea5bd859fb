"""Public-API quality gates: exports resolve, everything is documented."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.nn",
    "repro.datasets",
    "repro.models",
    "repro.reram",
    "repro.core",
    "repro.pruning",
    "repro.quantization",
    "repro.baselines",
    "repro.experiments",
    "repro.lint",
    "repro.seeding",
    "repro.sweep",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} missing __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} not importable"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_items_documented(module_name):
    """Every exported class/function carries a docstring."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"undocumented exports: {undocumented}"


def _documented_somewhere(cls, meth_name):
    """True if the method or any base-class version of it has a docstring
    (an override inherits the documented contract)."""
    for base in cls.__mro__:
        candidate = base.__dict__.get(meth_name)
        if candidate is not None and (candidate.__doc__ or "").strip():
            return True
    return False


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_classes_methods_documented(module_name):
    """Public methods of exported classes carry docstrings (their own or
    an inherited contract)."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if not inspect.isclass(obj):
            continue
        for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
            if meth_name.startswith("_"):
                continue
            if meth.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited from elsewhere
            if not _documented_somewhere(obj, meth_name):
                undocumented.append(f"{name}.{meth_name}")
    assert not undocumented, f"undocumented methods: {undocumented}"


@pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
def test_all_has_no_duplicates(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__)), (
        f"{module_name}.__all__ has duplicate entries"
    )


def test_public_api_matches_lint_rule():
    """RL004 (public-api-drift) holds for the whole tree: every __all__
    name is bound, every public top-level def/class is exported."""
    from repro.lint import lint_paths

    root = os.path.join(os.path.dirname(__file__), "..", "src")
    findings = lint_paths([root], select=["RL004"])
    assert not findings, "\n".join(
        f"{f.path}:{f.line}: {f.message}" for f in findings
    )


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_no_import_side_effects():
    """Importing repro must not seed or consume global numpy RNG state."""
    import numpy as np

    np.random.seed(0)
    before = np.random.random()
    np.random.seed(0)
    importlib.reload(importlib.import_module("repro.core"))
    after = np.random.random()
    assert before == after


def test_import_loads_no_scipy():
    """scipy is a test-only oracle: importing the library, the sweep
    engine and the CLI must not load it."""
    code = (
        "import repro, repro.sweep, repro.experiments.cli, sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    ).stdout
    assert out.strip() == "[]"
