"""Public-API quality gates: exports resolve, everything is documented."""

import importlib
import inspect
import json
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
    "repro.telemetry",
    "repro.forensics",
    "repro.parallel",
    "repro.bench",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} missing __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} not importable"


@pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
def test_dir_and_star_import_cover_all(module_name):
    """``dir()`` lists every export of a lazy package, and ``from pkg
    import *`` binds every one of them."""
    module = importlib.import_module(module_name)
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_lazy_export_follows_its_submodule_and_rejects_unknown_names(
    monkeypatch,
):
    """A table name resolves from its submodule on every access and is not
    cached in the package namespace, so a binding replaced in the
    submodule (a tracer, ``monkeypatch``) shows through the package while
    it is replaced and is gone once it is put back.  A name outside the
    table raises AttributeError."""
    import repro.forensics as package
    import repro.forensics.render as render

    original = render.render_forensics
    assert package.render_forensics is original
    assert "render_forensics" not in vars(package)

    def replaced(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(render, "render_forensics", replaced)
    assert package.render_forensics is replaced
    monkeypatch.undo()
    assert package.render_forensics is original
    assert "render_forensics" not in vars(package)
    with pytest.raises(AttributeError, match="has no attribute 'not_exported'"):
        package.not_exported  # noqa: B018


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


def _fresh_stdout(code):
    """Run ``code`` in a fresh interpreter on this checkout's ``src``."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    ).stdout


def test_import_loads_no_scipy():
    """scipy is a test-only oracle: importing the library, the sweep
    engine and the CLI must not load it."""
    out = _fresh_stdout(
        "import repro, repro.sweep, repro.experiments.cli, sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]"


#: Subsystems the pipeline never runs: importing the library, the sweep
#: engine and the experiment runner must leave them unloaded.
COLD_MODULES = (
    "repro.bench",
    "repro.lint",
    "repro.baselines",
    "repro.pruning",
    "repro.quantization",
    "repro.telemetry.summary",
    "repro.telemetry.report",
    "repro.telemetry.trace",
    "repro.telemetry.ledger",
    "repro.telemetry.profiling",
    "repro.telemetry.monitor",
    "repro.reram.adc",
    "repro.reram.bitslice",
    "repro.reram.layers",
    "repro.reram.noise",
    "repro.experiments.table1",
    "repro.experiments.table2",
    "repro.experiments.figure2",
)


def _pool_modules(names):
    """The process-pool machinery among loaded module ``names``."""
    return sorted(
        name
        for name in names
        if name in ("concurrent.futures.process", "_multiprocessing")
        or name.split(".")[0] == "multiprocessing"
    )


def test_pipeline_import_leaves_cold_modules_unloaded():
    """The import guard behind the lazy package tables: a fresh interpreter
    importing what the end-to-end benchmark imports loads none of the
    cold subsystems (nor their submodules), and no process-pool machinery."""
    modules = _fresh_stdout(
        "import repro, repro.sweep, repro.experiments.runner, sys\n"
        "print('\\n'.join(sorted(sys.modules)))"
    ).split()
    assert not _pool_modules(modules), _pool_modules(modules)
    loaded = [name for name in modules if name.startswith("repro")]
    assert "repro.experiments.runner" in loaded
    cold = [
        name
        for name in loaded
        if any(name == c or name.startswith(c + ".") for c in COLD_MODULES)
    ]
    assert not cold, f"cold modules loaded: {cold}"
    assert len(loaded) <= 60, f"{len(loaded)} repro modules loaded"


def test_only_a_pooled_map_loads_the_pool_machinery():
    """A serial defect evaluation and a serial fault-tolerant fine-tune
    load no process-pool machinery; a later pooled map loads it in the
    parent and returns the serial results bit for bit."""
    code = """
import json, sys
import numpy as np
from repro.core.evaluate import evaluate_defect_accuracy
from repro.experiments.config import get_scale
from repro.experiments.runner import (
    build_backbone, make_loaders, train_fault_tolerant,
)

scale = get_scale("ci")
train, test = make_loaders(scale, 10)
model = build_backbone(scale, 10, np.random.default_rng(scale.seed))
model = train_fault_tolerant(model, "one_shot", 0.05, scale, train)
serial = evaluate_defect_accuracy(model, test, 0.05, num_runs=4, seed=5, workers=0)
after_serial = sorted(sys.modules)
pooled = evaluate_defect_accuracy(model, test, 0.05, num_runs=4, seed=5, workers=2)
print(json.dumps({
    "after_serial": after_serial,
    "after_pooled": sorted(sys.modules),
    "serial": [float(a).hex() for a in serial.run_accuracies],
    "pooled": [float(a).hex() for a in pooled.run_accuracies],
}))
"""
    out = json.loads(_fresh_stdout(code))
    assert not _pool_modules(out["after_serial"]), _pool_modules(
        out["after_serial"]
    )
    assert "concurrent.futures.process" in out["after_pooled"]
    assert "multiprocessing.context" in out["after_pooled"]
    assert out["pooled"] == out["serial"]
