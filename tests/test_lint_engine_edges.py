"""Engine edge cases: broken files, suppression widening, empty trees.

These exercise the plumbing underneath every rule — a linter that
crashes on the code it is supposed to gate is worse than no linter.
"""

import os
import subprocess
import sys

import repro.lint.rules  # noqa: F401  (registers the built-in rules)
from repro.lint import lint_paths
from repro.lint.engine import load_project

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint"] + args,
        capture_output=True,
        text=True,
        cwd=str(cwd),
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    )


# -- broken input -----------------------------------------------------------


def test_syntax_error_becomes_rl000_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n    pass\n")
    project, errors = load_project([str(tmp_path)])
    assert project.sources == []
    assert [f.rule for f in errors] == ["RL000"]
    assert "syntax error" in errors[0].message


def test_cli_reports_syntax_error_and_exits_1(tmp_path):
    (tmp_path / "bad.py").write_text("def broken(:\n")
    proc = run_cli(["run", "--no-baseline", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "RL000" in proc.stdout


# -- empty trees ------------------------------------------------------------


def test_empty_project_is_clean(tmp_path):
    assert lint_paths([str(tmp_path)]) == []


def test_cli_empty_project_exits_0(tmp_path):
    proc = run_cli(["run", "--no-baseline", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 0
    assert "no findings" in proc.stdout


# -- suppression-line widening ----------------------------------------------


_DECORATED_MODULE = (
    "import functools\n"
    "\n"
    "__all__ = []\n"
    "\n"
    "\n"
    "@functools.wraps(len){comment}\n"
    "def cached_lookup(key):\n"
    "    return key\n"
)


def test_suppression_on_decorator_line_of_flagged_def(tmp_path):
    # RL004 anchors on the def; the disable comment rides the decorator.
    target = tmp_path / "mod.py"
    target.write_text(_DECORATED_MODULE.format(comment=""))
    assert [f.rule for f in lint_paths([str(target)], select=["RL004"])] == [
        "RL004"
    ]
    target.write_text(
        _DECORATED_MODULE.format(comment="  # repro-lint: disable=RL004")
    )
    assert lint_paths([str(target)], select=["RL004"]) == []


def test_suppression_on_closing_line_of_multiline_expression(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n\nrng = np.random.default_rng(\n)\n"
    )
    assert [f.rule for f in lint_paths([str(target)], select=["RL001"])] == [
        "RL001"
    ]
    target.write_text(
        "import numpy as np\n"
        "\n"
        "rng = np.random.default_rng(\n"
        ")  # repro-lint: disable=RL001\n"
    )
    assert lint_paths([str(target)], select=["RL001"]) == []


def test_statement_anchors_stay_line_scoped(tmp_path):
    # A comment inside a block must not silence a finding on its header.
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "\n"
        "rng = np.random.default_rng()\n"
        "x = 1  # repro-lint: disable=RL001\n"
    )
    findings = lint_paths([str(target)], select=["RL001"])
    assert [f.rule for f in findings] == ["RL001"]


# -- --changed scoping ------------------------------------------------------


def _init_repo(path):
    for args in (
        ["init", "-q"],
        ["config", "user.email", "lint@test"],
        ["config", "user.name", "lint"],
    ):
        subprocess.run(["git"] + args, cwd=str(path), check=True)


def test_changed_scope_lints_only_touched_files(tmp_path):
    _init_repo(tmp_path)
    src = tmp_path / "src"
    src.mkdir()
    (src / "clean.py").write_text("x = 1\n")
    (src / "dirty.py").write_text("x = 1\n")
    subprocess.run(["git", "add", "-A"], cwd=str(tmp_path), check=True)
    subprocess.run(
        ["git", "commit", "-qm", "seed"], cwd=str(tmp_path), check=True
    )
    # Both files now carry an RL001 finding, but only dirty.py changed.
    (src / "dirty.py").write_text(
        "import numpy as np\nrng = np.random.default_rng()\n"
    )
    proc = run_cli(
        ["run", "--changed", "--no-baseline", "--select", "RL001", "src"],
        cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "dirty.py" in proc.stdout


def test_changed_scope_empty_set_exits_0(tmp_path):
    _init_repo(tmp_path)
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text("x = 1\n")
    subprocess.run(["git", "add", "-A"], cwd=str(tmp_path), check=True)
    subprocess.run(
        ["git", "commit", "-qm", "seed"], cwd=str(tmp_path), check=True
    )
    proc = run_cli(
        ["run", "--changed", "--no-baseline", "--select", "RL001", "src"],
        cwd=tmp_path,
    )
    assert proc.returncode == 0


def test_changed_scope_falls_back_for_project_rules(tmp_path):
    _init_repo(tmp_path)
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text("x = 1\n")
    subprocess.run(["git", "add", "-A"], cwd=str(tmp_path), check=True)
    subprocess.run(
        ["git", "commit", "-qm", "seed"], cwd=str(tmp_path), check=True
    )
    # No file changed, but RL011 is project-scope: the run must cover
    # the full tree rather than silently analysing nothing.
    proc = run_cli(
        ["run", "--changed", "--no-baseline", "--select", "RL011", "src"],
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert "full" in proc.stderr.lower() or "project" in proc.stderr.lower()
