"""``--changed``: git-diff-scoped file selection for fast pre-commit runs.

The changed set is the union of unstaged, staged, and untracked ``.py``
files reported by git, intersected with the analysis roots so
``repro.lint run --changed src`` never drags in edited test files.  Two
deliberate fallbacks keep the flag safe rather than fast-but-wrong:

* when the effective rule selection includes any *project-scope* rule
  (RL003, RL004 and RL011–RL015 need every module to resolve imports,
  export tables, the event-schema registry, and call edges), the run
  silently covers the full roots — a partial project would
  under-report, which for a gate is the same as lying;
* when git is unavailable or the tree is not a repository, the run also
  falls back to the full roots, with a note on stderr.

An empty changed set is a success: nothing to lint, exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import List, Optional, Sequence

__all__ = ["changed_files", "scope_to_changed"]


def _git_lines(args: List[str]) -> Optional[List[str]]:
    try:
        proc = subprocess.run(
            ["git"] + args,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return [line.strip() for line in proc.stdout.splitlines() if line.strip()]


def changed_files() -> Optional[List[str]]:
    """Changed ``.py`` files (worktree + index + untracked), or ``None``.

    ``None`` means git could not answer (not a repo, no git binary);
    callers should fall back to a full run.
    """
    tracked = _git_lines(["diff", "--name-only", "HEAD", "--"])
    if tracked is None:
        return None
    untracked = _git_lines(["ls-files", "--others", "--exclude-standard"])
    if untracked is None:
        return None
    out = sorted(set(tracked) | set(untracked))
    return [path for path in out if path.endswith(".py")]


def _under_roots(path: str, roots: Sequence[str]) -> bool:
    norm = path.replace("\\", "/")
    for root in roots:
        root_norm = root.rstrip("/").replace("\\", "/")
        if norm == root_norm or norm.startswith(root_norm + "/"):
            return True
    return False


def scope_to_changed(
    roots: Sequence[str], rule_ids: Sequence[str]
) -> Optional[List[str]]:
    """The file subset a ``--changed`` run should analyse.

    Returns ``None`` for "analyse the full roots" (project-scope rules
    selected, or git unavailable) and a — possibly empty — file list
    otherwise.
    """
    from .registry import default_registry

    project_rules = sorted(
        rule.id
        for rule in default_registry().rules(scope="project")
        if rule.id in rule_ids
    )
    if project_rules:
        print(
            "lint: --changed covers the full tree (project-scope rules "
            f"selected: {', '.join(project_rules)})",
            file=sys.stderr,
        )
        return None
    changed = changed_files()
    if changed is None:
        print(
            "lint: --changed needs git; falling back to a full run",
            file=sys.stderr,
        )
        return None
    return [
        path
        for path in changed
        if _under_roots(path, roots) and os.path.exists(path)
    ]
