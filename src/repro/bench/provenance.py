"""Environment provenance for benchmark documents.

A timing is meaningless without knowing *what* was timed and *where*, so
every ``BENCH_*.json`` embeds the commit (SHA + dirty flag), interpreter
and numpy versions, platform string and CPU count.  All fields degrade
gracefully: outside a git checkout the git fields are ``None`` rather
than an error, so the harness also works from a tarball.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Optional

import numpy as np

__all__ = ["collect_provenance", "git_sha", "git_dirty"]

#: The loaded ``repro`` package's directory: where git runs by default.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(args, cwd: Optional[str] = None) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=_PACKAGE_DIR if cwd is None else cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current commit SHA, or ``None`` outside a git checkout."""
    return _git(["rev-parse", "HEAD"], cwd=cwd)


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether the worktree has uncommitted changes (``None`` if unknown)."""
    status = _git(["status", "--porcelain"], cwd=cwd)
    if status is None:
        return None
    return bool(status)


def collect_provenance(cwd: Optional[str] = None) -> dict:
    """Everything needed to interpret (and distrust) a benchmark number."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(cwd),
        "git_dirty": git_dirty(cwd),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
