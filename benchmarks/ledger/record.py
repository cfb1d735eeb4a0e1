"""Where and on what a result was measured."""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Optional

from .common import ROOT


def _git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def environment() -> dict:
    """Git sha and dirty flag (``None`` outside a checkout with git
    metadata, as in the driver's copy), interpreter, platform, nproc."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
