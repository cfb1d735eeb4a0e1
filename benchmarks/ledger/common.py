"""What every workload shares: the run context, the outcome shape, the
timing helper, child-process plumbing."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import catalogue
from .inputs import Sizes
from .spans import SpanRecorder

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
SRC = ROOT / "src"
OUT_DIR = PACKAGE_DIR / "out"


@dataclass
class Context:
    """One run of one workload."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    sizes: Sizes = field(default_factory=Sizes)
    recorder: SpanRecorder = field(default_factory=lambda: SpanRecorder(False))

    def reps(self, nominal: int, minimum: int = 1) -> int:
        """Repetitions for ``--seconds``: *nominal* at RUN_SECONDS.

        Counts, not a stopwatch, bound the loops so the same seed and
        seconds replay exactly the same operations.
        """
        scaled = round(nominal * self.seconds / catalogue.RUN_SECONDS)
        return max(minimum, scaled)


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Sample count behind each metric that summarises samples.
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Exact counts that must repeat for the same seed.
    counts: Dict[str, int] = field(default_factory=dict)
    #: sha256 of every generated input and checked output.
    hashes: Dict[str, str] = field(default_factory=dict)

    def expect(self, ok: bool, label: str) -> None:
        """Count one checked operation; a false one is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)

    def put(self, name: str, value: float, n: Optional[int] = None) -> None:
        self.metrics[name] = float(value)
        if n is not None:
            self.samples[name] = n


@contextmanager
def timed(recorder: SpanRecorder, name: str, sink: List[float], **attrs) -> Iterator[None]:
    """Time the body into *sink*, inside a span when tracing is on."""
    with recorder.span(name, **attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            sink.append(time.perf_counter() - start)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(
    argv: Sequence[str], stdout, stderr=subprocess.DEVNULL, timeout: float = 170.0
) -> Tuple[int, float, float]:
    """Run *argv* to completion: ``(exit status, wall s, peak RSS MB)``.

    The RSS is this child's own ``ru_maxrss`` (from ``wait4``), not the
    running maximum over every child so far.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        list(argv), stdout=stdout, stderr=stderr, env=child_env(), cwd=str(ROOT)
    )
    killer = threading.Timer(timeout, process.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(process.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    # Tell Popen the child is reaped so it neither waits nor warns.
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, wall, usage.ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def python() -> str:
    return sys.executable or "python3"
