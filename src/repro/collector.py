"""The cyclic collector's policy: every place the library scopes it.

CPython frees almost everything by reference count; the cyclic collector
exists for reference cycles, and finds them by walking every tracked
container.  The bulk phases of this program — a compile, a cold fact
generation, a first reduction — allocate millions of long-lived objects
that form no cycles (``tests/consistency/test_acyclic_heap.py`` holds
the fact base to that), so under the default policy the collector walks
the same growing heap thousands of times and frees nothing.

Three scopes, all of which restore what they found:

* :func:`bulk_load` — raise the generation-0 threshold while a bulk
  phase runs.  Not set at import (embedders own their process's policy)
  and not around warm requests (a millisecond recheck allocates little;
  a daemon that never collected would let real cycles pile up).
* :func:`frozen_fork_heap` — keep a warm heap on shared pages across a
  fork.
* :func:`collector_watch` — count the passes that did run, for the
  tracer.
"""

from __future__ import annotations

import contextlib
import gc
import os
import threading
import time
from typing import Dict, Iterator

#: Generation-0 threshold inside :func:`bulk_load` (CPython's default is
#: 700).  Raising it is safe for peak memory only because what a bulk
#: phase drops is acyclic and so freed by reference count at once; a
#: cyclic fact base would sit unreclaimed for 100,000 allocations.
BULK_LOAD_GEN0_THRESHOLD = 100_000

#: Guards the depth count and every freeze / unfreeze (so the check
#: ``bulk_load`` makes before it splices cannot go stale under it).
_lock = threading.Lock()
_depth = 0
_found = (0, 0, 0)


def _reset_in_child() -> None:
    """Only the forking thread survives a fork: a scope another thread
    had open would never close here, nor a lock it held be released."""
    global _lock, _depth
    _lock = threading.Lock()
    if _depth:
        _depth = 0
        gc.set_threshold(*_found)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


@contextlib.contextmanager
def bulk_load() -> Iterator[None]:
    """Run the block under :data:`BULK_LOAD_GEN0_THRESHOLD`.

    The threshold is process-wide, so the scope is counted process-wide:
    the first entry (from any thread) raises it, the last exit puts back
    what the first one found, and entries in between — nested or
    concurrent — change nothing.  The last exit also promotes what the
    block built to the oldest generation, so the postponed passes are
    not merely moved onto whoever allocates next — process-wide like the
    threshold: any thread's young objects, garbage cycles included, then
    wait for an oldest-generation pass.
    """
    global _depth, _found
    with _lock:
        if _depth == 0:
            _found = gc.get_threshold()
            gc.set_threshold(BULK_LOAD_GEN0_THRESHOLD, *_found[1:])
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.set_threshold(*_found)
                if not gc.get_freeze_count():
                    # freeze + unfreeze splice what the block built into
                    # the oldest generation without walking it; left
                    # young, the next request's first allocations would
                    # push it through two generations (0.3 s after a
                    # 10k-domain structural recheck).  Not when the heap
                    # is frozen on purpose (a pool worker's inherited
                    # one): unfreezing would undo that.
                    gc.freeze()
                    gc.unfreeze()


@contextlib.contextmanager
def frozen_fork_heap() -> Iterator[None]:
    """Freeze the GC heap around a fork so children share pages cleanly.

    Forked workers inherit the parent's heap copy-on-write; a GC pass in
    either side rewrites object headers and duplicates every touched
    page.  Collecting then freezing immediately before the fork keeps
    the shared structures (fact sets, warm spec caches) on read-only
    pages for the workers' lifetime.  Used by the ``--jobs`` shard
    reduction (:mod:`repro.consistency.checker`) and by the service
    worker pool (:mod:`repro.service.pool`), which forks long-lived
    workers off the same warm heap.
    """
    gc.collect()
    with _lock:
        gc.freeze()
    try:
        yield
    finally:
        with _lock:
            gc.unfreeze()


@contextlib.contextmanager
def collector_watch() -> Iterator[Dict[str, float]]:
    """Tally collector passes inside the block: how many, how long.

    Yields the live tally (``gc_collections``, ``gc_pause_s``); the
    callback is removed on exit.  Wall time, so callers keep it out of
    deterministic traces.
    """
    tally: Dict[str, float] = {"gc_collections": 0, "gc_pause_s": 0.0}
    started = 0.0

    def on_pass(phase: str, _info: dict) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            tally["gc_collections"] += 1
            tally["gc_pause_s"] += time.perf_counter() - started

    gc.callbacks.append(on_pass)
    try:
        yield tally
    finally:
        gc.callbacks.remove(on_pass)
