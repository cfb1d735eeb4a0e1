"""Run seeded ``SimulatedServiceRuntime`` scenarios; record what ``nmsld``'s
scheduler said.

Writes ``OUT/scheduler-sweep.json``: one entry per scenario, holding the
sha256 of the run's transcript (``transcript_text()``), audit log
(``audit.to_jsonl()``) and Prometheus text (``metrics.to_prometheus()``,
scraped as ``/metrics`` scrapes it), plus the counters of the core's
``status_snapshot()``.  Each scenario runs under its own
``obs.logical_observability()`` session, from ``OUT/specs`` on relative
paths, so two checkouts give comparable files.
``tests/service/scheduler_sweep.json`` is this file for the committed
code; ``tests/service/test_scheduler_sweep.py`` holds a fresh sweep to
it, and after a deliberate change::

    make service-sweep-update      # rewrites tests/service/scheduler_sweep.json
    PYTHONPATH=src python -m tests.service.scheduler_sweep DIR

Together the scenarios reach every error kind ``ServiceCore`` emits:
``bad-request`` and ``unknown-op`` (unparseable lines, an undeclared
parameter, an unknown campaign element), ``compile`` at campaign
planning and in a handler, ``vetoed`` and then ``circuit-open`` (the
widened campus of ``benchmarks/widen_access.py`` rolled out against its
base), ``shed`` and ``queue-full``, ``deadline`` queued and
mid-execution, ``draining`` at submit, while queued and as a replay
during drain, ``quarantined`` on worker death and at admission, and
``worker-lost``.  ``frame-too-large`` and ``header-too-large`` are
answered by the socket runtime only (``tests/service/test_boundaries.py``).

Standard library only: the sweep runs without ``pytest`` installed.
"""

import contextlib
import hashlib
import json
import os
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Every spec file gets this mtime, so no scenario sees a fresh file.
EPOCH_S = 600_000_000

CAMPUS = "campus.nmsl"
WIDENED = "widened.nmsl"
BROKEN = "broken.nmsl"
CS_ELEMENTS = ["gw.cs.campus.edu", "db.cs.campus.edu"]


def write_specs(directory: Path) -> None:
    """The campus example, its widened revision and a spec that does
    not compile, under *directory*."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from widen_access import widen
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    campus = (ROOT / "examples" / "campus.nmsl").read_text(encoding="utf-8")
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in (
        (CAMPUS, campus),
        (WIDENED, widen(campus)),
        (BROKEN, "process p ::= supports mgmt.mib.nosuch; end process p.\n"),
    ):
        path = directory / name
        path.write_text(text, encoding="utf-8")
        os.utime(path, (EPOCH_S, EPOCH_S))


def _runtime(drain_at_s=None, **config):
    from repro.service.core import ServiceConfig
    from repro.service.runtime import SimulatedServiceRuntime

    return SimulatedServiceRuntime(
        config=ServiceConfig(**config), drain_at_s=drain_at_s
    )


def _check(request_id, **fields):
    return {"id": request_id, "op": "check", "params": {"spec": CAMPUS},
            **fields}


def overload_drain():
    """Shedding and queue-full at capacity, a deadline mid-execution and
    one while queued, then a drain: the queue is refused, a late arrival
    is refused at the door and a crashed worker's replay is refused."""
    runtime = _runtime(workers=2, queue_capacity=4, drain_at_s=30.0)
    runtime.offer(0.0, _check("mid-deadline", deadline_s=1.0, cost_s=5.0))
    for index in range(6):
        runtime.offer(0.0, {
            "id": f"bulk-{index}", "op": "analyze", "class": "bulk",
            "params": {"spec": CAMPUS}, "cost_s": 40.0,
        })
    for index in range(2):
        runtime.offer(1.0, _check(f"int-{index}", cost_s=0.5))
    runtime.offer(1.5, _check("queued-deadline", deadline_s=2.0, cost_s=0.5))
    for index in range(3):
        runtime.offer(2.0, {
            "id": f"norm-{index}", "op": "analyze",
            "params": {"spec": CAMPUS}, "cost_s": 1.0,
        })
    for index in range(2):
        runtime.offer(10.0, {
            "id": f"bulk-late-{index}", "op": "analyze", "class": "bulk",
            "params": {"spec": CAMPUS}, "cost_s": 40.0,
        })
    runtime.offer(31.0, {"id": "late", "op": "ping"})
    runtime.inject_chaos(32.0, "worker-crash", worker=1)
    return runtime


def refusals():
    """Lines that are not requests, requests admission refuses, a
    handler's compile error, three vetoed rollouts that open the
    campaign's breaker, and requests that succeed around them."""
    runtime = _runtime(workers=1)
    runtime.offer_line(0.0, "not json")
    runtime.offer_line(0.0, '{"id": "no-op", "params": {}}')
    runtime.offer(0.0, {"id": "unknown", "op": "reboot"})
    runtime.offer(0.0, {"id": "undeclared", "op": "check",
                        "params": {"spec": CAMPUS, "jobs": 2}})
    runtime.offer(0.0, {"id": "ping", "op": "ping"})
    runtime.offer(0.5, _check("ok", cost_s=0.2))
    runtime.offer(1.0, {"id": "compile-handler", "op": "check",
                        "params": {"spec": BROKEN}, "cost_s": 0.1})
    runtime.offer(1.0, {"id": "compile-plan", "op": "rollout",
                        "params": {"spec": BROKEN}})
    runtime.offer(1.5, {"id": "unknown-element", "op": "rollout",
                        "params": {"spec": CAMPUS,
                                   "elements": ["no.such.host"]}})
    runtime.offer(2.0, {"id": "rollout", "op": "rollout", "cost_s": 0.5,
                        "params": {"spec": CAMPUS,
                                   "elements": CS_ELEMENTS}})
    for index in range(4):
        runtime.offer(3.0 + index, {
            "id": f"widen-{index}", "op": "rollout", "cost_s": 0.1,
            "params": {"spec": WIDENED, "diff_base": CAMPUS,
                       "elements": CS_ELEMENTS},
        })
    runtime.offer(8.0, {"id": "status", "op": "status"})
    runtime.offer(8.0, {"id": "slo", "op": "slo"})
    return runtime


def chaos(seed=7):
    """A seeded storm of worker crashes, wedges and leaks over an
    overload-grade pooled workload."""
    rng = random.Random(seed)
    runtime = _runtime(
        workers=2, queue_capacity=8, heartbeat_timeout_s=4.0,
        restart_backoff_s=0.5, worker_rss_limit_kb=200_000.0,
    )
    for index in range(20):
        runtime.offer(round(rng.uniform(0.0, 40.0), 3), {
            "id": f"r{index}",
            "op": rng.choice(["check", "analyze", "check"]),
            "class": rng.choice(["normal", "bulk", "normal"]),
            "params": {"spec": CAMPUS},
            "cost_s": round(rng.uniform(0.2, 5.0), 3),
        })
    for _ in range(6):
        runtime.inject_chaos(
            round(rng.uniform(0.5, 40.0), 3),
            rng.choice(["worker-crash", "worker-crash", "worker-wedge",
                        "slow-leak"]),
            worker=rng.randrange(2), growth_kb=80_000.0,
        )
    return runtime


def poison():
    """A check that kills its worker twice is quarantined on the second
    death, and its fingerprint is then refused at admission."""
    runtime = _runtime(workers=1)
    runtime.offer(0.0, _check("poison", cost_s=1.0))
    runtime.inject_chaos(0.5, "worker-crash", worker=0)
    runtime.inject_chaos(1.5, "worker-crash", worker=0)
    runtime.offer(5.0, _check("again"))
    runtime.offer(5.0, {"id": "other", "op": "analyze",
                        "params": {"spec": CAMPUS}, "cost_s": 0.5})
    return runtime


def worker_lost():
    """With no replay budget a crash mid-check is refused ``worker-lost``."""
    runtime = _runtime(workers=1, replay_limit=0)
    runtime.offer(0.0, _check("lost", cost_s=2.0))
    runtime.inject_chaos(1.0, "worker-crash", worker=0)
    runtime.offer(5.0, _check("after", cost_s=0.5))
    return runtime


SCENARIOS = {
    "chaos": chaos,
    "overload-drain": overload_drain,
    "poison": poison,
    "refusals": refusals,
    "worker-lost": worker_lost,
}

#: The ``status_snapshot()`` entries recorded besides every ``*_total``.
COUNTERS = ("in_flight", "audit_events", "hits", "misses")


def counters(snapshot: dict, prefix: str = "") -> dict:
    """The snapshot's counters, flattened to dotted names."""
    found = {}
    for key, value in snapshot.items():
        name = prefix + key
        if isinstance(value, dict):
            found.update(counters(value, name + "."))
        elif key.endswith("_total") or key in COUNTERS:
            found[name] = value
    return found


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_scenario(name: str):
    """Run scenario *name* from the current directory under a fresh
    logical observability session; returns ``(runtime, session)``."""
    from repro import obs

    with obs.scope(obs.logical_observability()) as session:
        runtime = SCENARIOS[name]()
        runtime.run()
        session.publish_tracer_stats()
        runtime.core.slo.publish(session, runtime.core.clock())
    return runtime, session


def record(runtime, session) -> dict:
    return {
        "transcript": _sha256(runtime.transcript_text()),
        "audit": _sha256(runtime.core.audit.to_jsonl()),
        "metrics": _sha256(session.metrics.to_prometheus()),
        "counters": counters(runtime.core.status_snapshot()),
    }


@contextlib.contextmanager
def _cwd(directory: Path):
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def sweep(out: Path) -> dict:
    specs = out / "specs"
    if specs.exists():
        shutil.rmtree(specs)
    write_specs(specs)
    with _cwd(specs):
        return {name: record(*run_scenario(name)) for name in SCENARIOS}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m tests.service.scheduler_sweep OUT",
              file=sys.stderr)
        return 2
    out = Path(argv[0])
    swept = sweep(out)
    (out / "scheduler-sweep.json").write_text(
        json.dumps(swept, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
