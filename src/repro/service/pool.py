"""Fault-isolated multi-process worker pool: supervision, recovery,
poison-request quarantine.

The pool is for fault isolation: in a single-process ``nmsld`` one
wedged or crashing request takes every other request down with it, so
requests execute in *supervised worker processes* forked off the
daemon's warm heap (:func:`repro.collector.frozen_fork_heap`).  It buys
no throughput — two workers serve a check-only load no faster than one
(``service.pool.scaling_2w`` ≈ 1.0, EXPERIMENTS.md "PR 16") — and a hop
costs ~0.5 ms (``service.pool.hop_ms``, "PR 22"): two pipe frames and,
on each side, one ``stat`` of the spec (:mod:`repro.service.specfile`).

Three layers, strictly separated so the whole supervision state machine
runs byte-identically under the simulated runtime:

:class:`WorkerSupervisor`
    The *pure* state machine: per-worker lifecycle
    (``idle``/``busy``/``down``), exponential restart backoff, replay
    decisions for in-flight requests, wedge detection thresholds, and
    the poison-request registry.  Fed nothing but events and clock
    readings — no processes, no wall time — so
    :class:`~repro.service.runtime.SimulatedServiceRuntime` can drive
    it with seeded crash/wedge/slow-leak chaos and produce
    byte-identical same-seed transcripts.

:class:`PoisonRegistry`
    Fingerprints (op + canonical params + spec content digest) of
    requests whose execution killed a worker.  Two kills quarantines
    the fingerprint: subsequent arrivals are refused at admission with
    a structured NM501 ``quarantined`` error, so one pathological spec
    cannot flap the fleet through the restart budget.

:class:`ProcessWorkerPool`
    The production driver: real forked worker processes joined to the
    parent by pipes carrying request/response/heartbeat frames.  A
    reader thread per worker feeds responses back to the asyncio loop;
    a monitor kills workers that miss heartbeats or overrun their
    request deadline; crashed workers restart on the supervisor's
    backoff schedule.  Worker span subtrees ship back inside response
    frames and are spliced into the parent trace, so a pooled check
    stays one connected trace.  A worker whose supervisor is gone (a
    ``kill -9`` drains nothing) exits at its next heartbeat.

Replay semantics (the idempotency contract, per op):

=========== ========== ==============================================
op          replayable rationale
=========== ========== ==============================================
``check``   yes        pure read of (spec text, warm cache)
``analyze`` yes        pure read
``diff``    yes        pure read of both specs
``compile`` yes        pure read
``ping``    yes        trivial; like ``status``/``slo`` never pooled
``status``  yes        read of core state (``slo``: of tracker state)
``rollout`` **no**     mutates elements; journal guards resume instead
``heal``    **no**     mutates elements
=========== ========== ==============================================

A replayable request interrupted by a worker death re-executes **once**
on a fresh worker; anything else (second death, non-idempotent op)
returns a structured 503 ``worker-lost``.  Rollout and heal never run
in workers at all (:data:`~repro.service.protocol.POOLED_OPS`), so a
worker death can never double-apply a campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.service.protocol import IDEMPOTENT_OPS
from repro.service.specfile import spec_digest

#: Worker states.
IDLE, BUSY, DOWN = "idle", "busy", "down"


def request_fingerprint(op: str, params: dict) -> str:
    """The poison-registry key: op + canonical params + spec digest.

    The spec parameter(s) (``spec``, ``old``, ``new``, and each of
    ``specs`` in order) contribute their *content* hash when the file
    is readable, so editing a poisonous spec clears its quarantine (the
    fingerprint changes) while resubmitting it verbatim does not.
    Deterministic: canonical JSON, no wall-clock or filesystem-order
    input.
    """
    digest = hashlib.sha256()
    digest.update(op.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(
        json.dumps(params, sort_keys=True, separators=(",", ":"),
                   default=str).encode("utf-8")
    )
    specs = params.get("specs")
    named = [(key, params.get(key)) for key in ("spec", "old", "new")]
    if isinstance(specs, list):
        named += [(f"specs.{n}", value) for n, value in enumerate(specs)]
    for key, value in named:
        if isinstance(value, str):
            try:
                content_digest = bytes.fromhex(spec_digest(value))
            except (OSError, ValueError):  # ValueError: NUL in the path
                continue
            digest.update(b"\x00" + key.encode("utf-8") + b"\x00")
            digest.update(content_digest)
    return digest.hexdigest()


class PoisonRegistry:
    """Kill counts and quarantine verdicts per request fingerprint."""

    def __init__(self, threshold: int = 2, limit: int = 4096):
        self.threshold = threshold
        self.limit = limit
        self._kills: Dict[str, int] = {}
        self._quarantined: Dict[str, dict] = {}
        self._lock = threading.Lock()

    def record_kill(self, fingerprint: str, op: str, now: float) -> int:
        """Account one worker death to *fingerprint*; returns the count.

        Reaching the threshold moves the fingerprint into quarantine.
        """
        with self._lock:
            count = self._kills.get(fingerprint, 0) + 1
            self._kills[fingerprint] = count
            if len(self._kills) > self.limit:
                # Evict the oldest-inserted non-quarantined entry.
                for key in self._kills:
                    if key not in self._quarantined:
                        del self._kills[key]
                        break
            if (
                count >= self.threshold
                and fingerprint not in self._quarantined
            ):
                self._quarantined[fingerprint] = {
                    "op": op,
                    "kills": count,
                    "at_s": round(now, 9),
                }
                while len(self._quarantined) > self.limit:
                    oldest = next(iter(self._quarantined))
                    del self._quarantined[oldest]
            return count

    def is_quarantined(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._quarantined

    def __len__(self) -> int:
        with self._lock:
            return len(self._quarantined)

    def snapshot(self) -> dict:
        with self._lock:
            entries = [
                {"fingerprint": fingerprint[:16], **info}
                for fingerprint, info in self._quarantined.items()
            ]
        return {"size": len(entries), "entries": entries[:32]}


@dataclass
class WorkerState:
    """Parent-side view of one worker slot."""

    worker_id: int
    state: str = DOWN
    pid: Optional[int] = None
    #: Request currently executing on the worker (None when idle/down).
    request: object = None
    busy_since: Optional[float] = None
    started_s: Optional[float] = None
    last_heartbeat_s: Optional[float] = None
    last_rss_kb: Optional[float] = None
    #: Consecutive failures since the last completed request — drives
    #: the exponential backoff; a served request resets it.
    failure_streak: int = 0
    restarts: int = 0
    recycles: int = 0
    served: int = 0
    down_until: Optional[float] = None
    #: Bumped on every death/recycle so stale completion events (the
    #: simulated runtime) and stale pipe frames (the process pool) for a
    #: previous incarnation are recognisably dead.
    epoch: int = 0


@dataclass(frozen=True)
class FailureDecision:
    """What the supervisor decided about one worker death."""

    worker_id: int
    reason: str
    #: ``replay`` (requeue the in-flight request), ``refuse`` (answer it
    #: with ``kind``), or ``restart`` (worker was idle; nothing to do
    #: for any request).
    action: str
    restart_at_s: float
    backoff_s: float
    request: object = None
    kind: Optional[str] = None
    message: Optional[str] = None
    fingerprint: Optional[str] = None
    kills: int = 0
    quarantined: bool = False


class WorkerSupervisor:
    """Pure worker-pool state machine: assignment, failure, backoff.

    Thread-safe (its own lock) but never blocks, sleeps, or reads a
    clock — every method takes ``now`` from the caller, so decisions
    are a pure function of the event sequence and the supervision
    config.  Owned by :class:`~repro.service.core.ServiceCore`; driven
    by the simulated runtime's event heap or by
    :class:`ProcessWorkerPool`'s reader/monitor threads.
    """

    def __init__(self, config, registry: Optional[PoisonRegistry] = None):
        self.config = config
        self.workers: Dict[int, WorkerState] = {
            worker_id: WorkerState(worker_id=worker_id)
            for worker_id in range(config.workers)
        }
        self.registry = registry or PoisonRegistry(
            threshold=config.poison_threshold
        )
        self.restarts_total = 0
        self.replays_total = 0
        self.recycles_total = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Lifecycle events.
    # ------------------------------------------------------------------
    def worker_started(
        self, worker_id: int, now: float, pid: Optional[int] = None
    ) -> WorkerState:
        with self._lock:
            state = self.workers[worker_id]
            state.state = IDLE
            state.pid = pid
            state.request = None
            state.busy_since = None
            state.started_s = now
            state.last_heartbeat_s = now
            state.last_rss_kb = None
            state.down_until = None
            self._publish()
            return state

    def heartbeat(
        self,
        worker_id: int,
        now: float,
        rss_kb: Optional[float] = None,
    ) -> None:
        with self._lock:
            state = self.workers.get(worker_id)
            if state is None or state.state == DOWN:
                return
            state.last_heartbeat_s = now
            if rss_kb is not None:
                state.last_rss_kb = rss_kb

    # ------------------------------------------------------------------
    # Assignment.
    # ------------------------------------------------------------------
    def has_idle(self) -> bool:
        with self._lock:
            return any(s.state == IDLE for s in self.workers.values())

    @staticmethod
    def _affinity_key(request) -> str:
        params = getattr(request, "params", None) or {}
        spec = params.get("spec") or params.get("old")
        specs = params.get("specs")
        if spec is None and isinstance(specs, list) and specs:
            spec = specs[0]
        if isinstance(spec, str) and spec:
            return spec
        return request.op

    def assign(self, request, now: float) -> int:
        """Pick a worker for *request* and mark it busy.

        Spec-affinity first: the same spec prefers the same worker (its
        cache is warm there; a ``diff`` goes where its ``old`` is, a
        multi-spec ``analyze`` where its first spec is),
        spilling deterministically to the lowest-id idle worker when the
        preferred one is busy or down.
        Raises :class:`RuntimeError` if nothing is idle — callers gate
        on :meth:`has_idle` via the core's ``_can_start``.
        """
        with self._lock:
            idle = [
                s.worker_id
                for s in self.workers.values()
                if s.state == IDLE
            ]
            if not idle:
                raise RuntimeError("no idle worker to assign")
            key = self._affinity_key(request)
            preferred = int(
                hashlib.sha256(key.encode("utf-8")).hexdigest(), 16
            ) % len(self.workers)
            worker_id = preferred if preferred in idle else min(idle)
            state = self.workers[worker_id]
            state.state = BUSY
            state.request = request
            state.busy_since = now
            request.worker_id = worker_id
            request.attempts += 1
            self._publish()
            return worker_id

    def completed(
        self,
        worker_id: int,
        now: float,
        rss_kb: Optional[float] = None,
    ) -> Optional[str]:
        """The worker finished its request; returns ``"recycle"`` when
        its resident set crossed the leak limit and it should be
        gracefully replaced (no request is ever lost to a recycle)."""
        with self._lock:
            state = self.workers[worker_id]
            state.state = IDLE
            state.request = None
            state.busy_since = None
            state.served += 1
            state.failure_streak = 0
            if rss_kb is not None:
                state.last_rss_kb = rss_kb
            limit = self.config.worker_rss_limit_kb
            self._publish()
            if (
                limit is not None
                and state.last_rss_kb is not None
                and state.last_rss_kb > limit
            ):
                return "recycle"
            return None

    def recycle(self, worker_id: int, now: float) -> float:
        """Gracefully retire an (idle) worker; returns its restart time."""
        with self._lock:
            state = self.workers[worker_id]
            state.state = DOWN
            state.request = None
            state.epoch += 1
            state.recycles += 1
            state.restarts += 1
            state.down_until = now + self.config.restart_backoff_s
            self.recycles_total += 1
            self.restarts_total += 1
            self._publish()
            return state.down_until

    # ------------------------------------------------------------------
    # Failure.
    # ------------------------------------------------------------------
    def worker_failed(
        self, worker_id: int, reason: str, now: float
    ) -> FailureDecision:
        """One worker died (crash) or was killed (wedge/overrun).

        Decides the in-flight request's fate — replay once if
        idempotent and fresh, quarantine its fingerprint if it has now
        killed workers twice, structured 503 otherwise — and schedules
        the worker's restart with exponential backoff.
        """
        with self._lock:
            state = self.workers[worker_id]
            request = state.request
            state.state = DOWN
            state.request = None
            state.busy_since = None
            state.epoch += 1
            state.restarts += 1
            state.failure_streak += 1
            self.restarts_total += 1
            backoff = min(
                self.config.restart_backoff_cap_s,
                self.config.restart_backoff_s
                * (2 ** (state.failure_streak - 1)),
            )
            state.down_until = now + backoff
            self._publish()
            if request is None:
                return FailureDecision(
                    worker_id=worker_id, reason=reason, action="restart",
                    restart_at_s=state.down_until, backoff_s=backoff,
                )
            fingerprint = request_fingerprint(request.op, request.params)
            kills = self.registry.record_kill(fingerprint, request.op, now)
            if kills >= self.registry.threshold:
                return FailureDecision(
                    worker_id=worker_id, reason=reason, action="refuse",
                    restart_at_s=state.down_until, backoff_s=backoff,
                    request=request, kind="quarantined",
                    message=(
                        f"request fingerprint {fingerprint[:16]} killed "
                        f"{kills} workers and is quarantined (NM501); "
                        "edit the specification to clear it"
                    ),
                    fingerprint=fingerprint, kills=kills, quarantined=True,
                )
            if (
                request.op in IDEMPOTENT_OPS
                and request.attempts <= self.config.replay_limit
            ):
                self.replays_total += 1
                return FailureDecision(
                    worker_id=worker_id, reason=reason, action="replay",
                    restart_at_s=state.down_until, backoff_s=backoff,
                    request=request, fingerprint=fingerprint, kills=kills,
                )
            return FailureDecision(
                worker_id=worker_id, reason=reason, action="refuse",
                restart_at_s=state.down_until, backoff_s=backoff,
                request=request, kind="worker-lost",
                message=(
                    f"worker {worker_id} {reason} while executing this "
                    f"{request.op}"
                    + (
                        " and the replay budget is spent"
                        if request.op in IDEMPOTENT_OPS
                        else f"; {request.op} is not replayable"
                    )
                ),
                fingerprint=fingerprint, kills=kills,
            )

    def abandon(self, worker_id: int, now: float):
        """Drain timeout: take the busy worker's request (it is being
        answered with a refusal) and retire the slot without scheduling
        a restart.  Returns the request, or None if the slot was idle."""
        with self._lock:
            state = self.workers[worker_id]
            request = state.request
            state.state = DOWN
            state.request = None
            state.busy_since = None
            state.epoch += 1
            state.down_until = None
            self._publish()
            return request

    # ------------------------------------------------------------------
    # Health checks (polled by the monitor / simulated detect events).
    # ------------------------------------------------------------------
    def overdue_workers(self, now: float) -> List[Tuple[int, str]]:
        """Busy workers that must be killed: deadline overrun (the
        request's budget plus grace has lapsed — a wedged handler) or a
        stale heartbeat (the process is alive but unresponsive)."""
        overdue = []
        with self._lock:
            for state in self.workers.values():
                if state.state != BUSY:
                    continue
                request = state.request
                deadline = getattr(request, "deadline", None)
                if (
                    deadline is not None
                    and now > deadline.at_s + self.config.deadline_grace_s
                ):
                    overdue.append((state.worker_id, "overrun"))
                    continue
                if (
                    state.last_heartbeat_s is not None
                    and now - state.last_heartbeat_s
                    > self.config.heartbeat_timeout_s
                ):
                    overdue.append((state.worker_id, "wedge"))
        return overdue

    def epoch(self, worker_id: int) -> int:
        with self._lock:
            return self.workers[worker_id].epoch

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {IDLE: 0, BUSY: 0, DOWN: 0}
            for state in self.workers.values():
                counts[state.state] += 1
            return counts

    def snapshot(self, now: float) -> dict:
        """The ``/healthz`` + ``nmslc top`` pool view."""
        with self._lock:
            workers = []
            for worker_id in sorted(self.workers):
                state = self.workers[worker_id]
                entry = {
                    "worker": worker_id,
                    "state": state.state,
                    "pid": state.pid,
                    "restarts": state.restarts,
                    "recycles": state.recycles,
                    "served": state.served,
                }
                if state.last_heartbeat_s is not None:
                    entry["heartbeat_age_s"] = round(
                        max(0.0, now - state.last_heartbeat_s), 3
                    )
                if state.last_rss_kb is not None:
                    entry["rss_kb"] = state.last_rss_kb
                if state.state == BUSY and state.request is not None:
                    entry["request_id"] = str(state.request.id)
                    entry["op"] = state.request.op
                workers.append(entry)
            return {
                "workers": workers,
                "states": self.counts(),
                "restarts_total": self.restarts_total,
                "replays_total": self.replays_total,
                "recycles_total": self.recycles_total,
                "quarantine": self.registry.snapshot(),
            }

    def _publish(self) -> None:
        o = obs.current()
        if not o.enabled:
            return
        for state_name, count in self.counts().items():
            o.gauge(
                "repro_service_pool_workers",
                "worker-pool slots by lifecycle state",
                state=state_name,
            ).set(count)
        o.gauge(
            "repro_service_pool_quarantine_size",
            "fingerprints in the poison-request registry",
        ).set(len(self.registry))


# ----------------------------------------------------------------------
# The production pool: real forked processes behind the supervisor.
# ----------------------------------------------------------------------
def _rss_kb() -> float:
    import resource

    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _pool_worker_main(
    worker_id: int,
    conn,
    supervisor_pid: int,
    spec_cache_limit: int,
    heartbeat_interval_s: float,
) -> None:
    """The worker child: execute request frames until told to exit.

    Forked from the daemon, so it inherits the observability session
    (tracer, allocator) and — via :func:`frozen_fork_heap` — any warm
    parent heap copy-on-write.  Each request runs through
    :meth:`~repro.service.handlers.ServiceHandlers.run`, and its result
    frame goes back with the spans the request closed, for the parent
    to splice.
    """
    import signal
    import time as _time

    from repro.deadline import Deadline
    from repro.obs.context import TraceContext
    from repro.service.handlers import ServiceHandlers, SpecCache

    # The parent's asyncio signal handlers are meaningless here and a
    # SIGTERM to the process group must kill workers promptly.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    handlers = ServiceHandlers(cache=SpecCache(limit=spec_cache_limit))
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(frame) -> None:
        with send_lock:
            conn.send(frame)

    def heartbeats() -> None:
        while not stop.wait(heartbeat_interval_s):
            # A SIGKILLed supervisor drains nothing, and its end of the
            # pipe never reads EOF here (later forks hold copies of it):
            # being re-parented is the one signal there is.
            if os.getppid() != supervisor_pid:
                os._exit(0)
            try:
                send(("hb", {"rss_kb": _rss_kb()}))
            except (OSError, BrokenPipeError):
                return

    threading.Thread(
        target=heartbeats, name="heartbeat", daemon=True
    ).start()

    class _ChildRequest:
        """The slice of ServiceRequest the handlers consume."""

        def __init__(self, payload):
            self.id = payload["id"]
            self.op = payload["op"]
            self.params = payload["params"]
            self.args = payload.get("args")
            self.cls = payload["cls"]
            remaining = payload.get("deadline_remaining_s")
            self.deadline = (
                Deadline(
                    at_s=_time.monotonic() + remaining,
                    clock=_time.monotonic,
                    label=self.op,
                )
                if remaining is not None
                else None
            )
            self.trace = (
                TraceContext(
                    trace_id=payload["trace_id"],
                    span_id=payload["span_id"],
                )
                if payload.get("trace_id")
                else None
            )
            self.resources: dict = {}

    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(frame, tuple) or frame[0] == "exit":
            break
        tracer = getattr(obs.current(), "tracer", None)
        span_mark = len(tracer) if tracer is not None else 0
        response = handlers.run(_ChildRequest(frame[1]), worker=worker_id)
        response["rss_kb"] = _rss_kb()
        if tracer is not None:
            response["spans"] = tracer.export_spans(span_mark)
        try:
            send(("res", response))
        except (OSError, BrokenPipeError):
            break
    stop.set()


@dataclass
class _WorkerHandle:
    worker_id: int
    process: object
    conn: object
    epoch: int
    reader: Optional[threading.Thread] = None
    #: Why the monitor killed it (``wedge``/``overrun``), so the exit
    #: path reports the true reason rather than generic ``crash``.
    kill_reason: Optional[str] = None
    #: Set when the parent asked it to exit (drain/recycle) — its EOF
    #: is then expected and must not trigger crash recovery.
    retired: bool = False


class ProcessWorkerPool:
    """Forked worker processes driven by the asyncio runtime.

    The supervisor (owned by the core) makes every decision; this class
    only moves bytes and signals: spawn, dispatch frames, read frames,
    SIGKILL on the monitor's verdicts, respawn on the backoff schedule.
    """

    def __init__(self, runtime) -> None:
        import multiprocessing

        self.runtime = runtime
        self.core = runtime.core
        self.supervisor = self.core.pool
        if "fork" not in multiprocessing.get_all_start_methods():
            raise OSError("worker pool requires the fork start method")
        self._context = multiprocessing.get_context("fork")
        self._handles: Dict[int, _WorkerHandle] = {}
        self._loop = None
        self._stopping = False
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    def start(self, loop) -> None:
        self._loop = loop
        for worker_id in sorted(self.supervisor.workers):
            self._spawn(worker_id)

    def _spawn(self, worker_id: int) -> None:
        from repro.collector import frozen_fork_heap

        config = self.core.config
        parent_conn, child_conn = self._context.Pipe()
        with frozen_fork_heap():
            process = self._context.Process(
                target=_pool_worker_main,
                args=(
                    worker_id,
                    child_conn,
                    os.getpid(),
                    config.spec_cache_limit,
                    config.heartbeat_interval_s,
                ),
                name=f"nmsld-pool-{worker_id}",
                daemon=True,
            )
            process.start()
        child_conn.close()
        state = self.core.pool_worker_started(worker_id, pid=process.pid)
        handle = _WorkerHandle(
            worker_id=worker_id,
            process=process,
            conn=parent_conn,
            epoch=state.epoch,
        )
        with self._lock:
            self._handles[worker_id] = handle
        handle.reader = threading.Thread(
            target=self._reader,
            args=(handle,),
            name=f"nmsld-pool-reader-{worker_id}",
            daemon=True,
        )
        handle.reader.start()

    def _respawn(self, worker_id: int, epoch: int) -> None:
        if self._stopping:
            return
        if self.supervisor.epoch(worker_id) != epoch:
            return  # a newer incarnation already handled this slot
        self._spawn(worker_id)
        self.runtime._kick()

    # -- frame plumbing -------------------------------------------------
    def _reader(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                kind, payload = handle.conn.recv()
            except (EOFError, OSError):
                break
            except (TypeError, ValueError):
                continue  # torn frame from a dying worker
            if kind == "hb":
                self.supervisor.heartbeat(
                    handle.worker_id,
                    self.core.clock(),
                    rss_kb=payload.get("rss_kb"),
                )
            elif kind == "res":
                self._call_on_loop(self._on_response, handle, payload)
        self._call_on_loop(self._on_exit, handle)

    def _call_on_loop(self, callback, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # loop already closed; the daemon is exiting

    def dispatch(self, request) -> None:
        """Ship one assigned request to its worker."""
        with self._lock:
            handle = self._handles.get(request.worker_id)
        if handle is None:
            return  # death raced the dispatch; the exit path replays
        trace = request.trace
        payload = {
            "id": request.id,
            "op": request.op,
            "params": request.params,
            "args": request.args,
            "cls": request.cls,
            "deadline_remaining_s": (
                max(0.001, request.deadline.at_s - self.core.clock())
                if request.deadline is not None
                else None
            ),
            "trace_id": trace.trace_id if trace is not None else None,
            "span_id": trace.span_id if trace is not None else None,
        }
        try:
            handle.conn.send(("req", payload))
        except (OSError, BrokenPipeError):
            pass  # reader sees the EOF; crash recovery takes over

    def _on_response(self, handle: _WorkerHandle, frame: dict) -> None:
        if self.supervisor.epoch(handle.worker_id) != handle.epoch:
            return  # a stale frame from a replaced incarnation
        state = self.supervisor.workers[handle.worker_id]
        request = state.request
        if request is None or request.id != frame.get("id"):
            return  # response for a request the supervisor already settled
        message = self.core.settle(request, frame)
        recycle = self.core.pool_completed(
            request, rss_kb=frame.get("rss_kb")
        )
        import asyncio

        asyncio.ensure_future(
            self.runtime._send(request.reply_to, message)
        )
        if recycle == "recycle" and not self._stopping:
            self._retire(handle)
        self.runtime._kick()

    def _on_exit(self, handle: _WorkerHandle) -> None:
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=5.0)
        if handle.retired or self._stopping:
            return  # expected exit: drain or recycle already settled it
        reason = handle.kill_reason or "crash"
        delivery, decision = self.core.worker_failed(
            handle.worker_id, reason
        )
        if delivery is not None:
            import asyncio

            asyncio.ensure_future(
                self.runtime._send(delivery[0], delivery[1])
            )
        delay = max(0.0, decision.restart_at_s - self.core.clock())
        epoch = self.supervisor.epoch(handle.worker_id)
        self._loop.call_later(
            delay, self._respawn, handle.worker_id, epoch
        )
        self.runtime._kick()

    # -- kills, recycles, drain -----------------------------------------
    def kill_worker(self, worker_id: int, reason: str) -> None:
        """SIGKILL one worker (monitor verdict: wedge/overrun)."""
        import signal as _signal

        with self._lock:
            handle = self._handles.get(worker_id)
        if handle is None or handle.process.pid is None:
            return
        handle.kill_reason = reason
        try:
            os.kill(handle.process.pid, _signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _retire(self, handle: _WorkerHandle) -> None:
        """Gracefully replace an idle worker (rss recycle)."""
        handle.retired = True
        restart_at = self.core.pool_recycled(
            handle.worker_id, pid=handle.process.pid
        )
        try:
            handle.conn.send(("exit",))
        except (OSError, BrokenPipeError):
            pass
        epoch = self.supervisor.epoch(handle.worker_id)
        delay = max(0.0, restart_at - self.core.clock())
        self._loop.call_later(
            delay, self._respawn, handle.worker_id, epoch
        )

    async def stop(self, grace_s: float) -> None:
        """Bounded drain: graceful exits, then SIGKILL stragglers.

        Idle workers get an exit frame immediately.  Busy workers get
        *grace_s* to deliver their response (which still flows through
        the normal path); whatever is left is SIGKILLed and its
        in-flight request answered with a structured ``worker-lost``
        refusal — a drain never silently drops a request.
        """
        import asyncio
        import signal as _signal

        self._stopping = True
        with self._lock:
            handles = dict(self._handles)
        for handle in handles.values():
            state = self.supervisor.workers[handle.worker_id]
            if state.state != BUSY:
                handle.retired = True
                try:
                    handle.conn.send(("exit",))
                except (OSError, BrokenPipeError):
                    pass
        deadline = self.core.clock() + grace_s
        while self.core.clock() < deadline:
            if not any(
                s.state == BUSY
                for s in self.supervisor.workers.values()
            ):
                break
            await asyncio.sleep(0.05)
        for handle in handles.values():
            state = self.supervisor.workers[handle.worker_id]
            if state.state == BUSY:
                delivery = self.core.abandon_in_flight(
                    handle.worker_id, reason="drain-timeout"
                )
                if delivery is not None:
                    await self.runtime._send(delivery[0], delivery[1])
                handle.retired = True
                if handle.process.pid is not None:
                    try:
                        os.kill(handle.process.pid, _signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            else:
                handle.retired = True
                try:
                    handle.conn.send(("exit",))
                except (OSError, BrokenPipeError):
                    pass
        for handle in handles.values():
            handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
