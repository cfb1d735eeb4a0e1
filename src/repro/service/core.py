"""The runtime-agnostic service core: every robustness decision.

:class:`ServiceCore` owns admission (per-class bounded queues with
explicit shedding), campaign bulkheads and breakers, per-request
deadlines, drain, and the metrics around all of them.  It is entirely
passive — it never sleeps, spawns, or reads a wall clock.  A *runtime*
(:class:`~repro.service.runtime.SimulatedServiceRuntime` or
:class:`~repro.service.runtime.AsyncServiceRuntime`) drives it through
four calls:

* :meth:`submit` — a request line arrived; returns the responses that
  are already decided (rejections, shed victims) and queues the rest;
* :meth:`next_action` — pick the next startable request (or an expired
  one to refuse), honouring priority order and bulkhead disjointness;
* :meth:`execute` — run one request to completion on the caller's
  thread, returning the wire response (a pooled request runs in a
  worker instead, and :meth:`settle` turns its result frame into the
  same response);
* :meth:`begin_drain` / :meth:`drain_responses` — stop admitting and
  refuse everything still queued, structured, never silent.

Because every decision lives here, the deterministic simulated runtime
exercises the *same* shed ordering, deadline expiry, and bulkhead logic
that production ``nmsld`` runs — the chaos suite's byte-identical
transcripts are transcripts of the real scheduler.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.deadline import Deadline
from repro.obs.audit import AuditLog
from repro.obs.context import IdAllocator, TraceContext
from repro.obs.slo import SloTracker
from repro.service.admission import AdmissionController
from repro.service.bulkhead import CampaignBulkheads
from repro.service.handlers import ServiceHandlers, SpecCache
from repro.service.pool import WorkerSupervisor, request_fingerprint
from repro.service.protocol import (
    CAMPAIGN_OPS,
    CLASS_RANK,
    CLIENT_FAULT_KINDS,
    POOLED_OPS,
    ProtocolError,
    error_response,
    parse_request,
    result_response,
)

#: Latency histogram buckets (seconds) for per-class service latency.
LATENCY_BUCKETS_S = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
)


def _safe_id(request_id) -> Optional[str]:
    """Request ids as audit-log strings (ints become their repr)."""
    return None if request_id is None else str(request_id)


@dataclass
class ServiceConfig:
    """Tunables for one daemon instance."""

    #: Supervised worker processes for the pooled ops (check/analyze/
    #: diff/compile), and the bound on in-process handler threads for
    #: everything else (ping/status/slo/rollout/heal).
    workers: int = 4
    queue_capacity: int = 64
    max_campaigns: int = 4
    spec_cache_limit: int = 8
    journal_dir: Optional[str] = None
    #: Default deadline budget per class when the request names none.
    #: ``None`` disables the implicit deadline for that class.
    default_deadline_s: dict = field(
        default_factory=lambda: {
            "interactive": 30.0,
            "normal": 120.0,
            "bulk": None,
        }
    )
    #: Rough per-request service time used for ``retry_after_s`` hints
    #: on shed/queue-full refusals.
    nominal_service_s: float = 0.2
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    #: JSONL audit-log path (None keeps the bounded in-memory tail only).
    audit_path: Optional[str] = None
    #: Seed for trace/span id minting when no tracer is installed.
    trace_seed: int = 0x1989
    #: Per-class SLO objectives (None = repro.obs.slo defaults).
    slo_objectives: Optional[dict] = None
    #: Measure per-request CPU seconds and return a ``resources`` block
    #: in response envelopes.  Off by default: the simulated runtime's
    #: transcripts must stay byte-identical, and thread CPU time is not.
    measure_resources: bool = False
    #: Worker heartbeat cadence and the staleness that marks a busy
    #: worker wedged (the heartbeat thread cannot run — e.g. a handler
    #: holding the GIL in a C loop, or the process is stopped).
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 5.0
    #: Extra time past the request deadline before a busy worker is
    #: declared overrun and SIGKILLed (the in-process cooperative
    #: deadline should have fired long before this).
    deadline_grace_s: float = 2.0
    #: Exponential restart backoff: ``base * 2**(streak-1)``, capped.
    restart_backoff_s: float = 0.5
    restart_backoff_cap_s: float = 8.0
    #: How many times an idempotent request may be re-executed after a
    #: worker death before it is refused with ``worker-lost``.
    replay_limit: int = 1
    #: Worker kills by one request fingerprint before quarantine.
    poison_threshold: int = 2
    #: SIGTERM drain: seconds busy workers get to finish before SIGKILL.
    drain_grace_s: float = 10.0
    #: Gracefully recycle a worker whose resident set exceeds this (kB);
    #: None disables the slow-leak guard.
    worker_rss_limit_kb: Optional[float] = None


@dataclass
class ServiceRequest:
    """One admitted (or about-to-be-refused) request."""

    id: object
    op: str
    params: dict
    cls: str
    rank: int
    deadline: Optional[Deadline]
    deadline_s: Optional[float]
    cost_s: float
    arrival_s: float
    seq: int
    elements: frozenset = frozenset()
    campaign_key: Optional[str] = None
    started_s: Optional[float] = None
    #: Opaque reply handle for the runtime (e.g. the client connection).
    reply_to: object = None
    #: The request's trace context: trace id from the client's
    #: ``traceparent`` when given (else freshly minted), span id naming
    #: the request's root — every span, journal record and audit event
    #: the request produces carries ``trace.trace_id``.
    trace: Optional[TraceContext] = None
    #: Per-request resource accounting (cpu_s, facts_scanned, ...),
    #: filled by ``ServiceHandlers.run`` and echoed in the response
    #: envelope when ``config.measure_resources`` is on.
    resources: dict = field(default_factory=dict)
    #: Pool-worker slot currently executing this request (pooled ops).
    worker_id: Optional[int] = None
    #: Execution attempts so far — bumped by the supervisor on assign;
    #: a replayed request arrives at its second worker with attempts=1.
    attempts: int = 0
    #: ``params`` resolved at admission (:func:`repro.operations.resolve`);
    #: None on a request built directly, which ``execute`` resolves.
    args: Optional[dict] = None


class ServiceCore:
    """Scheduler state machine shared by both runtimes."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.config = config or ServiceConfig()
        #: Monotonic clock closure injected by the runtime.
        self.clock = clock or (lambda: 0.0)
        self.admission = AdmissionController(
            capacity=self.config.queue_capacity
        )
        self.bulkheads = CampaignBulkheads(
            max_campaigns=self.config.max_campaigns,
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.handlers = ServiceHandlers(
            cache=SpecCache(limit=self.config.spec_cache_limit),
            journal_dir=self.config.journal_dir,
        )
        self.handlers.core = self
        #: Fallback id mint for processes with no tracer installed; when
        #: a tracer exists its allocator is used instead so span ids
        #: stay unique process-wide (see :meth:`_ids`).
        self._own_ids = IdAllocator(seed=self.config.trace_seed)
        self.audit = AuditLog(path=self.config.audit_path)
        self.slo = SloTracker(objectives=self.config.slo_objectives)
        #: The worker-pool supervisor: every pooled op runs on one of
        #: its slots.  The core makes every supervision *decision*;
        #: runtimes only deliver its events (spawn, kill, restart-at).
        self.pool = WorkerSupervisor(self.config)
        #: Requests requeued after a worker death, served before the
        #: admission queues (they already waited their turn once).
        self._replays: "collections.deque[ServiceRequest]" = (
            collections.deque()
        )
        self.draining = False
        self.in_flight = 0
        #: In-process executions only (the local ops); bounds the
        #: thread pool separately from the worker processes.
        self.in_flight_local = 0
        self._seq = 0
        self.started_s: Optional[float] = None
        self.requests_total = 0
        self.responses_total = 0
        #: Guards all scheduler state (queues, bulkheads, in_flight,
        #: counters).  The asyncio runtime mutates the core from the
        #: event loop (submit/next_action via executors) *and* from
        #: worker threads (execute -> finish); nothing here is safe
        #: without it.  Reentrant because e.g. submit needs
        #: _retry_after_hint while already holding the lock.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(
        self, line: str, reply_to: object = None, arrival_s: float = None
    ) -> Tuple[Optional[ServiceRequest], List[Tuple[object, dict]]]:
        """Admit one request line.

        Returns ``(admitted_request_or_None, responses)`` where each
        response is ``(reply_to, message)`` — refusals of this arrival
        and/or the shed victim it displaced.  Every refusal is
        structured; nothing is ever silently dropped.
        """
        now = self.clock() if arrival_s is None else arrival_s
        with self._lock:
            self.requests_total += 1
            try:
                parsed = parse_request(line)
            except ProtocolError as exc:
                self._count("invalid", "invalid", "rejected")
                self.audit.event(
                    "reject", request_id=_safe_id(exc.request_id),
                    at_s=now, kind=exc.kind, message=str(exc),
                )
                return None, [
                    (
                        reply_to,
                        error_response(exc.request_id, exc.kind, str(exc)),
                    )
                ]
            request_id = parsed["id"]
            if request_id is None:
                request_id = f"req-{self.requests_total}"
            op, cls = parsed["op"], parsed["class"]
            trace = self._mint_context(parsed.get("traceparent"))

            if self.draining:
                self._count(op, cls, "draining")
                self._audit_refusal(
                    "draining", trace, request_id, op, cls, now
                )
                return None, [
                    self._draining_refusal(reply_to, request_id, op, cls, trace)
                ]

            deadline_s = parsed["deadline_s"]
            if deadline_s is None:
                deadline_s = self.config.default_deadline_s.get(cls)
            deadline = (
                Deadline(at_s=now + deadline_s, clock=self.clock, label=op)
                if deadline_s is not None
                else None
            )
            self._seq += 1
            request = ServiceRequest(
                id=request_id,
                op=op,
                params=parsed["params"],
                cls=cls,
                rank=CLASS_RANK[cls],
                deadline=deadline,
                deadline_s=deadline_s,
                cost_s=parsed["cost_s"] or 0.0,
                arrival_s=now,
                seq=self._seq,
                reply_to=reply_to,
                trace=trace,
                args=parsed["args"],
            )

        if op in POOLED_OPS:
            # The poison registry is consulted at admission (fingerprint
            # hashing reads spec files — never under the core lock): a
            # request whose fingerprint already killed two workers is
            # refused up front instead of burning another restart.
            fingerprint = request_fingerprint(op, request.params)
            if self.pool.registry.is_quarantined(fingerprint):
                with self._lock:
                    self._count(op, cls, "quarantined")
                    self._audit_refusal(
                        "quarantined", trace, request_id, op, cls,
                        self.clock(), fingerprint=fingerprint[:16],
                    )
                return None, [
                    (
                        reply_to,
                        error_response(
                            request_id, "quarantined",
                            f"request fingerprint {fingerprint[:16]} is "
                            "quarantined after killing "
                            f"{self.pool.registry.threshold} workers; edit "
                            "the specification to clear it",
                            op=op, cls=cls,
                            traceparent=trace.traceparent(),
                            diagnostic="NM501",
                        ),
                    )
                ]

        if op in CAMPAIGN_OPS:
            # Campaign planning resolves the element claim through the
            # spec cache; a cold cache compiles the spec, which can take
            # seconds at paper scale — never hold the core lock here.
            try:
                request.campaign_key, request.elements = (
                    self.handlers.campaign_plan(op, request.args)
                )
            except ProtocolError as exc:
                with self._lock:
                    self._count(op, cls, "rejected")
                    self._audit_refusal(
                        exc.kind, trace, request_id, op, cls, self.clock(),
                        message=str(exc),
                    )
                return None, [
                    (
                        reply_to,
                        error_response(
                            request_id, exc.kind, str(exc), op=op, cls=cls,
                            traceparent=trace.traceparent(),
                        ),
                    )
                ]

        with self._lock:
            if self.draining:
                # Drain began while the campaign was being planned; the
                # queue has already been flushed, so anything admitted
                # now would never be answered.
                self._count(op, cls, "draining")
                self._audit_refusal(
                    "draining", trace, request_id, op, cls, self.clock()
                )
                return None, [
                    self._draining_refusal(reply_to, request_id, op, cls, trace)
                ]
            if request.campaign_key is not None and not self.bulkheads.allow(
                request.campaign_key, now
            ):
                retry = self.bulkheads.retry_after(request.campaign_key, now)
                self._count(op, cls, "circuit-open")
                self._audit_refusal(
                    "circuit-open", trace, request_id, op, cls, now,
                    campaign=request.campaign_key,
                )
                return None, [
                    (
                        reply_to,
                        error_response(
                            request_id, "circuit-open",
                            f"campaign {request.campaign_key} breaker open"
                            " after repeated failures",
                            op=op, cls=cls,
                            traceparent=trace.traceparent(),
                            retry_after_s=round(retry, 6),
                        ),
                    )
                ]

            admitted, victim = self.admission.offer(request)
            responses: List[Tuple[object, dict]] = []
            if victim is not None:
                self._count(victim.op, victim.cls, "shed")
                self._audit_refusal(
                    "shed", victim.trace, victim.id, victim.op, victim.cls,
                    now, latency_s=max(0.0, now - victim.arrival_s),
                    shed_by=str(request_id),
                )
                o = obs.current()
                if o.enabled:
                    o.counter(
                        "repro_service_shed_total",
                        "requests evicted by higher-priority arrivals",
                        **{"class": victim.cls},
                    ).inc()
                responses.append(
                    (
                        victim.reply_to,
                        error_response(
                            victim.id, "shed",
                            f"shed by higher-priority {request.op} arrival"
                            " under overload",
                            op=victim.op, cls=victim.cls,
                            traceparent=(
                                victim.trace.traceparent()
                                if victim.trace is not None
                                else None
                            ),
                            retry_after_s=self._retry_after_hint(),
                        ),
                    )
                )
            if not admitted:
                self._count(op, cls, "queue-full")
                self._audit_refusal(
                    "queue-full", trace, request_id, op, cls, now
                )
                responses.append(
                    (
                        reply_to,
                        error_response(
                            request_id, "queue-full",
                            f"queue at capacity ({self.admission.capacity})"
                            " with nothing lower-priority to shed",
                            op=op, cls=cls,
                            traceparent=trace.traceparent(),
                            retry_after_s=self._retry_after_hint(),
                        ),
                    )
                )
                return None, responses
            self.audit.event(
                "admit", trace=trace, request_id=_safe_id(request_id),
                op=op, cls=cls, at_s=now,
                queue_depth=self.admission.depth(),
            )
            return request, responses

    def _mint_context(self, traceparent: Optional[str]) -> TraceContext:
        """The request's trace context: client's trace id, fresh span id.

        The span id names the request's *root*; every span the request
        produces descends from it.  Ids come from the installed tracer's
        allocator when there is one (so span ids stay unique across the
        whole process trace) and from the core's own seeded allocator
        otherwise.
        """
        ids = getattr(getattr(obs.current(), "tracer", None), "ids", None)
        if ids is None:
            ids = self._own_ids
        if traceparent:
            parent = TraceContext.from_traceparent(traceparent)
            return TraceContext(
                trace_id=parent.trace_id, span_id=ids.span_id()
            )
        return TraceContext(trace_id=ids.trace_id(), span_id=ids.span_id())

    def _audit_refusal(
        self, kind, trace, request_id, op, cls, now, latency_s=0.0, **fields
    ) -> None:
        self.audit.event(
            kind, trace=trace, request_id=_safe_id(request_id),
            op=op, cls=cls, at_s=now, **fields,
        )
        # Client faults (bad params, uncompilable spec) are the
        # requester's problem, not unavailability.
        if kind not in CLIENT_FAULT_KINDS:
            self.slo.record(cls, latency_s, ok=False, now=now)

    def _draining_refusal(
        self, reply_to: object, request_id: object, op: str, cls: str,
        trace: Optional[TraceContext] = None,
    ) -> Tuple[object, dict]:
        return (
            reply_to,
            error_response(
                request_id, "draining",
                "daemon is draining; resubmit to its successor",
                op=op, cls=cls,
                traceparent=(
                    trace.traceparent() if trace is not None else None
                ),
            ),
        )

    def _retry_after_hint(self) -> float:
        backlog = self.admission.depth() + self.in_flight
        workers = max(1, self.config.workers)
        return round(
            self.config.nominal_service_s * max(1, backlog) / workers, 6
        )

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def next_action(self) -> Optional[Tuple[ServiceRequest, str]]:
        """The next ``(request, disposition)``, or None.

        ``"run"`` requests (the local ops) execute in-process: the
        caller runs :meth:`execute` and the response is done;
        ``"remote"`` requests (the pooled ops) have been assigned a
        worker slot — the caller ships them to that worker and later
        settles them via :meth:`settle` or :meth:`worker_failed`.
        ``"expired"`` requests must be refused via :meth:`expire`.
        Replayed requests are served before the admission queues — they
        already waited their turn once.
        """
        with self._lock:
            now = self.clock()
            while self._replays:
                request = self._replays[0]
                if (
                    request.deadline is not None
                    and now > request.deadline.at_s
                ):
                    self._replays.popleft()
                    return request, "expired"
                if not self._can_start(request):
                    # Head-of-line replay needs an idle worker; local
                    # ops in the admission queues may still start.
                    break
                self._replays.popleft()
                return self._start(request)
            action = self.admission.pop_next(now, self._can_start)
            if action is None:
                return None
            request, disposition = action
            if disposition == "expired":
                return request, disposition
            return self._start(request)

    def _start(
        self, request: ServiceRequest
    ) -> Tuple[ServiceRequest, str]:
        """Mark one startable request running; picks its disposition."""
        if request.campaign_key is not None:
            self.bulkheads.acquire(request.campaign_key, request.elements)
        self.in_flight += 1
        request.started_s = self.clock()
        if request.op in POOLED_OPS:
            self.pool.assign(request, self.clock())
            return request, "remote"
        self.in_flight_local += 1
        return request, "run"

    def _can_start(self, request: ServiceRequest) -> bool:
        if request.op in POOLED_OPS:
            return self.pool.has_idle()
        if self.in_flight_local >= self.config.workers:
            # Remote requests occupy no thread, so local thread
            # capacity is enforced here rather than on ``in_flight``.
            return False
        if request.campaign_key is None:
            return True
        return self.bulkheads.can_start(
            request.campaign_key, request.elements
        )

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def execute(self, request: ServiceRequest) -> dict:
        """Run *request* on the caller's thread; returns its response.

        The handler runs under the request's adopted trace context, so
        every span it opens carries the request's trace id.
        """
        return self.settle(request, self.handlers.run(request))

    def settle(self, request: ServiceRequest, frame: dict) -> dict:
        """Build and account the response from a handler's result frame.

        *frame* is :meth:`ServiceHandlers.run`'s, whether it ran on
        this thread or in a pool worker.  A worker also ships the span
        subtree it closed; splicing it here keeps a pooled request one
        connected trace.
        """
        o = obs.current()
        tracer = getattr(o, "tracer", None)
        if tracer is not None and frame.get("spans"):
            tracer.splice(frame["spans"])
        traceparent = (
            request.trace.traceparent() if request.trace is not None else None
        )
        request.resources.update(frame["resources"])
        if not frame["ok"]:
            kind, message = frame["kind"], frame["message"]
            if kind == "vetoed":
                self.audit.event(
                    "veto", trace=request.trace,
                    request_id=_safe_id(request.id),
                    op=request.op, cls=request.cls, at_s=self.clock(),
                    message=message,
                )
            response = error_response(
                request.id, kind, message,
                op=request.op, cls=request.cls, traceparent=traceparent,
            )
            return self.finish(request, response, outcome=kind)
        result = frame["result"]
        response = result_response(
            request.id, request.op, request.cls, result,
            timing=self._timing(request),
            traceparent=traceparent,
            resources=(
                dict(sorted(request.resources.items()))
                if self.config.measure_resources and request.resources
                else None
            ),
        )
        ok = self.handlers.campaign_succeeded(request.op, result)
        return self.finish(
            request, response, outcome="ok" if ok else "incomplete"
        )

    def finish(
        self, request: ServiceRequest, response: dict, outcome: str
    ) -> dict:
        now = self.clock()
        latency_s = max(0.0, now - request.arrival_s)
        with self._lock:
            self.in_flight -= 1
            if request.worker_id is None:
                self.in_flight_local -= 1
            if request.campaign_key is not None:
                self.bulkheads.release(
                    request.campaign_key, ok=(outcome == "ok"), now=now
                )
            self._count(request.op, request.cls, outcome)
            o = obs.current()
            if o.enabled and request.started_s is not None:
                o.histogram(
                    "repro_service_latency_seconds",
                    buckets=LATENCY_BUCKETS_S,
                    _help="request latency from arrival to response, by class",
                    **{"class": request.cls},
                ).observe(latency_s)
            ok = bool(response.get("ok"))
            error_kind = (
                None if ok else (response.get("error") or {}).get("kind")
            )
            if ok or error_kind not in CLIENT_FAULT_KINDS:
                self.slo.record(request.cls, latency_s, ok=ok, now=now)
            self.audit.event(
                "response", trace=request.trace,
                request_id=_safe_id(request.id),
                op=request.op, cls=request.cls, at_s=now,
                outcome=outcome, latency_s=round(latency_s, 9),
            )
            self.responses_total += 1
        return response

    def _timing(self, request: ServiceRequest) -> dict:
        now = self.clock()
        started = (
            request.started_s
            if request.started_s is not None
            else request.arrival_s
        )
        return {
            "queued_s": round(max(0.0, started - request.arrival_s), 6),
            "service_s": round(max(0.0, now - started), 6),
            "total_s": round(max(0.0, now - request.arrival_s), 6),
        }

    def expire(self, request: ServiceRequest) -> dict:
        """Refuse a request whose deadline lapsed while queued."""
        now = self.clock()
        with self._lock:
            self._count(request.op, request.cls, "deadline")
            self._audit_refusal(
                "deadline", request.trace, request.id,
                request.op, request.cls, now,
                latency_s=max(0.0, now - request.arrival_s),
                queued=True,
            )
            self.responses_total += 1
        return error_response(
            request.id, "deadline",
            f"deadline ({request.deadline_s}s) expired while queued",
            op=request.op, cls=request.cls,
            traceparent=(
                request.trace.traceparent()
                if request.trace is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Worker pool supervision.
    # ------------------------------------------------------------------
    def pool_worker_started(self, worker_id: int, pid=None):
        """A worker came up (boot or post-crash restart)."""
        now = self.clock()
        with self._lock:
            state = self.pool.worker_started(worker_id, now, pid=pid)
            self.audit.event(
                "worker-restart" if state.restarts else "worker-start",
                at_s=now, worker=worker_id, pid=pid,
                restarts=state.restarts,
            )
            return state

    def pool_completed(
        self, request: ServiceRequest, rss_kb=None
    ) -> Optional[str]:
        """Free the request's worker slot; returns ``"recycle"`` when
        the slow-leak guard wants the worker gracefully replaced."""
        with self._lock:
            return self.pool.completed(
                request.worker_id, self.clock(), rss_kb=rss_kb
            )

    def worker_failed(
        self, worker_id: int, reason: str
    ) -> Tuple[Optional[Tuple[object, dict]], "FailureDecision"]:
        """A worker died (*reason*: crash/wedge/overrun): decide the
        in-flight request's fate and the restart schedule.

        Returns ``(delivery, decision)``: *delivery* is a
        ``(reply_to, response)`` to send now (refusals), or None (the
        request was requeued for replay, or the worker was idle).  The
        runtime restarts the worker at ``decision.restart_at_s``.
        """
        now = self.clock()
        with self._lock:
            decision = self.pool.worker_failed(worker_id, reason, now)
            self.count_pool_restart(reason)
            self.audit.event(
                "worker-exit", at_s=now, worker=worker_id, reason=reason,
                trace=(
                    decision.request.trace
                    if decision.request is not None else None
                ),
                action=decision.action,
                backoff_s=round(decision.backoff_s, 6),
                request_id=_safe_id(
                    decision.request.id
                    if decision.request is not None
                    else None
                ),
            )
            if decision.request is None:
                return None, decision
            request = decision.request
            if decision.action == "replay" and not self.draining:
                # The slot accounting resets: the request re-enters the
                # dispatch path and re-increments in_flight on restart.
                self.in_flight -= 1
                request.worker_id = None
                self._replays.append(request)
                self.audit.event(
                    "replay", trace=request.trace,
                    request_id=_safe_id(request.id), op=request.op,
                    cls=request.cls, at_s=now, worker=worker_id,
                    reason=reason, attempts=request.attempts,
                )
                o = obs.current()
                if o.enabled:
                    o.counter(
                        "repro_service_pool_replays_total",
                        "idempotent requests re-executed after a worker "
                        "death",
                        op=request.op,
                    ).inc()
                return None, decision
            if decision.action == "refuse" and decision.quarantined:
                self.audit.event(
                    "quarantine", trace=request.trace,
                    request_id=_safe_id(request.id), op=request.op,
                    cls=request.cls, at_s=now,
                    fingerprint=(decision.fingerprint or "")[:16],
                    kills=decision.kills,
                )
            kind = decision.kind or "worker-lost"
            message = decision.message or f"worker {worker_id} {reason}"
            if decision.action == "replay" and self.draining:
                # Replay would outlive the drain; answer structurally.
                kind = "draining"
                message = (
                    f"worker {worker_id} {reason} mid-request during drain"
                )
            details = {"worker": worker_id, "reason": reason}
            if decision.quarantined:
                details["diagnostic"] = "NM501"
            response = error_response(
                request.id, kind, message,
                op=request.op, cls=request.cls,
                traceparent=(
                    request.trace.traceparent()
                    if request.trace is not None
                    else None
                ),
                **details,
            )
            return (
                (request.reply_to, self.finish(request, response, kind)),
                decision,
            )

    def abandon_in_flight(
        self, worker_id: int, reason: str
    ) -> Optional[Tuple[object, dict]]:
        """Drain timeout: the worker is about to be SIGKILLed with its
        request still running — answer the request (never drop it)."""
        now = self.clock()
        with self._lock:
            request = self.pool.abandon(worker_id, now)
            if request is None:
                return None
            self.audit.event(
                "worker-exit", at_s=now, worker=worker_id, reason=reason,
                trace=request.trace, action="refuse",
                request_id=_safe_id(request.id),
            )
            response = error_response(
                request.id, "worker-lost",
                f"daemon drained; worker {worker_id} killed after the "
                "grace period with this request still executing",
                op=request.op, cls=request.cls,
                traceparent=(
                    request.trace.traceparent()
                    if request.trace is not None
                    else None
                ),
                worker=worker_id, reason=reason,
            )
            return request.reply_to, self.finish(
                request, response, "worker-lost"
            )

    def pool_recycled(self, worker_id: int, **fields) -> float:
        """Retire an idle worker past its rss limit (after
        :meth:`pool_completed` said ``"recycle"``); returns the time
        its replacement may start."""
        now = self.clock()
        with self._lock:
            restart_at = self.pool.recycle(worker_id, now)
            self.audit.event(
                "worker-recycle", at_s=now, worker=worker_id,
                reason="rss-limit", **fields,
            )
            self.count_pool_restart("recycle")
            return restart_at

    def count_pool_restart(self, reason: str) -> None:
        o = obs.current()
        if o.enabled:
            o.counter(
                "repro_service_pool_restarts_total",
                "worker restarts by cause (crash/wedge/overrun/recycle)",
                reason=reason,
            ).inc()

    # ------------------------------------------------------------------
    # Drain.
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        with self._lock:
            self.draining = True
        o = obs.current()
        if o.enabled:
            o.gauge(
                "repro_service_draining",
                "1 while the daemon refuses new work pending shutdown",
            ).set(1)

    def drain_responses(self) -> List[Tuple[object, dict]]:
        """Refuse everything still queued (drain flushes the queues)."""
        responses = []
        now = self.clock()
        with self._lock:
            for request in self.admission.queued():
                self._count(request.op, request.cls, "draining")
                self._audit_refusal(
                    "draining", request.trace, request.id,
                    request.op, request.cls, now,
                    latency_s=max(0.0, now - request.arrival_s),
                )
                self.responses_total += 1
                responses.append(
                    (
                        request.reply_to,
                        error_response(
                            request.id, "draining",
                            "daemon drained before this request was served",
                            op=request.op, cls=request.cls,
                            traceparent=(
                                request.trace.traceparent()
                                if request.trace is not None
                                else None
                            ),
                        ),
                    )
                )
            # Reset the queues; everything in them has now been answered.
            for name in list(self.admission._queues):
                self.admission._queues[name].clear()
        return responses

    @property
    def idle(self) -> bool:
        with self._lock:
            return self.in_flight == 0 and self.admission.depth() == 0

    # ------------------------------------------------------------------
    # Introspection / metrics.
    # ------------------------------------------------------------------
    def status_snapshot(self) -> dict:
        with self._lock:
            return {
                "draining": self.draining,
                "in_flight": self.in_flight,
                "pool": self.pool.snapshot(self.clock()),
                "queue": {
                    "depths": self.admission.depths(),
                    "capacity": self.admission.capacity,
                    "admitted_total": self.admission.admitted_total,
                    "shed_total": self.admission.shed_total,
                    "rejected_total": self.admission.rejected_total,
                },
                "campaigns": self.bulkheads.snapshot(),
                "cache": self.handlers.cache.stats(),
                "requests_total": self.requests_total,
                "responses_total": self.responses_total,
                "audit_events": self.audit.total,
            }

    def _count(self, op: str, cls: str, outcome: str) -> None:
        o = obs.current()
        if o.enabled:
            o.counter(
                "repro_service_requests_total",
                "requests by op, class and outcome",
                op=op, outcome=outcome, **{"class": cls},
            ).inc()
