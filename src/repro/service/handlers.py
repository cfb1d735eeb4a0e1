"""Request handlers and the warm spec/fact cache behind them.

The daemon's whole reason to exist over the batch CLI: a
:class:`SpecCache` keeps the compiled specification, the fact set and a
warm :class:`~repro.consistency.checker.ConsistencyChecker` (with its
verdict memos and permission index) alive across requests, so the
second ``check`` of an unchanged spec costs memo lookups instead of a
full compile + fact expansion, and its second ``analyze`` reuses the
findings of every pass (``operations.analyze``).  Entries are keyed by resolved path and
invalidated by content hash (:mod:`repro.service.specfile`: from ``stat``
while the file is unchanged); a bounded LRU caps resident specs.

:class:`ServiceHandlers` executes each operation against the cache and
returns a JSON-safe result payload.  Handlers run on worker threads in
service mode, so each cache entry carries two locks: ``lock``
serialises the stateful engines (checker memos, lazy engine
construction, impact baselines), and ``campaign_lock`` guarantees that
at most one campaign (rollout/heal, including their install sweeps)
mutates the shared :class:`~repro.netsim.processes.ManagementRuntime`
at a time.  Bulkhead claims keep concurrent campaigns *logically*
disjoint at element granularity; ``campaign_lock`` is what makes the
shared simulated fabric safe when two such campaigns land on worker
threads at the same wall-clock moment.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import FrozenSet, Optional, Tuple

from repro import obs, operations
from repro.collector import bulk_load
from repro.deadline import Deadline
from repro.errors import (
    DeadlineExceeded,
    NmslSemanticError,
    NmslSyntaxError,
    ReproError,
    RolloutVetoed,
)
from repro.service.protocol import ProtocolError, op_arguments
from repro.service.specfile import read_spec

#: Findings/problems included in a response before truncation.
MAX_REPORTED = 50


class SpecSession(operations.Revision):
    """One cached specification: a revision compiled from a spec file's
    text, kept warm (checker, runtime) across requests."""

    def __init__(self, path: str, text: str, text_hash: str):
        from repro.nmsl.compiler import CompilerOptions, NmslCompiler

        compiler = NmslCompiler(CompilerOptions(filename=path))
        try:
            with bulk_load():
                result = compiler.compile(text)
        except (NmslSyntaxError, NmslSemanticError) as exc:
            # The compile is strict: errors arrive as exceptions.
            raise ProtocolError("compile", str(exc))
        super().__init__(compiler, result)
        self.path = path
        self.text_hash = text_hash
        #: Held for the duration of any campaign that mutates the
        #: shared ManagementRuntime (install sweeps, rollout, heal).
        #: Element-disjoint campaigns on *different* specs run truly
        #: concurrently; on the same spec they serialise here.
        self.campaign_lock = threading.Lock()
        self.checks = 0


class SpecCache:
    """Bounded LRU of :class:`SpecSession`, invalidated by content hash."""

    def __init__(self, limit: int = 8):
        if limit < 1:
            raise ValueError(f"limit must be at least 1, got {limit}")
        self.limit = limit
        self._entries: "OrderedDict[str, SpecSession]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, spec: str) -> SpecSession:
        return self.fetch(spec)[0]

    def fetch(self, spec: str) -> Tuple[SpecSession, bool]:
        """The session for *spec*, and whether this call was a hit (the
        ``hits`` counter is shared by every thread serving requests)."""
        path = str(Path(spec))
        try:
            text_hash, data = read_spec(path)
            with self._lock:
                session = self._entries.get(path)
                if session is not None and session.text_hash == text_hash:
                    self._entries.move_to_end(path)
                    self.hits += 1
                    self._publish()
                    return session, True
            if data is None:  # the signature answered; now the text is needed
                text_hash, data = read_spec(path, need_bytes=True)
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                "bad-request",
                f"{spec} is not valid UTF-8: byte offset {exc.start}: "
                f"{exc.reason}",
            )
        except (OSError, ValueError) as exc:  # ValueError: NUL in the path
            raise ProtocolError("bad-request", f"cannot read {spec}: {exc}")
        # Universal newlines, as nmslc's text-mode read gives the compiler.
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        # Compile outside the cache lock (it can take seconds at paper
        # scale); last writer wins on a racing recompile of one path.
        self.misses += 1
        session = SpecSession(path, text, text_hash)
        with self._lock:
            self._entries[path] = session
            self._entries.move_to_end(path)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
            self._publish()
        return session, False

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "limit": self.limit,
            "hits": self.hits,
            "misses": self.misses,
        }

    def _publish(self) -> None:
        o = obs.current()
        if o.enabled:
            o.gauge(
                "repro_service_spec_cache_entries",
                "warm compiled specifications resident",
            ).set(len(self._entries))


class ServiceHandlers:
    """Executes protocol operations against the warm cache; ``analyze``,
    ``diff``, ``rollout`` and ``heal`` run the op bodies ``nmslc`` runs
    (:mod:`repro.operations`) and keep the lookups, reply and audit."""

    def __init__(self, cache: Optional[SpecCache] = None, journal_dir=None):
        self.cache = cache or SpecCache()
        self.journal_dir = Path(journal_dir) if journal_dir else None
        #: Back-reference installed by :class:`ServiceCore` so ``status``
        #: can report scheduler state.
        self.core = None

    # ------------------------------------------------------------------
    # Campaign planning (submit-time, for bulkhead claims).
    # ------------------------------------------------------------------
    def campaign_plan(
        self, op: str, args: dict
    ) -> Tuple[str, FrozenSet[str]]:
        """(campaign key, claimed element set) for a bulk request whose
        *args* were resolved at admission.

        The claim is at element granularity — the system names the
        campaign may touch — so disjointness between concurrent
        campaigns is decidable without building the simulated runtime
        on the admission path.
        """
        session = self.cache.get(args["spec"])
        systems = session.result.specification.systems
        claim = frozenset(
            systems if args["elements"] is None else args["elements"]
        )
        unknown = sorted(claim.difference(systems))
        if unknown:
            raise ProtocolError(
                "bad-request", "unknown element(s): " + ", ".join(unknown)
            )
        digest = hashlib.sha256(
            ",".join(sorted(claim)).encode("utf-8")
        ).hexdigest()[:12]
        return f"{op}:{session.path}:{args['tag']}:{digest}", claim

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def execute(self, request) -> dict:
        """Run *request* and return its JSON-safe result payload.

        Each handler reads its op's declared parameters (defaults
        filled in, :mod:`repro.operations`): the ``args`` admission
        resolved, or, on a request built without them, ``params``
        resolved here.  Raises :class:`~repro.errors.DeadlineExceeded`
        on budget expiry and :class:`ProtocolError` on parameter
        problems; :meth:`run` maps both to error kinds.
        """
        method = getattr(self, "_op_" + request.op)  # the protocol vets ops
        args = request.args
        if args is None:
            args = op_arguments(request.op, request.params)
        # The request is threaded through explicitly: handlers run
        # concurrently on worker threads, so per-request context must
        # never live in shared instance state.
        return method(args, request.deadline, request)

    def run(self, request, **span_attrs) -> dict:
        """Execute *request* under its trace; returns its result frame.

        The frame is what a pool worker ships back over its pipe and
        what the core settles an in-process request from:
        ``{"id", "ok", "result"}`` or ``{"id", "ok", "kind",
        "message"}``, plus ``resources`` (the handler's CPU seconds and
        whatever the handler counted).  This is the one place a handler
        exception becomes an error kind.
        """
        o = obs.current()
        cpu0 = time.thread_time()
        frame = {"id": request.id, "ok": True, "result": None}
        with o.adopt(request.trace):
            with o.span(
                "service.request", op=request.op, cls=request.cls,
                request_id=str(request.id), **span_attrs,
            ):
                try:
                    frame["result"] = self.execute(request)
                except DeadlineExceeded as exc:
                    frame.update(ok=False, kind="deadline", message=str(exc))
                except ProtocolError as exc:
                    frame.update(ok=False, kind=exc.kind, message=str(exc))
                except ReproError as exc:
                    frame.update(ok=False, kind="internal", message=str(exc))
                except Exception as exc:  # noqa: BLE001 - always answer
                    frame.update(
                        ok=False, kind="internal",
                        message=f"{type(exc).__name__}: {exc}",
                    )
        request.resources["cpu_s"] = round(
            max(0.0, time.thread_time() - cpu0), 6
        )
        frame["resources"] = request.resources
        return frame

    # ------------------------------------------------------------------
    # Interactive operations.
    # ------------------------------------------------------------------
    def _op_ping(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        return {"pong": True}

    def _op_status(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        if self.core is None:
            return {"cache": self.cache.stats()}
        return self.core.status_snapshot()

    def _op_slo(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        """Current SLO state: per-class windows, burn rates, alerts."""
        if self.core is None:
            return {"classes": {}, "alerts": []}
        return self.core.slo.snapshot(self.core.clock())

    def _op_compile(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        session = self.cache.get(args["spec"])
        Deadline.poll(deadline, "service.compile")
        counts = session.result.specification.counts()
        return {
            "spec": session.path,
            "counts": dict(counts),
            "warnings": [
                str(warning)
                for warning in session.result.report.warnings[:MAX_REPORTED]
            ],
            "fingerprint": session.text_hash,
        }

    def _op_check(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        session, spec_cache_hit = self.cache.fetch(args["spec"])
        with session.lock:
            warm = session.checks > 0
            session.checks += 1
            checker = session.checker
            tallies_before = checker.cache_tallies()
            outcome = checker.check(
                check_capacity=args["capacity"], deadline=deadline
            )
            tallies_after = checker.cache_tallies()
        hits = tallies_after["hits"] - tallies_before["hits"]
        lookups = hits + (tallies_after["misses"] - tallies_before["misses"])
        request.resources.update(
            facts_scanned=outcome.stats.get("references") or 0,
            cache_lookups=lookups,
            cache_hit_ratio=round(hits / lookups, 4) if lookups else 0.0,
            spec_cache_hit=spec_cache_hit,
        )
        problems = [
            {"kind": problem.kind.value, "message": problem.message}
            for problem in outcome.inconsistencies[:MAX_REPORTED]
        ]
        return {
            "spec": session.path,
            "consistent": outcome.consistent,
            "inconsistencies": len(outcome.inconsistencies),
            "problems": problems,
            "warnings": len(outcome.warnings),
            "warm": warm,
            # Wall-clock "seconds" is deliberately excluded (cf.
            # ConsistencyResult.VOLATILE_STATS): simulated-runtime
            # transcripts must be byte-identical per seed.
            "stats": {
                "references": outcome.stats.get("references"),
                "instances": outcome.stats.get("instances"),
                "engine": outcome.stats.get("engine"),
            },
        }

    def _op_analyze(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        specs = args["specs"] or [args["spec"]]

        def sessions():
            for spec in specs:
                session = self.cache.get(spec)
                Deadline.poll(deadline, "service.analyze")
                yield session

        report, request.resources["passes_run"] = operations.analyze(
            sessions(), args, deadline=deadline
        )
        return {
            "specs": [str(Path(spec)) for spec in specs],
            "findings": len(report.diagnostics),
            "gating": bool(report.gating()),
            "diagnostics": [
                {
                    "code": diagnostic.code,
                    "severity": diagnostic.severity.value,
                    "message": diagnostic.message,
                    "location": str(diagnostic.location),
                }
                for diagnostic in report.diagnostics[:MAX_REPORTED]
            ],
        }

    def _op_diff(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        old = self.cache.get(args["old"])
        new = self.cache.get(args["new"])
        Deadline.poll(deadline, "service.diff")
        impact, report = operations.diff(old, new, args, deadline=deadline)
        request.resources["facts_expanded"] = impact.stats["facts_expanded"]
        return {
            "old": old.path,
            "new": new.path,
            "findings": [
                {
                    "code": diagnostic.code,
                    "severity": diagnostic.severity.value,
                    "message": diagnostic.message,
                }
                for diagnostic in report.diagnostics[:MAX_REPORTED]
            ],
            "gating": bool(report.gating()),
            "impacted_elements": sorted(impact.impacted_elements),
            "redrives": sorted(impact.redrive_elements()),
            "diff_entries": impact.stats.get("diff_entries", 0),
        }

    # ------------------------------------------------------------------
    # Bulk campaigns.
    # ------------------------------------------------------------------
    def _campaign_journal(self, request):
        from repro.rollout import RolloutJournal

        if self.journal_dir is None:
            return None
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        safe = "".join(
            ch if ch.isalnum() or ch in "-_" else "-"
            for ch in str(request.id)
        )
        path = self.journal_dir / f"campaign-{safe}.jsonl"
        path.unlink(missing_ok=True)
        journal = RolloutJournal(path=path)
        # Stamp the campaign journal with the request's trace so every
        # durable record names the request that caused it.
        trace = getattr(request, "trace", None)
        if trace is not None:
            journal.set_trace(trace)
        return journal

    def _op_rollout(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        session = self.cache.get(args["spec"])
        gate, _ = operations.rollout_gate(session, args, self.cache.get)
        journal = self._campaign_journal(request)
        try:
            # One campaign at a time may mutate the shared runtime;
            # element-level disjointness (the bulkhead claim) is not a
            # memory-safety boundary inside the simulated fabric.
            with session.campaign_lock:
                report = operations.rollout(
                    session, args, journal=journal, gate=gate,
                    deadline=deadline,
                )
        except RolloutVetoed as exc:
            raise ProtocolError("vetoed", str(exc))
        finally:
            if journal is not None:
                journal.close()
        if self.core is not None:
            now = self.core.clock()
            trace = getattr(request, "trace", None)
            for name in sorted(report.elements):
                element = report.elements[name]
                self.core.audit.event(
                    "apply", trace=trace, request_id=str(request.id),
                    op="rollout", at_s=now, element=name,
                    state=element.state.value, attempts=element.attempts,
                )
        return {
            "spec": session.path,
            "tag": args["tag"],
            "complete": report.complete,
            "outcomes": report.outcomes(),
            "committed": sorted(report.committed()),
            "dead_letter": sorted(report.dead_letter()),
            "duration_s": report.duration_s,
            "gated": gate is not None,
            "journal": str(journal.path) if journal is not None else None,
        }

    def _op_heal(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        session = self.cache.get(args["spec"])
        with session.campaign_lock:
            report = operations.heal(session, args, deadline=deadline)
        if self.core is not None:
            self.core.audit.event(
                "apply", trace=getattr(request, "trace", None),
                request_id=str(request.id), op="heal",
                at_s=self.core.clock(),
                converged=report.converged, rounds=len(report.rounds),
                quarantined=len(report.quarantined),
            )
        return {
            "spec": session.path,
            "tag": args["tag"],
            "converged": report.converged,
            "rounds": len(report.rounds),
            "drift_repaired": report.drift_repaired(),
            "quarantined": sorted(report.quarantined),
            "duration_s": report.duration_s,
        }

    # ------------------------------------------------------------------
    # Success predicate for campaign breakers.
    # ------------------------------------------------------------------
    @staticmethod
    def campaign_succeeded(op: str, result: dict) -> bool:
        if op == "rollout":
            return bool(result.get("complete"))
        if op == "heal":
            return bool(result.get("converged"))
        return True
