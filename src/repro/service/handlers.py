"""Request handlers and the warm spec/fact cache behind them.

The daemon's whole reason to exist over the batch CLI: a
:class:`SpecCache` keeps the compiled specification, the fact set and a
warm :class:`~repro.consistency.checker.ConsistencyChecker` (with its
verdict memos and permission index) alive across requests, so the
second ``check`` of an unchanged spec costs memo lookups instead of a
full compile + fact expansion.  Entries are keyed by resolved path and
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

import dataclasses
import hashlib
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

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


class SpecSession:
    """One cached specification: compiler, result, warm engines."""

    def __init__(self, path: str, text: str, text_hash: str):
        from repro.nmsl.compiler import CompilerOptions, NmslCompiler

        self.path = path
        self.text_hash = text_hash
        self.lock = threading.RLock()
        #: Held for the duration of any campaign that mutates the
        #: shared ManagementRuntime (install sweeps, rollout, heal).
        #: Element-disjoint campaigns on *different* specs run truly
        #: concurrently; on the same spec they serialise here.
        self.campaign_lock = threading.Lock()
        self.compiler = NmslCompiler(CompilerOptions(filename=path))
        try:
            with bulk_load():
                self.result = self.compiler.compile(text)
        except (NmslSyntaxError, NmslSemanticError) as exc:
            # The compile is strict: errors arrive as exceptions.
            raise ProtocolError("compile", str(exc))
        self.checks = 0
        self._checker = None
        self._runtime = None

    @property
    def checker(self):
        from repro.consistency.checker import ConsistencyChecker

        with self.lock:
            if self._checker is None:
                self._checker = ConsistencyChecker(
                    self.result.specification, self.compiler.tree
                )
            return self._checker

    @property
    def runtime(self):
        from repro.netsim.processes import ManagementRuntime

        with self.lock:
            if self._runtime is None:
                self._runtime = ManagementRuntime(self.compiler, self.result)
            return self._runtime


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
        path = str(Path(spec))
        try:
            text_hash, data = read_spec(path)
            with self._lock:
                session = self._entries.get(path)
                if session is not None and session.text_hash == text_hash:
                    self._entries.move_to_end(path)
                    self.hits += 1
                    self._publish()
                    return session
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
        return session

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
    """Executes protocol operations against the warm cache."""

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
        cache_hits_before = self.cache.hits
        session = self.cache.get(args["spec"])
        spec_cache_hit = self.cache.hits > cache_hits_before
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
        from repro.analysis import default_registry

        specs = args["specs"] or [args["spec"]]
        codes = args["select"]
        registry = default_registry()
        diagnostics: List[dict] = []
        gating = False
        for spec in specs:
            session = self.cache.get(spec)
            Deadline.poll(deadline, "service.analyze")
            with session.lock:
                report = registry.run(
                    # The passes read the fact set `check` keeps warm.
                    dataclasses.replace(
                        session.compiler.analysis_context(session.result),
                        checker=session.checker,
                    ),
                    codes=tuple(codes) if codes else None,
                )
            gating = gating or bool(report.gating())
            for diagnostic in report.diagnostics:
                diagnostics.append(
                    {
                        "code": diagnostic.code,
                        "severity": diagnostic.severity.value,
                        "message": diagnostic.message,
                        "location": str(diagnostic.location),
                    }
                )
        return {
            "specs": [str(Path(spec)) for spec in specs],
            "findings": len(diagnostics),
            "gating": gating,
            "diagnostics": diagnostics[:MAX_REPORTED],
        }

    def _op_diff(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        from repro.analysis import check_revisions

        old = self.cache.get(args["old"])
        new = self.cache.get(args["new"])
        Deadline.poll(deadline, "service.diff")
        with old.lock:
            impact, report = check_revisions(
                old.compiler.tree, old.result.specification,
                new.result.specification, tags=args["output"],
                waiver=args["waiver"], deadline=deadline,
            )
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
    def _campaign(self, session: SpecSession, args: dict) -> dict:
        """``ManagementRuntime.rollout``/``heal`` keywords: the delivery
        parameters the op declares, and the targets narrowed to the
        request's element claim."""
        with session.lock:
            configs = session.runtime.rollout_targets(args["tag"])
        if args["elements"] is not None:
            claim = set(args["elements"])
            configs = {
                target: text
                for target, text in configs.items()
                if target.partition("/")[0] in claim
            }
        return dict(operations.campaign(args), configs=configs)

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
        if path.exists():
            path.unlink()
        journal = RolloutJournal(path=path)
        # Stamp the campaign journal with the request's trace so every
        # durable record names the request that caused it.
        trace = getattr(request, "trace", None)
        if trace is not None:
            journal.set_trace(trace)
        return journal

    def _rollout_gate(self, session: SpecSession, args: dict):
        """The relational gate for ``rollout`` with a ``diff_base``."""
        from repro.analysis import check_revisions
        from repro.rollout import RolloutGate

        if args["diff_base"] is None:
            return None
        base = self.cache.get(args["diff_base"])
        with base.lock:
            impact, report = check_revisions(
                base.compiler.tree, base.result.specification,
                session.result.specification, tags=(args["tag"],),
                waiver=args["waiver"],
            )
        return RolloutGate.from_impact(impact, report)

    def _op_rollout(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        import json as _json

        session = self.cache.get(args["spec"])
        tag = args["tag"]
        gate = self._rollout_gate(session, args)
        campaign = self._campaign(session, args)
        journal = self._campaign_journal(request)
        try:
            # One campaign at a time may mutate the shared runtime;
            # element-level disjointness (the bulkhead claim) is not a
            # memory-safety boundary inside the simulated fabric.
            with session.campaign_lock:
                if args["baseline_install"]:
                    session.runtime.install_configuration(tag=tag)
                try:
                    report = session.runtime.rollout(
                        **campaign, journal=journal, gate=gate,
                        deadline=deadline,
                    )
                except RolloutVetoed as exc:
                    raise ProtocolError("vetoed", str(exc))
        finally:
            if journal is not None:
                journal.close()
        payload = _json.loads(report.to_json())
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
            "tag": tag,
            "complete": report.complete,
            "outcomes": payload.get("outcomes", {}),
            "committed": sorted(report.committed()),
            "dead_letter": sorted(report.dead_letter()),
            "duration_s": report.duration_s,
            "gated": gate is not None,
            "journal": str(journal.path) if journal is not None else None,
        }

    def _op_heal(
        self, args: dict, deadline: Optional[Deadline], request
    ) -> dict:
        import json as _json

        from repro.heal import HealthRegistry

        session = self.cache.get(args["spec"])
        tag = args["tag"]
        campaign = self._campaign(session, args)
        with session.campaign_lock:
            if args["install"]:
                session.runtime.install_configuration(tag=tag)
            report = session.runtime.heal(
                **campaign,
                registry=HealthRegistry(sorted(campaign["configs"])),
                interval_s=args["interval_s"],
                rounds=args["rounds"],
                deadline=deadline,
            )
        payload = _json.loads(report.to_json())
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
            "tag": tag,
            "converged": report.converged,
            "rounds": len(report.rounds),
            "drift_repaired": payload.get("drift_repaired", 0),
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
