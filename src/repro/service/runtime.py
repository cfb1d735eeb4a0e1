"""Two drivers for one scheduler: simulated clock and real asyncio.

The CESK-machine idiom from the interpreter literature: keep the whole
transition function pure (:class:`~repro.service.core.ServiceCore`) and
put *time* behind a protocol so the same machine can be stepped by a
deterministic harness or by the operating system.

:class:`SimulatedServiceRuntime`
    Drives the core on a logical clock with a single event heap.
    Arrivals are offered at declared times, service costs are declared
    per request, and the whole run — shed ordering, deadline expiries,
    bulkhead waits — is a pure function of the offered workload, so two
    same-seed runs produce byte-identical transcripts.  This is the
    substrate for the overload chaos suite and the service benchmark.

:class:`AsyncServiceRuntime`
    The production driver: an asyncio NDJSON socket server plus a tiny
    HTTP endpoint for ``/metrics`` (Prometheus 0.0.4) and ``/healthz``.
    The pooled ops execute in supervised worker processes
    (:class:`~repro.service.pool.ProcessWorkerPool`), the rest on a
    thread pool (the simulated rollout fabric is synchronous code); the
    event loop does admission, dispatch and replies.  SIGTERM/SIGINT
    begin a graceful drain: stop admitting, answer everything queued
    with structured ``draining`` refusals, let in-flight campaigns
    finish (their journals make crash-resume possible regardless),
    flush metrics, exit 0.
"""

from __future__ import annotations

import heapq
import json
import logging
from typing import Dict, List, Optional, Protocol, Tuple

from repro import obs
from repro.service.core import ServiceConfig, ServiceCore, ServiceRequest
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    MAX_HTTP_HEADERS,
    MAX_HTTP_LINE_BYTES,
    encode_message,
    error_response,
)

_log = logging.getLogger("repro.service")


class RuntimeProtocol(Protocol):
    """What a driver of :class:`ServiceCore` must provide."""

    core: ServiceCore

    def run(self) -> object:
        """Serve until drained/stopped; returns a runtime-specific value."""


# ----------------------------------------------------------------------
# Deterministic simulated runtime.
# ----------------------------------------------------------------------
class SimulatedServiceRuntime:
    """Steps the core on a logical clock; fully deterministic.

    Workload is offered up front (or incrementally) with
    :meth:`offer`; :meth:`run` then executes the discrete-event loop:

    * ``arrival`` events submit the request line to the core (shedding
      and rejections resolve immediately, deterministically);
    * pooled ops start on idle worker slots and local ops on free
      threads; the clock jumps to ``start + cost_s`` **before** the
      handler runs, so a deadline shorter than the declared cost
      genuinely expires *mid-execution* and surfaces as a 504 from
      inside the checker — the same code path production hits,
      compressed onto the logical clock;
    * ``drain_at`` (optional) begins a graceful drain mid-run.

    The same heap drives the worker pool's *entire* supervision state
    machine on the logical clock: pooled ops dispatch to
    supervisor-assigned worker slots, and :meth:`inject_chaos`
    schedules deterministic worker faults —

    * ``worker-crash``: the worker dies instantly (epoch-bumping its
      pending completion); the in-flight request replays or is refused
      per the supervisor's decision and the worker restarts on the
      backoff schedule;
    * ``worker-wedge``: the worker stops making progress *and* stops
      heartbeating; detection fires ``heartbeat_timeout_s`` later;
    * ``slow-leak``: the worker's synthetic resident set grows per
      completion until the rss limit triggers a graceful recycle.

    Handlers still execute in-process (there are no real child
    processes on a logical clock) — what is simulated is supervision:
    assignment, death, replay, quarantine, backoff, recycle.

    The transcript — every response in emission order, serialised with
    the protocol's deterministic encoder — is the unit of comparison
    for the chaos suite's byte-identical assertions.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        drain_at_s: Optional[float] = None,
    ):
        self._now = 0.0
        self.core = ServiceCore(config=config, clock=lambda: self._now)
        self.drain_at_s = drain_at_s
        self._events: List[Tuple[float, int, str, object]] = []
        self._eseq = 0
        self.transcript: List[str] = []
        self.responses: List[dict] = []
        #: Chaos state: wedged (worker -> epoch), synthetic per-worker
        #: rss and leak growth rates.
        self._wedged = {}
        self._rss = {}
        self._leak = {}
        if drain_at_s is not None:
            self._push(drain_at_s, "drain", None)

    # -- workload -------------------------------------------------------
    def offer(self, at_s: float, message: dict) -> None:
        """Schedule a request (a protocol message dict) at *at_s*."""
        self._push(at_s, "arrival", encode_message(message).rstrip("\n"))

    def offer_line(self, at_s: float, line: str) -> None:
        self._push(at_s, "arrival", line)

    def inject_chaos(
        self, at_s: float, kind: str, worker: int = 0, **params
    ) -> None:
        """Schedule a deterministic worker fault.

        *kind* is ``worker-crash``, ``worker-wedge`` or ``slow-leak``
        (``growth_kb=`` sets the per-completion rss growth).
        """
        if kind not in ("worker-crash", "worker-wedge", "slow-leak"):
            raise ValueError(f"unknown chaos kind {kind!r}")
        self._push(at_s, "chaos", (kind, worker, params))

    def _push(self, at_s: float, kind: str, payload: object) -> None:
        self._eseq += 1
        heapq.heappush(self._events, (at_s, self._eseq, kind, payload))

    # -- engine ---------------------------------------------------------
    def _emit(self, message: dict) -> None:
        self.responses.append(message)
        self.transcript.append(encode_message(message).rstrip("\n"))

    def _dispatch(self) -> None:
        """Start everything startable: remote slots and local threads.

        ``_can_start`` gates pooled ops on supervisor-idle slots and
        local ops on ``in_flight_local``; no runtime-side busy counter
        is needed.  Completion events carry the request; the clock is
        advanced to start + cost before the handler runs, so
        cooperative deadline polls inside it observe the service time.
        """
        while True:
            action = self.core.next_action()
            if action is None:
                return
            request, disposition = action
            if disposition == "expired":
                self._emit(self.core.expire(request))
                continue
            if disposition == "remote":
                worker_id = request.worker_id
                self._push(
                    self._now + request.cost_s,
                    "remote-complete",
                    (worker_id, self.core.pool.epoch(worker_id), request),
                )
            else:
                self._push(self._now + request.cost_s, "complete", request)

    def _schedule_restart(self, worker_id: int, at_s: float) -> None:
        self._push(
            at_s, "worker-up", (worker_id, self.core.pool.epoch(worker_id))
        )

    def _apply_chaos(self, chaos_kind: str, worker_id: int, params) -> None:
        pool = self.core.pool
        state = pool.workers[worker_id]
        if chaos_kind == "worker-crash":
            if state.state == "down":
                return  # already dead; nothing to crash
            delivery, decision = self.core.worker_failed(worker_id, "crash")
            if delivery is not None:
                self._emit(delivery[1])
            self._schedule_restart(worker_id, decision.restart_at_s)
        elif chaos_kind == "worker-wedge":
            if state.state != "busy":
                return  # a wedge only bites mid-request
            epoch = pool.epoch(worker_id)
            self._wedged[worker_id] = epoch
            self._push(
                self._now + self.core.config.heartbeat_timeout_s,
                "wedge-detect",
                (worker_id, epoch),
            )
        elif chaos_kind == "slow-leak":
            self._leak[worker_id] = float(params.get("growth_kb", 65536.0))

    def _remote_complete(self, worker_id, epoch, request) -> None:
        pool = self.core.pool
        if pool.epoch(worker_id) != epoch:
            return  # the worker died mid-request; supervision answered it
        if self._wedged.get(worker_id) == epoch:
            return  # wedged: this completion never happens
        rss = None
        if worker_id in self._leak:
            self._rss[worker_id] = (
                self._rss.get(worker_id, 0.0) + self._leak[worker_id]
            )
            rss = self._rss[worker_id]
        self._emit(self.core.execute(request))
        if self.core.pool_completed(request, rss_kb=rss) == "recycle":
            restart_at = self.core.pool_recycled(worker_id, rss_kb=rss)
            self._rss[worker_id] = 0.0
            self._schedule_restart(worker_id, restart_at)

    def run(self) -> List[dict]:
        """Drain the event heap; returns every response in order."""
        for worker_id in sorted(self.core.pool.workers):
            self.core.pool_worker_started(worker_id)
        while self._events:
            at_s, _seq, kind, payload = heapq.heappop(self._events)
            self._now = max(self._now, at_s)
            if kind == "arrival":
                _request, responses = self.core.submit(
                    payload, reply_to=None, arrival_s=self._now
                )
                for _reply_to, message in responses:
                    self._emit(message)
            elif kind == "complete":
                self._emit(self.core.execute(payload))
            elif kind == "remote-complete":
                self._remote_complete(*payload)
            elif kind == "chaos":
                self._apply_chaos(*payload)
            elif kind == "wedge-detect":
                worker_id, epoch = payload
                if (
                    self.core.pool.epoch(worker_id) == epoch
                    and self._wedged.get(worker_id) == epoch
                ):
                    del self._wedged[worker_id]
                    delivery, decision = self.core.worker_failed(
                        worker_id, "wedge"
                    )
                    if delivery is not None:
                        self._emit(delivery[1])
                    self._schedule_restart(
                        worker_id, decision.restart_at_s
                    )
            elif kind == "worker-up":
                worker_id, epoch = payload
                if (
                    self.core.pool.epoch(worker_id) == epoch
                    and self.core.pool.workers[worker_id].state == "down"
                ):
                    self.core.pool_worker_started(worker_id)
            elif kind == "drain":
                self.core.begin_drain()
                for _reply_to, message in self.core.drain_responses():
                    self._emit(message)
            self._dispatch()
        return self.responses

    def transcript_text(self) -> str:
        """The full run as one deterministic NDJSON document."""
        return "\n".join(self.transcript) + "\n"


# ----------------------------------------------------------------------
# Production asyncio runtime.
# ----------------------------------------------------------------------
class AsyncServiceRuntime:
    """The real daemon: NDJSON socket service + HTTP metrics/health."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = None,
        ready_file: Optional[str] = None,
        metrics_path: Optional[str] = None,
        trace_path: Optional[str] = None,
    ):
        import time

        config = config or ServiceConfig()
        # Real requests get real resource accounting; the simulated
        # runtime leaves this off so its transcripts stay byte-identical
        # (thread CPU time is not a function of the logical clock).
        config.measure_resources = True
        self.core = ServiceCore(config=config, clock=time.monotonic)
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.http_port = http_port
        self.ready_file = ready_file
        self.metrics_path = metrics_path
        self.trace_path = trace_path
        self._drain_requested = False
        #: Per open connection: lines read from it and not yet answered.
        self._owed: Dict[object, int] = {}

    # -- socket protocol ------------------------------------------------
    async def _serve_client(self, reader, writer) -> None:
        import asyncio

        loop = asyncio.get_running_loop()
        self._owed[writer] = 0
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # No newline within the bound, so nothing after it
                    # can be framed either: answer, then hang up.
                    refusal = error_response(
                        None, "frame-too-large",
                        f"request line exceeds {MAX_FRAME_BYTES} bytes",
                    )
                    self.core.audit.event(
                        "reject", at_s=self.core.clock(), **refusal["error"]
                    )
                    self._owed[writer] += 1
                    await self._send(writer, refusal)
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace")
                if not text.strip():
                    continue
                # Submission runs on its own small executor: admitting a
                # campaign resolves its element claim through the spec
                # cache, and a cold-cache compile takes seconds — it must
                # never stall the event loop (other clients, dispatch,
                # /metrics, /healthz).  ServiceCore is lock-protected, so
                # concurrent submits and finishes are safe.
                try:
                    request, responses = await loop.run_in_executor(
                        self._submit_executor,
                        self.core.submit, text, writer,
                    )
                except RuntimeError:
                    break  # executor shut down mid-drain; daemon is exiting
                self._owed[writer] += 1  # every line is answered once
                for reply_to, message in responses:
                    await self._send(reply_to or writer, message)
                if request is not None:
                    self._kick()
            # A client that half-closes after sending still reads: its
            # answers (a drain's refusals included) go out before we close.
            while self._owed[writer] > 0:
                self._answered.clear()
                await self._answered.wait()
        finally:
            del self._owed[writer]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _send(self, writer, message: dict) -> None:
        if writer is None:
            return
        try:
            writer.write(encode_message(message).encode("utf-8"))
            await writer.drain()
        except (ConnectionResetError, OSError):
            pass  # client went away; response already accounted for
        if writer in self._owed:
            self._owed[writer] -= 1
            self._answered.set()

    def _kick(self) -> None:
        """Wake the dispatcher: queued work may now be startable."""
        self._work_available.set()

    async def _dispatcher(self) -> None:
        """Moves startable requests onto pool workers and threads."""
        import asyncio

        loop = asyncio.get_running_loop()

        def _done(request: ServiceRequest, task: "asyncio.Future") -> None:
            message = task.result()
            asyncio.ensure_future(self._send(request.reply_to, message))
            self._kick()

        while not self._stopped:
            await self._work_available.wait()
            self._work_available.clear()
            while True:
                action = self.core.next_action()
                if action is None:
                    break
                request, disposition = action
                if disposition == "expired":
                    await self._send(
                        request.reply_to, self.core.expire(request)
                    )
                    continue
                if disposition == "remote":
                    self._pool.dispatch(request)
                    continue
                future = loop.run_in_executor(
                    self._executor, self.core.execute, request
                )
                future.add_done_callback(
                    lambda task, request=request: _done(request, task)
                )

    async def _pool_monitor(self) -> None:
        """Kill workers that wedge (stale heartbeat) or overrun their
        request deadline past the grace; the supervisor's verdicts, the
        pool's SIGKILLs — recovery then flows through the worker's exit
        path exactly as a spontaneous crash would."""
        import asyncio

        interval = max(0.05, self.core.config.heartbeat_interval_s)
        while not self._stopped:
            await asyncio.sleep(interval)
            if self._pool._stopping:
                continue
            for worker_id, reason in self.core.pool.overdue_workers(
                self.core.clock()
            ):
                self._pool.kill_worker(worker_id, reason)

    # -- HTTP metrics/health --------------------------------------------
    async def _read_http_path(self, reader) -> Optional[str]:
        """The request's path, once its headers are drained; None past
        :data:`MAX_HTTP_LINE_BYTES` in a line or
        :data:`MAX_HTTP_HEADERS` header lines."""
        try:
            request_line = await reader.readline()
            for _header in range(MAX_HTTP_HEADERS + 1):
                if await reader.readline() in (b"\r\n", b"\n", b""):
                    parts = request_line.decode("latin-1").split()
                    return parts[1] if len(parts) >= 2 else "/"
        except ValueError:  # a line past the reader's limit
            pass
        return None

    async def _serve_http(self, reader, writer) -> None:
        try:
            path = await self._read_http_path(reader)
            if path is None:
                refusal = error_response(
                    None, "header-too-large",
                    f"request line or header longer than "
                    f"{MAX_HTTP_LINE_BYTES} bytes, or more than "
                    f"{MAX_HTTP_HEADERS} headers",
                )
                self.core.audit.event(
                    "reject", at_s=self.core.clock(), **refusal["error"]
                )
                body = json.dumps(refusal, sort_keys=True) + "\n"
                content_type = "application/json"
                status = "431 Request Header Fields Too Large"
            elif path.startswith("/metrics"):
                o = obs.current()
                if o.enabled:
                    o.publish_tracer_stats()
                    self.core.slo.publish(o, self.core.clock())
                    body = o.metrics.to_prometheus()
                else:
                    body = "# metrics disabled\n"
                content_type = "text/plain; version=0.0.4; charset=utf-8"
                status = "200 OK"
            elif path.startswith("/slo"):
                body = (
                    json.dumps(
                        self.core.slo.snapshot(self.core.clock()),
                        sort_keys=True,
                    )
                    + "\n"
                )
                content_type = "application/json"
                status = "200 OK"
            elif path.startswith("/healthz"):
                snapshot = self.core.status_snapshot()
                slo = self.core.slo.healthz_summary(self.core.clock())
                snapshot["slo"] = slo
                if self.core.draining:
                    # Drain is distinct and non-200: supervisors and
                    # load balancers must stop routing *before* the
                    # socket closes.
                    snapshot["status"] = "draining"
                    status = "503 Service Unavailable"
                elif slo["alerting"] is not None:
                    snapshot["status"] = "degraded"
                    status = "200 OK"
                else:
                    snapshot["status"] = "ok"
                    status = "200 OK"
                body = json.dumps(snapshot, sort_keys=True) + "\n"
                content_type = "application/json"
            else:
                body = "not found\n"
                content_type = "text/plain"
                status = "404 Not Found"
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (ConnectionResetError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    # -- lifecycle ------------------------------------------------------
    def request_drain(self) -> None:
        self._drain_requested = True

    @staticmethod
    def _remove_stale_socket(path: str) -> None:
        """Unlink a leftover socket file unless a live daemon owns it.

        asyncio does not remove the socket file on ``server.close()``,
        and a crash leaves one behind too; without this, every restart
        with the same ``--socket`` fails with EADDRINUSE.  A file that
        still answers connections belongs to a running daemon and is
        left alone (startup fails loudly instead of stealing it).
        """
        import os
        import socket
        import stat

        try:
            mode = os.stat(path).st_mode
        except OSError:
            return  # nothing there: the normal first-boot case
        if not stat.S_ISSOCK(mode):
            raise OSError(
                f"{path} exists and is not a socket; refusing to replace it"
            )
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(0.25)
        try:
            probe.connect(path)
        except OSError:
            AsyncServiceRuntime._unlink_socket(path)  # stale: no listener
        else:
            raise OSError(
                f"{path}: another daemon is already listening"
            )
        finally:
            probe.close()

    @staticmethod
    def _unlink_socket(path: str) -> None:
        import os

        try:
            os.unlink(path)
        except OSError:
            pass

    async def _run_async(self) -> int:
        import asyncio
        import signal

        self._stopped = False
        self._work_available = asyncio.Event()
        self._answered = asyncio.Event()
        loop = asyncio.get_running_loop()
        if self.socket_path:
            # Before the fork: a refused socket must not cost N workers.
            self._remove_stale_socket(self.socket_path)
        # Worker processes fork next, while this process is still
        # (nearly) single-threaded — forking after the executors spin up
        # would copy a process image with live worker threads.
        from repro.service.pool import ProcessWorkerPool

        self._pool = ProcessWorkerPool(self)
        self._pool.start(loop)
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=self.core.config.workers,
            thread_name_prefix="nmsld-worker",
        )
        # Dedicated threads for admission so a spec compile during
        # campaign planning cannot wait behind (or freeze) handler work.
        self._submit_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="nmsld-submit"
        )
        drain_event = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, drain_event.set)
            except (NotImplementedError, RuntimeError):
                pass

        if self.socket_path:
            server = await asyncio.start_unix_server(
                self._serve_client, path=self.socket_path,
                limit=MAX_FRAME_BYTES,
            )
            endpoint = self.socket_path
        else:
            server = await asyncio.start_server(
                self._serve_client, host=self.host, port=self.port,
                limit=MAX_FRAME_BYTES,
            )
            self.port = server.sockets[0].getsockname()[1]
            endpoint = f"{self.host}:{self.port}"

        http_server = None
        if self.http_port is not None:
            http_server = await asyncio.start_server(
                self._serve_http, host=self.host, port=self.http_port,
                limit=MAX_HTTP_LINE_BYTES,
            )
            self.http_port = http_server.sockets[0].getsockname()[1]

        if self.ready_file:
            import os
            from pathlib import Path

            # Write-then-rename so a supervisor polling for the file
            # never observes a partially written payload.
            ready = Path(self.ready_file)
            tmp = ready.with_name(ready.name + ".tmp")
            tmp.write_text(
                json.dumps(
                    {
                        "endpoint": endpoint,
                        "http_port": self.http_port,
                        "pid": os.getpid(),
                    },
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, ready)

        dispatcher = asyncio.ensure_future(self._dispatcher())
        monitor = asyncio.ensure_future(self._pool_monitor())
        _log.info(
            "listening on %s (http: %s)", endpoint, self.http_port
        )

        try:
            # Serve until a drain is requested (signal/request_drain()).
            while not (drain_event.is_set() or self._drain_requested):
                try:
                    await asyncio.wait_for(drain_event.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    pass

            # Graceful drain: stop admitting, answer the queue, finish
            # in-flight work (workers get --drain-grace seconds, then
            # SIGKILL with their requests answered), flush, exit 0.
            self.core.begin_drain()
            server.close()
            if self.socket_path:
                self._unlink_socket(self.socket_path)
            for reply_to, message in self.core.drain_responses():
                await self._send(reply_to, message)
            await self._pool.stop(self.core.config.drain_grace_s)
            while self.core.in_flight > 0:
                await asyncio.sleep(0.05)
            # Only now is nothing owed to a half-closed connection, whose
            # handler waits for that before it closes.
            await server.wait_closed()
            self._stopped = True
            self._kick()  # unblock the dispatcher to observe _stopped
            await asyncio.wait_for(dispatcher, timeout=5.0)
            # Asleep until its next heartbeat check: nothing is left to
            # watch, so wake it rather than wait it out.
            monitor.cancel()
            try:
                await monitor
            except asyncio.CancelledError:
                pass
            if http_server is not None:
                http_server.close()
                await http_server.wait_closed()
            self._submit_executor.shutdown(wait=True)
            self._executor.shutdown(wait=True)
            if self.metrics_path:
                self._flush_metrics()
            if self.trace_path:
                self._flush_trace()
            self.core.audit.close()
            _log.info(
                "drained cleanly after %d responses",
                self.core.responses_total,
            )
            return 0
        finally:
            # Every exit path — clean drain, a raised exception, a
            # cancelled task — leaves no stale socket file behind.
            if self.socket_path:
                self._unlink_socket(self.socket_path)

    def _flush_metrics(self) -> None:
        """Final Prometheus scrape written to disk on drain."""
        from pathlib import Path

        o = obs.current()
        if o.enabled and o.metrics is not None:
            o.publish_tracer_stats()
            self.core.slo.publish(o, self.core.clock())
            Path(self.metrics_path).write_text(
                o.metrics.to_prometheus(), encoding="utf-8"
            )

    def _flush_trace(self) -> None:
        """Final span export (JSONL or Chrome by suffix) on drain."""
        o = obs.current()
        if o.enabled and o.tracer is not None:
            o.tracer.write(self.trace_path)

    def run(self) -> int:
        import asyncio

        return asyncio.run(self._run_async())
