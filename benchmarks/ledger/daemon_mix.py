"""``daemon_mix_1k`` — the warm management plane at a non-toy size.

A real ``nmsld --socket … --workers 1`` serves the 1,000-domain text
``A`` and a copy ``B`` with one more silent domain.  Callers (CI gates,
``nmslc client``) wait for their reply, so the load is closed-loop, all
of it from this one process and never on more connections than the host
has processors.  No ``chaos_sleep_s``, no stall: every request does real
CPU-bound work.

* set-up — write both files, boot, ``check A`` (twice, until
  ``warm: true``), ``check B``, ``diff A B``, ``analyze A``;
* phase A — sequential ``check A`` on one connection (the headline
  operation), in equal blocks before, between and after the rounds of
  phase B, so that its median is taken over the whole measured part of
  the run and not over one few-second window of the host;
* phase B — a seeded fixed script on two connections, whole rounds of
  91 check / 25 ping / 5 compile / 2 analyze / 2 diff;
* phase C (traced run only) — rewrite ``A`` with one more silent domain
  and time ``check A`` to its verdict: a cold recompile, the same path
  ``cold_text_1k`` gates.

Protocol, admission queue, pool hop and ``SpecCache`` do most of the
per-request work here and none in the other three workloads.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import catalogue
from .cold_text import generate
from .common import Context, Outcome, child_env, python, timed
from .inputs import (
    MIX_ROUND_REQUESTS,
    digest_of,
    extra_silent_domains,
    mix_script,
)
from .stats import median, percentile, tail

NOMINAL_PHASE_A = 450
NOMINAL_ROUNDS = 2
#: Requests per connection of the check-only scaling runs (traced only).
NOMINAL_SCALING = 200
BOOT_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0
CONNECTIONS = next(
    w.connections for w in catalogue.WORKLOADS if w.name == "daemon_mix_1k"
)


class Daemon:
    """One ``nmsld`` child on a unix socket inside the work directory."""

    def __init__(self, workdir: Path, workers: int, name: str = "nmsld"):
        self.workers = workers
        # Relative paths: a unix socket address has ~100 bytes.
        base = Path(os.path.relpath(workdir))
        self.socket_path = str(base / f"{name}.sock")
        self._ready = base / f"{name}.ready.json"
        self._stderr_path = base / f"{name}.err"
        self._process: Optional[subprocess.Popen] = None
        self.pid: Optional[int] = None

    def __enter__(self) -> "Daemon":
        self._stderr = open(self._stderr_path, "wb")
        self._process = subprocess.Popen(
            [
                python(), "-m", "repro.service.daemon",
                "--socket", self.socket_path,
                "--workers", str(self.workers),
                "--ready-file", str(self._ready),
            ],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not self._ready.exists():
            if self._process.poll() is not None or time.monotonic() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError(
                    "nmsld did not come up: "
                    + self._stderr_path.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.005)
        self.pid = json.loads(self._ready.read_text(encoding="utf-8"))["pid"]
        return self

    def __exit__(self, *_exc) -> None:
        process = self._process
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._stderr.close()

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(
            socket_path=self.socket_path, timeout_s=REQUEST_TIMEOUT_S
        )

    def peak_rss_mb(self, client) -> float:
        """High-water RSS of the daemon plus its pool workers."""
        status = client.request("status")["result"]
        pids = [self.pid] + [
            worker["pid"] for worker in (status.get("pool") or {}).get("workers", [])
            if worker.get("pid")
        ]
        return sum(_vm_hwm_mb(pid) for pid in pids)


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Session:
    """Requests against one daemon, each answer checked on arrival."""

    def __init__(self, outcome: Outcome, specs: Dict[str, str],
                 expected: Dict[str, int], n_systems: int, per_domain: int):
        self.outcome = outcome
        self.specs = specs
        self.expected = expected
        self.n_systems = n_systems
        self.per_domain = per_domain
        self.frames: List[Tuple[dict, dict]] = []
        self.record_frames = False
        self._lock = threading.Lock()

    def params(self, op: str, spec: str) -> dict:
        if op == "ping":
            return {}
        if op == "diff":
            return {"old": self.specs["A"], "new": self.specs["B"]}
        return {"spec": self.specs[spec]}

    def send(self, client, op: str, spec: str = "A") -> Tuple[float, dict]:
        params = self.params(op, spec)
        start = time.perf_counter()
        response = client.request(op, params)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.outcome.expect(
                self.answer_ok(op, spec, response),
                f"{op} {spec}: {json.dumps(response, sort_keys=True)[:300]}",
            )
            if self.record_frames:
                self.frames.append(
                    ({"id": response.get("id"), "op": op, "params": params}, response)
                )
        return elapsed, response

    def answer_ok(self, op: str, spec: str, response: dict) -> bool:
        if not response.get("ok"):
            return False
        result = response["result"]
        if op == "check":
            return result["inconsistencies"] == self.expected[spec]
        if op == "diff":
            return (
                result["diff_entries"] == 1
                and len(result["impacted_elements"]) == self.per_domain
            )
        if op == "compile":
            return result["counts"]["systems"] == self.n_systems
        if op == "analyze":
            return isinstance(result["findings"], int)
        return result == {"pong": True}


def run_mix(daemon: Daemon, session: Session, lanes) -> Tuple[float, Dict[str, List[float]]]:
    """Phase B: one closed loop per lane, all started together."""
    latencies: Dict[str, List[float]] = {}
    errors: List[Exception] = []
    barrier = threading.Barrier(len(lanes) + 1)

    def drive(lane) -> None:
        try:
            with daemon.client() as client:
                barrier.wait()
                mine: List[Tuple[str, float]] = []
                for op, spec in lane:
                    elapsed, _response = session.send(client, op, spec)
                    mine.append((op, elapsed))
            with session._lock:
                for op, elapsed in mine:
                    latencies.setdefault(op, []).append(elapsed)
        except Exception as exc:  # re-raised on the calling thread below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=drive, args=(lane,)) for lane in lanes]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"mix client failed: {errors[0]!r}")
    return wall, latencies


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    rec = ctx.recorder
    rounds = ctx.reps(NOMINAL_ROUNDS)
    # Phase A is split into one block more than phase B has rounds.
    block = ctx.reps(NOMINAL_PHASE_A, minimum=100) // (rounds + 1)
    per_lane = ctx.reps(NOMINAL_SCALING, minimum=50)
    silent_b, silent_c = extra_silent_domains(ctx.sizes, ctx.seed, 2)

    # ---- set-up.
    setup_start = time.perf_counter()
    path_a = ctx.workdir / "a.nmsl"
    path_b = ctx.workdir / "b.nmsl"
    internet_a, _ = generate(ctx, outcome, path_a)
    internet_b, _ = generate(ctx, outcome, path_b, extra_silent=(silent_b,))
    parameters = internet_a.parameters
    session = Session(
        outcome,
        specs={"A": str(path_a), "B": str(path_b)},
        expected={
            "A": internet_a.expected_inconsistent_references(),
            "B": internet_b.expected_inconsistent_references(),
        },
        n_systems=parameters.n_systems,
        per_domain=parameters.systems_per_domain,
    )
    script = mix_script(ctx.seed, rounds, CONNECTIONS)
    outcome.hashes["mix_script"] = digest_of(script)
    outcome.expect(
        script == mix_script(ctx.seed, rounds, CONNECTIONS),
        "mix script: same seed, different requests",
    )
    with Daemon(ctx.workdir, workers=1) as daemon, daemon.client() as client:
        _elapsed, cold = session.send(client, "check", "A")
        _elapsed, warm = session.send(client, "check", "A")
        outcome.expect(
            cold["ok"] and warm["ok"]
            and not cold["result"]["warm"] and warm["result"]["warm"],
            "check A did not go cold then warm",
        )
        session.send(client, "check", "B")
        session.send(client, "diff")
        session.send(client, "analyze", "A")
        setup_s = time.perf_counter() - setup_start

        # ---- phase A (the headline operation, one connection) around
        # ---- the rounds of phase B (the scripted mix, two connections).
        session.record_frames = ctx.trace
        checks: List[float] = []
        mix_wall = 0.0
        mix: Dict[str, List[float]] = {}

        def check_block() -> None:
            with rec.span("daemon_mix_1k.phase_a"):
                for _ in range(block):
                    with rec.span("service.core", op="check"):
                        elapsed, _response = session.send(client, "check", "A")
                    checks.append(elapsed)

        check_block()
        for lanes in script:
            with rec.span("daemon_mix_1k.phase_b"):
                wall, latencies = run_mix(daemon, session, lanes)
            mix_wall += wall
            for op, samples in latencies.items():
                mix.setdefault(op, []).extend(samples)
            check_block()
        session.record_frames = False
        requests = rounds * MIX_ROUND_REQUESTS
        peak_rss = daemon.peak_rss_mb(client)

        if not ctx.trace:
            outcome.put("setup_s", setup_s, 1)
            outcome.put("op_p50_ms", median(checks) * 1e3, len(checks))
            outcome.put("ops_per_s", requests / mix_wall, requests)
            outcome.put("peak_rss_mb", peak_rss, 1)
            return outcome

        pings: List[float] = []
        compiles: List[float] = []
        for _ in range(50):
            with timed(rec, "service.core", pings, op="ping"):
                session.send(client, "ping")
        for _ in range(50):
            with timed(rec, "service.core", compiles, op="compile"):
                session.send(client, "compile", "A")
        with rec.span("daemon_mix_1k.scaling", workers=1):
            rate_1w = _check_rate(daemon, session, per_lane)

        # ---- phase C: what an operator's edit costs through the daemon.
        internet_c, _ = generate(
            ctx, outcome, path_a, extra_silent=(silent_c,), label="a-edited.nmsl"
        )
        session.expected["A"] = internet_c.expected_inconsistent_references()
        edit_checks: List[float] = []
        with timed(rec, "service.core", edit_checks, op="check", phase="c"):
            session.send(client, "check", "A")

    with rec.span("daemon_mix_1k.scaling", workers=2):
        rate_2w = _scaling_two_workers(ctx, session, per_lane)
    inproc = _in_process(ctx, outcome, session)

    put = outcome.put
    heavy = len(mix["analyze"]) + len(mix["diff"])
    slow = sum(
        sample > 3 * median(mix[op])
        for op in ("analyze", "diff") for sample in mix[op]
    )
    tail_p, tail_value = tail(checks)
    outcome.counts["check_tail_percentile"] = int(tail_p)
    put("service.protocol.decode_us", inproc["decode_us"], len(session.frames))
    put("service.protocol.encode_us", inproc["encode_us"], len(session.frames))
    put("service.protocol.response_bytes", inproc["response_bytes"], len(session.frames))
    put("service.handlers.spec_cache_hit_ms", inproc["spec_cache_hit_ms"], inproc["n"])
    put("service.handlers.check_inproc_ms", inproc["check_inproc_ms"], inproc["n"])
    put("service.handlers.edit_check_s", edit_checks[0], 1)
    put("service.core.ping_p50_ms", median(pings) * 1e3, len(pings))
    put("service.core.overhead_ms", median(checks) * 1e3 - inproc["check_inproc_ms"])
    put("service.core.check_tail_ms", tail_value * 1e3, len(checks))
    put("service.core.check_mix_p99_ms", percentile(mix["check"], 99) * 1e3, len(mix["check"]))
    put("service.core.diff_p50_s", median(mix["diff"]), len(mix["diff"]))
    put("service.core.slow_op_share", slow / heavy, heavy)
    put(
        "service.pool.hop_ms",
        (median(compiles) - median(pings)) * 1e3 - inproc["spec_cache_hit_ms"],
        len(compiles),
    )
    put("service.pool.scaling_2w", rate_2w / rate_1w)
    put("analysis.run_s", inproc["analysis_s"])
    put("analysis.diagnostics", inproc["diagnostics"])
    # The same handler call timed by its span and by a clock inside it.
    put("ledger.trace_overhead_ratio", inproc["span_over_plain"])
    put("ledger.span_coverage", inproc["coverage"])
    return outcome


def _check_rate(daemon: Daemon, session: Session, per_lane: int) -> float:
    """Check-only requests per second over CONNECTIONS closed loops."""
    lanes = [[("check", "A")] * per_lane for _ in range(CONNECTIONS)]
    wall, _latencies = run_mix(daemon, session, lanes)
    return CONNECTIONS * per_lane / wall


def _scaling_two_workers(ctx: Context, session: Session, per_lane: int) -> float:
    """The same check-only load against ``--workers 2``, both workers warm."""
    with Daemon(ctx.workdir, workers=2, name="nmsld2") as daemon:
        # Two concurrent cold checks: affinity sends the second to the
        # idle worker, so each worker compiles A once.
        _check_rate(daemon, session, 2)
        return _check_rate(daemon, session, per_lane)


def _in_process(ctx: Context, outcome: Outcome, session: Session) -> dict:
    """The handler and protocol layers without the daemon around them."""
    from repro.analysis import default_registry
    from repro.service.core import ServiceRequest
    from repro.service.handlers import ServiceHandlers
    from repro.service.protocol import encode_message, parse_request

    rec = ctx.recorder
    handlers = ServiceHandlers()
    spec = session.specs["A"]
    with rec.span("daemon_mix_1k.in_process") as root:
        with rec.span("service.handlers", call="cache.get", cold=True):
            cached = handlers.cache.get(spec)
        hits: List[float] = []
        for _ in range(20):
            with timed(rec, "service.handlers", hits, call="cache.get"):
                handlers.cache.get(spec)
        request = ServiceRequest(
            id="ledger", op="check", params={"spec": spec}, cls="interactive",
            rank=0, deadline=None, deadline_s=None, cost_s=0.0, arrival_s=0.0, seq=0,
        )
        handlers.execute(request)  # cold: builds the checker
        executes: List[float] = []
        plain: List[float] = []
        for _ in range(20):
            with rec.span("service.handlers", call="execute") as span:
                start = time.perf_counter()
                result = handlers.execute(request)
                plain.append(time.perf_counter() - start)
            executes.append(span.duration)
        outcome.expect(
            result["inconsistencies"] == session.expected["A"],
            "in-process check: wrong count",
        )
        with rec.span("analysis") as analysis_span:
            report = default_registry().run(
                cached.compiler.analysis_context(cached.result)
            )
        decodes: List[float] = []
        encodes: List[float] = []
        sizes: List[int] = []
        for message, response in session.frames:
            line = encode_message(message)
            with timed(rec, "service.protocol", decodes, call="parse_request"):
                parse_request(line)
            with timed(rec, "service.protocol", encodes, call="encode_message"):
                wire = encode_message(response)
            sizes.append(len(wire.encode("utf-8")))
    return {
        "n": len(hits),
        "spec_cache_hit_ms": median(hits) * 1e3,
        "check_inproc_ms": median(executes) * 1e3,
        "span_over_plain": median(executes) / median(plain),
        "analysis_s": analysis_span.duration,
        "diagnostics": len(report.diagnostics),
        "decode_us": median(decodes) * 1e6,
        "encode_us": median(encodes) * 1e6,
        "response_bytes": median(sizes),
        "coverage": rec.coverage(root),
    }
