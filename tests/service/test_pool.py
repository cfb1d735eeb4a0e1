"""The worker pool: supervision, crash recovery, replay, quarantine.

Three layers of coverage, mirroring the module's design:

* pure units — fingerprinting, the poison registry, and the
  :class:`WorkerSupervisor` state machine on a hand-held logical clock;
* the simulated runtime — replay and quarantine flowing through the
  full scheduler deterministically;
* the real daemon — ``kill -9`` of live worker processes, observed
  through the response stream, ``/healthz`` and the audit log.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.service import ServiceConfig, SimulatedServiceRuntime
from repro.service.core import ServiceCore
from repro.service.pool import (
    PoisonRegistry,
    WorkerSupervisor,
    request_fingerprint,
)

from tests.service.test_daemon import _daemon_env, _stop_daemon

REPO_ROOT = Path(__file__).resolve().parents[2]
CAMPUS = str(REPO_ROOT / "examples" / "campus.nmsl")


def _request(op="check", params=None, deadline=None, request_id="r1"):
    """The slice of ServiceRequest the supervisor consumes."""
    return SimpleNamespace(
        id=request_id, op=op, params=params or {"spec": CAMPUS},
        cls="interactive", deadline=deadline, worker_id=None, attempts=0,
        reply_to=None, trace=None,
    )


def _config(**overrides):
    overrides.setdefault("workers",2)
    return ServiceConfig(**overrides)


class TestRequestFingerprint:
    def test_stable_and_distinguishes_ops(self):
        params = {"spec": CAMPUS}
        assert request_fingerprint("check", params) == request_fingerprint(
            "check", {"spec": CAMPUS}
        )
        assert request_fingerprint("check", params) != request_fingerprint(
            "analyze", params
        )

    def test_spec_content_contributes(self, tmp_path):
        spec = tmp_path / "a.nmsl"
        spec.write_text("one")
        before = request_fingerprint("check", {"spec": str(spec)})
        spec.write_text("two")
        after = request_fingerprint("check", {"spec": str(spec)})
        # Editing the poisonous spec changes the fingerprint — and so
        # clears its quarantine.
        assert before != after

    def test_each_listed_spec_content_contributes(self, tmp_path):
        first, second = tmp_path / "a.nmsl", tmp_path / "b.nmsl"
        first.write_text("one")
        second.write_text("two")
        params = {"specs": [str(first), str(second)]}
        before = request_fingerprint("analyze", params)
        assert request_fingerprint("analyze", params) == before
        second.write_text("three")
        # A multi-spec analyze of an edited spec is a new request, as a
        # single-spec one is.
        assert request_fingerprint("analyze", params) != before

    def test_unreadable_spec_still_fingerprints(self):
        fingerprint = request_fingerprint(
            "check", {"spec": "/no/such/file.nmsl"}
        )
        assert len(fingerprint) == 64


class TestPoisonRegistry:
    def test_quarantines_at_threshold(self):
        registry = PoisonRegistry(threshold=2)
        assert registry.record_kill("f1", "check", now=1.0) == 1
        assert not registry.is_quarantined("f1")
        assert registry.record_kill("f1", "check", now=2.0) == 2
        assert registry.is_quarantined("f1")
        assert len(registry) == 1
        snapshot = registry.snapshot()
        assert snapshot["size"] == 1
        assert snapshot["entries"][0]["op"] == "check"


class TestWorkerSupervisor:
    def test_affinity_routes_same_spec_to_same_worker(self):
        supervisor = WorkerSupervisor(_config(workers=4))
        for worker_id in range(4):
            supervisor.worker_started(worker_id, now=0.0)
        first = _request()
        chosen = supervisor.assign(first, now=1.0)
        supervisor.completed(chosen, now=2.0)
        again = _request(request_id="r2")
        assert supervisor.assign(again, now=3.0) == chosen

    def test_a_multi_spec_analyze_goes_where_its_first_spec_is(self):
        supervisor = WorkerSupervisor(_config(workers=4))
        for worker_id in range(4):
            supervisor.worker_started(worker_id, now=0.0)
        # Literal names: "a.nmsl" and the op name hash to different
        # workers of four.
        single = _request("analyze", {"spec": "a.nmsl"})
        chosen = supervisor.assign(single, now=1.0)
        supervisor.completed(chosen, now=2.0)
        several = _request(
            "analyze", {"specs": ["a.nmsl", "b.nmsl"]}, request_id="r2"
        )
        assert supervisor.assign(several, now=3.0) == chosen

    def test_spills_to_lowest_idle_when_preferred_busy(self):
        supervisor = WorkerSupervisor(_config(workers=4))
        for worker_id in range(4):
            supervisor.worker_started(worker_id, now=0.0)
        preferred = supervisor.assign(_request(), now=1.0)
        spilled = supervisor.assign(_request(request_id="r2"), now=1.0)
        assert spilled != preferred
        assert spilled == min(
            w for w in range(4) if w != preferred
        )

    def test_exponential_backoff_with_cap_and_reset(self):
        config = _config(
            workers=1, restart_backoff_s=0.5, restart_backoff_cap_s=4.0
        )
        supervisor = WorkerSupervisor(config)
        supervisor.worker_started(0, now=0.0)
        backoffs = []
        for i in range(5):
            decision = supervisor.worker_failed(0, "crash", now=float(i))
            backoffs.append(decision.backoff_s)
            supervisor.worker_started(0, now=float(i) + 0.1)
        assert backoffs == [0.5, 1.0, 2.0, 4.0, 4.0]
        # A served request resets the streak.
        supervisor.assign(_request(), now=10.0)
        supervisor.completed(0, now=11.0)
        decision = supervisor.worker_failed(0, "crash", now=12.0)
        assert decision.backoff_s == 0.5

    def test_idempotent_request_replays_once_then_refuses(self):
        supervisor = WorkerSupervisor(_config(workers=1))
        supervisor.worker_started(0, now=0.0)
        request = _request(params={"spec": "/no/such.nmsl"})
        supervisor.assign(request, now=1.0)
        first = supervisor.worker_failed(0, "crash", now=2.0)
        assert first.action == "replay"
        assert first.kills == 1
        # A *different* request killing the restarted worker: its own
        # first kill, but this request's replay budget is spent.
        supervisor.worker_started(0, now=3.0)
        other = _request(
            params={"spec": "/other.nmsl"}, request_id="r9"
        )
        other.attempts = supervisor.config.replay_limit  # already replayed
        supervisor.assign(other, now=4.0)
        second = supervisor.worker_failed(0, "crash", now=5.0)
        assert second.action == "refuse"
        assert second.kind == "worker-lost"

    def test_second_kill_same_fingerprint_quarantines(self):
        supervisor = WorkerSupervisor(_config(workers=1))
        supervisor.worker_started(0, now=0.0)
        params = {"spec": "/poison.nmsl"}
        supervisor.assign(_request(params=params), now=1.0)
        assert supervisor.worker_failed(0, "crash", now=2.0).action == (
            "replay"
        )
        supervisor.worker_started(0, now=3.0)
        supervisor.assign(_request(params=params, request_id="r2"), now=4.0)
        decision = supervisor.worker_failed(0, "crash", now=5.0)
        assert decision.action == "refuse"
        assert decision.kind == "quarantined"
        assert decision.quarantined
        assert supervisor.registry.is_quarantined(decision.fingerprint)

    def test_non_idempotent_op_never_replays(self):
        supervisor = WorkerSupervisor(_config(workers=1))
        supervisor.worker_started(0, now=0.0)
        rollout = _request(op="rollout", params={"spec": "/s.nmsl"})
        supervisor.assign(rollout, now=1.0)
        decision = supervisor.worker_failed(0, "crash", now=2.0)
        assert decision.action == "refuse"
        assert decision.kind == "worker-lost"
        assert "not replayable" in decision.message

    def test_overdue_detection_overrun_and_wedge(self):
        config = _config(
            workers=2, heartbeat_timeout_s=5.0, deadline_grace_s=2.0
        )
        supervisor = WorkerSupervisor(config)
        supervisor.worker_started(0, now=0.0)
        supervisor.worker_started(1, now=0.0)
        # Literal spec strings, so the affinity hash (sha256 of the spec
        # parameter, mod 2) does not depend on where the repo is checked
        # out: "/over-budget.nmsl" prefers worker 0, "/silent.nmsl" 1.
        overrun = _request(
            params={"spec": "/over-budget.nmsl"},
            deadline=SimpleNamespace(at_s=10.0),
        )
        assert supervisor.assign(overrun, now=1.0) == 0
        supervisor.heartbeat(0, now=10.5)  # alive, just over-budget
        assert supervisor.overdue_workers(now=11.0) == []
        assert supervisor.overdue_workers(now=12.5) == [(0, "overrun")]
        # Worker 1: no deadline, but heartbeats went stale.
        wedged = _request(
            params={"spec": "/silent.nmsl"}, deadline=None, request_id="r2"
        )
        assert supervisor.assign(wedged, now=1.0) == 1
        supervisor.heartbeat(1, now=2.0)
        stale = supervisor.overdue_workers(now=12.5)
        assert (1, "wedge") in stale

    def test_rss_limit_triggers_recycle(self):
        config = _config(workers=1, worker_rss_limit_kb=1000.0)
        supervisor = WorkerSupervisor(config)
        supervisor.worker_started(0, now=0.0)
        supervisor.assign(_request(), now=1.0)
        assert supervisor.completed(0, now=2.0, rss_kb=500.0) is None
        supervisor.assign(_request(request_id="r2"), now=3.0)
        assert supervisor.completed(0, now=4.0, rss_kb=2000.0) == "recycle"
        restart_at = supervisor.recycle(0, now=4.0)
        assert restart_at == pytest.approx(4.0 + config.restart_backoff_s)
        assert supervisor.workers[0].state == "down"
        assert supervisor.recycles_total == 1

    def test_snapshot_shape(self):
        supervisor = WorkerSupervisor(_config(workers=2))
        supervisor.worker_started(0, now=0.0, pid=123)
        snapshot = supervisor.snapshot(now=1.0)
        assert snapshot["states"] == {"idle": 1, "busy": 0, "down": 1}
        assert snapshot["quarantine"]["size"] == 0
        assert snapshot["workers"][0]["pid"] == 123


class TestSimulatedPool:
    """Replay and quarantine through the full scheduler, pooled sim."""

    def _runtime(self, **overrides):
        overrides.setdefault("workers",1)
        overrides.setdefault("restart_backoff_s", 0.5)
        return SimulatedServiceRuntime(ServiceConfig(**overrides))

    def test_pooled_check_serves_normally(self):
        runtime = self._runtime(workers=2)
        runtime.offer(
            0.0, {"op": "check", "params": {"spec": CAMPUS}, "cost_s": 1.0}
        )
        responses = runtime.run()
        assert len(responses) == 1
        assert responses[0]["ok"] and responses[0]["result"]["consistent"]

    def test_crash_mid_check_replays_to_identical_result(self):
        baseline = self._runtime()
        baseline.offer(
            0.0, {"id": "c1", "op": "check", "params": {"spec": CAMPUS},
                  "cost_s": 1.0},
        )
        clean = baseline.run()[0]

        runtime = self._runtime()
        runtime.offer(
            0.0, {"id": "c1", "op": "check", "params": {"spec": CAMPUS},
                  "cost_s": 1.0},
        )
        runtime.inject_chaos(0.5, "worker-crash", worker=0)
        responses = runtime.run()
        assert len(responses) == 1
        replayed = responses[0]
        assert replayed["ok"]
        # The replayed envelope is byte-identical modulo timing (the
        # replay necessarily took longer on the clock).
        strip = lambda r: {k: v for k, v in r.items() if k != "timing"}
        assert json.dumps(strip(replayed), sort_keys=True) == json.dumps(
            strip(clean), sort_keys=True
        )
        assert replayed["timing"]["total_s"] > clean["timing"]["total_s"]
        assert runtime.core.pool.replays_total == 1
        assert runtime.core.pool.restarts_total == 1

    def test_second_crash_quarantines_then_refuses_at_admission(self):
        runtime = self._runtime()
        runtime.offer(
            0.0, {"id": "p1", "op": "check", "params": {"spec": CAMPUS},
                  "cost_s": 1.0},
        )
        runtime.inject_chaos(0.5, "worker-crash", worker=0)
        # The replay dispatches when the worker restarts at 1.0 and
        # would complete at 2.0; crash it again mid-flight.
        runtime.inject_chaos(1.5, "worker-crash", worker=0)
        # A later arrival of the same fingerprint: refused at admission.
        runtime.offer(
            5.0, {"id": "p2", "op": "check", "params": {"spec": CAMPUS}},
        )
        responses = runtime.run()
        assert len(responses) == 2
        first, second = responses
        assert not first["ok"]
        assert first["error"]["kind"] == "quarantined"
        assert first["error"]["diagnostic"] == "NM501"
        assert not second["ok"]
        assert second["error"]["kind"] == "quarantined"
        assert len(runtime.core.pool.registry) == 1
        kinds = [
            event["event"] for event in runtime.core.audit.tail(100)
        ]
        assert "quarantine" in kinds
        assert "worker-exit" in kinds

    def test_wedge_detected_after_heartbeat_timeout(self):
        runtime = self._runtime(heartbeat_timeout_s=3.0)
        runtime.offer(
            0.0, {"id": "w1", "op": "check", "params": {"spec": CAMPUS},
                  "cost_s": 10.0},
        )
        runtime.inject_chaos(1.0, "worker-wedge", worker=0)
        responses = runtime.run()
        assert len(responses) == 1
        # Wedge detected at 4.0; the request replays and completes.
        assert responses[0]["ok"]
        assert runtime.core.pool.restarts_total == 1

    def test_slow_leak_recycles_worker_gracefully(self):
        runtime = self._runtime(
            workers=1, worker_rss_limit_kb=100_000.0
        )
        for i in range(3):
            runtime.offer(
                float(i) * 2.0,
                {"id": f"c{i}", "op": "check",
                 "params": {"spec": CAMPUS}, "cost_s": 0.5},
            )
        runtime.inject_chaos(0.0, "slow-leak", worker=0, growth_kb=60_000.0)
        responses = runtime.run()
        # Every request answered ok; the worker was recycled (not
        # killed) when its synthetic rss crossed the limit.
        assert all(response["ok"] for response in responses)
        assert len(responses) == 3
        assert runtime.core.pool.recycles_total >= 1

    def test_rollout_survives_worker_crash_without_replay(self, tmp_path):
        """Campaigns never run on workers: a crash mid-rollout cannot
        touch them, and the journal shows exactly one apply_intent per
        element."""
        runtime = self._runtime(
            workers=2, journal_dir=str(tmp_path / "journals")
        )
        runtime.offer(
            0.0,
            {"id": "r1", "op": "rollout",
             "params": {"spec": CAMPUS,
                        "elements": ["gw.cs.campus.edu"]},
             "cost_s": 4.0},
        )
        runtime.inject_chaos(2.0, "worker-crash", worker=0)
        runtime.inject_chaos(2.0, "worker-crash", worker=1)
        responses = runtime.run()
        rollout = [r for r in responses if r.get("id") == "r1"][0]
        assert rollout["ok"], rollout
        assert rollout["result"]["complete"]
        journal = Path(rollout["result"]["journal"]).read_text()
        applies = [
            line for line in journal.splitlines()
            if json.loads(line).get("type") == "apply_intent"
        ]
        assert len(applies) == 1
        assert runtime.core.pool.replays_total == 0


# ----------------------------------------------------------------------
# The real pool: forked processes under a live daemon.
# ----------------------------------------------------------------------


@pytest.fixture
def pooled_daemon(tmp_path):
    """A live daemon with two supervised worker processes."""
    yield from serve(tmp_path, workers=2)


@pytest.fixture
def chaos_daemon(tmp_path):
    """The same, booted through the test-only launcher: its ``check``
    obeys ``chaos_sleep_s`` and ``chaos_exit``."""
    yield from serve(tmp_path, workers=2, module="tests.service.chaos_nmsld")


def serve(tmp_path, workers, module="repro.service.daemon"):
    """Boot a live daemon (*module* as ``python -m``) with *workers*
    worker processes; yield its endpoints, then drain it."""
    ready_file = tmp_path / "ready.json"
    socket_path = tmp_path / "nmsld.sock"
    audit_path = tmp_path / "audit.jsonl"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", module,
            "--socket", str(socket_path),
            "--http-port", "0",
            "--workers", str(workers),
            "--drain-grace", "5",
            "--ready-file", str(ready_file),
            "--audit-log", str(audit_path),
        ],
        env=_daemon_env(),
        cwd=REPO_ROOT,
        stderr=subprocess.PIPE,
    )
    for _ in range(400):
        if ready_file.exists():
            break
        if proc.poll() is not None:
            raise RuntimeError(proc.stderr.read().decode())
        time.sleep(0.05)
    else:
        proc.kill()
        raise RuntimeError("daemon never became ready")
    ready = json.loads(ready_file.read_text())
    yield {
        "proc": proc,
        "socket": str(socket_path),
        "http_port": ready["http_port"],
        "audit_path": audit_path,
    }
    _stop_daemon(proc)


def _healthz(daemon):
    return json.loads(
        urllib.request.urlopen(
            f"http://127.0.0.1:{daemon['http_port']}/healthz"
        ).read()
    )


class TestRealPool:
    def test_healthz_reports_pool_and_survives_idle_kill(
        self, pooled_daemon
    ):
        from repro.service.client import ServiceClient

        health = _healthz(pooled_daemon)
        pool = health["pool"]
        assert pool["states"] == {"idle": 2, "busy": 0, "down": 0}
        assert pool["restarts_total"] == 0
        assert pool["quarantine"]["size"] == 0
        victim = pool["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            pool = _healthz(pooled_daemon)["pool"]
            if (
                pool["restarts_total"] >= 1
                and pool["states"]["idle"] == 2
            ):
                break
            time.sleep(0.2)
        assert pool["restarts_total"] >= 1
        assert pool["states"]["idle"] == 2
        # The restarted pool still serves.
        with ServiceClient(socket_path=pooled_daemon["socket"]) as client:
            response = client.request("check", {"spec": CAMPUS})
            assert response["ok"] and response["result"]["consistent"]
        audit = pooled_daemon["audit_path"].read_text()
        kinds = [json.loads(line)["event"] for line in audit.splitlines()]
        assert "worker-exit" in kinds
        assert "worker-restart" in kinds

    def test_kill_busy_worker_replays_to_identical_envelope(
        self, chaos_daemon
    ):
        from repro.service.client import ServiceClient

        with ServiceClient(
            socket_path=chaos_daemon["socket"], timeout_s=60.0
        ) as client:
            clean = client.request("check", {"spec": CAMPUS})
            assert clean["ok"]

            import threading

            result = {}

            def slow_check():
                with ServiceClient(
                    socket_path=chaos_daemon["socket"], timeout_s=60.0
                ) as inner:
                    result["response"] = inner.request(
                        "check",
                        {"spec": CAMPUS, "chaos_sleep_s": 4.0},
                        request_id="victim",
                    )

            thread = threading.Thread(target=slow_check)
            thread.start()
            # Wait until a worker reports busy, then SIGKILL it.
            victim_pid = None
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                pool = _healthz(chaos_daemon)["pool"]
                busy = [
                    w for w in pool["workers"] if w["state"] == "busy"
                ]
                if busy:
                    victim_pid = busy[0]["pid"]
                    break
                time.sleep(0.1)
            assert victim_pid is not None, "check never went busy"
            os.kill(victim_pid, signal.SIGKILL)
            thread.join(timeout=45.0)
            assert not thread.is_alive()
            replayed = result["response"]
            # Replayed once on a fresh worker: same envelope modulo
            # timing/resources (wall-clock and cpu necessarily differ).
            assert replayed["ok"], replayed
            strip = lambda r: {
                k: v for k, v in r.items()
                if k not in ("timing", "resources", "id", "traceparent")
            }
            assert strip(replayed) == strip(clean)
            pool = _healthz(chaos_daemon)["pool"]
            assert pool["restarts_total"] >= 1
        audit = chaos_daemon["audit_path"].read_text()
        events = [json.loads(line) for line in audit.splitlines()]
        replays = [e for e in events if e["event"] == "replay"]
        assert any(e.get("request_id") == "victim" for e in replays)

    def test_poison_request_quarantined_after_two_kills(
        self, chaos_daemon
    ):
        from repro.service.client import ServiceClient

        with ServiceClient(
            socket_path=chaos_daemon["socket"], timeout_s=60.0
        ) as client:
            # chaos_exit kills the worker mid-request every time: the
            # first kill replays (and kills again), quarantining the
            # fingerprint; the structured refusal says so.
            response = client.request(
                "check", {"spec": CAMPUS, "chaos_exit": 17}
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "quarantined"
            assert response["error"]["diagnostic"] == "NM501"
            # Resubmission is refused at admission without touching a
            # worker (no further restarts).
            pool_before = _healthz(chaos_daemon)["pool"]
            again = client.request(
                "check", {"spec": CAMPUS, "chaos_exit": 17}
            )
            assert again["error"]["kind"] == "quarantined"
            pool_after = _healthz(chaos_daemon)["pool"]
            assert (
                pool_after["restarts_total"]
                == pool_before["restarts_total"]
            )
            assert pool_after["quarantine"]["size"] == 1
            # An innocent request still serves fine.
            ok = client.request("check", {"spec": CAMPUS})
            assert ok["ok"]

    def test_deadline_overrun_kills_wedged_worker(self, chaos_daemon):
        from repro.service.client import ServiceClient

        with ServiceClient(
            socket_path=chaos_daemon["socket"], timeout_s=60.0
        ) as client:
            # Sleeps far past its 1s deadline: the in-child cooperative
            # deadline cannot fire during a blocking sleep, so the
            # monitor must SIGKILL on overrun (deadline + grace).
            response = client.request(
                "check",
                {"spec": CAMPUS, "chaos_sleep_s": 30.0},
                deadline_s=1.0,
            )
            assert not response["ok"]
            assert response["error"]["kind"] in (
                "worker-lost", "deadline", "quarantined"
            )
        audit = chaos_daemon["audit_path"].read_text()
        events = [json.loads(line) for line in audit.splitlines()]
        exits = [e for e in events if e["event"] == "worker-exit"]
        assert any(e.get("reason") == "overrun" for e in exits)

    def test_workers_do_not_outlive_a_killed_supervisor(self, pooled_daemon):
        """``kill -9`` of the daemon drains nothing; its workers must
        notice they were orphaned and go, within a heartbeat or two."""
        workers = [
            worker["pid"]
            for worker in _healthz(pooled_daemon)["pool"]["workers"]
        ]
        assert len(workers) == 2
        pooled_daemon["proc"].kill()
        pooled_daemon["proc"].wait(timeout=10)

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            # Orphans are reaped by init; until then a zombie still
            # answers signal 0, so look at its state too.
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        # heartbeat_interval_s is 0.5 s: a few of them, plus slack for a
        # loaded machine.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(alive, workers)):
            time.sleep(0.1)
        assert not any(map(alive, workers))
