"""Black-box tests of the ``nmsld`` daemon and its client."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
CAMPUS = str(REPO_ROOT / "examples" / "campus.nmsl")


def _daemon_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _stop_daemon(proc):
    """Drain a fixture's daemon (SIGTERM retires its workers); kill it
    only if it will not go."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def _run_daemon_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.service.daemon", *argv],
        env=_daemon_env(),
        capture_output=True,
        text=True,
        timeout=30,
        cwd=REPO_ROOT,
    )


class TestEntryPoint:
    def test_help(self):
        proc = _run_daemon_cli("--help")
        assert proc.returncode == 0
        for flag in ("--socket", "--queue-depth", "--max-campaigns",
                     "--http-port", "--journal-dir"):
            assert flag in proc.stdout

    def test_version(self):
        from repro import __version__

        proc = _run_daemon_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"nmsld {__version__}"

    def test_worker_count_validated(self):
        proc = _run_daemon_cli("--workers", "0")
        assert proc.returncode == 2
        assert "--workers must be >= 1" in proc.stderr

    def test_negative_drain_grace_rejected(self):
        proc = _run_daemon_cli("--drain-grace", "-1")
        assert proc.returncode == 2
        assert "--drain-grace" in proc.stderr

    def test_oversubscribed_workers_warn_but_run(self, tmp_path):
        # A regular file at the socket path makes boot fail *after*
        # argument handling: the absurd worker count must have produced
        # a warning, not an error, by the time the bind is refused —
        # which happens before any worker is forked.
        bogus = tmp_path / "not-a-socket"
        bogus.write_text("precious data")
        audit = tmp_path / "audit.jsonl"
        cpus = os.cpu_count() or 1
        proc = _run_daemon_cli(
            "--workers", str(cpus + 8), "--socket", str(bogus),
            "--audit-log", str(audit),
        )
        assert proc.returncode == 1  # the socket, not the worker count
        assert "exceeds" in proc.stderr
        assert "not a socket" in proc.stderr
        assert bogus.read_text() == "precious data"
        started = audit.read_text() if audit.exists() else ""
        assert "worker-start" not in started

    def test_console_script_registered(self):
        import tomllib

        pyproject = tomllib.loads(
            (REPO_ROOT / "pyproject.toml").read_text()
        )
        scripts = pyproject["project"]["scripts"]
        assert scripts["nmsld"] == "repro.service.daemon:main"
        assert scripts["nmslc"] == "repro.cli:main"


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a unix socket with the HTTP endpoint up."""
    ready_file = tmp_path / "ready.json"
    socket_path = tmp_path / "nmsld.sock"
    metrics_path = tmp_path / "metrics.prom"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.daemon",
            "--socket", str(socket_path),
            "--http-port", "0",
            "--ready-file", str(ready_file),
            "--metrics", str(metrics_path),
            "--journal-dir", str(tmp_path / "journals"),
        ],
        env=_daemon_env(),
        cwd=REPO_ROOT,
        stderr=subprocess.PIPE,
    )
    for _ in range(200):
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
        "metrics_path": metrics_path,
    }
    _stop_daemon(proc)


class TestDaemon:
    def test_smoke_and_graceful_drain(self, daemon):
        from repro.service.client import ServiceClient

        with ServiceClient(socket_path=daemon["socket"]) as client:
            assert client.request("ping")["ok"]
            first = client.request(
                "check", {"spec": CAMPUS}, deadline_s=30.0
            )
            assert first["ok"] and first["result"]["consistent"]
            assert first["result"]["warm"] is False
            second = client.request("check", {"spec": CAMPUS})
            assert second["result"]["warm"] is True  # warm cache hit

            status = client.request("status")
            assert status["result"]["queue"]["capacity"] == 64

            bad = client.request("check", {})
            assert bad["error"]["kind"] == "bad-request"

        base = f"http://127.0.0.1:{daemon['http_port']}"
        metrics = urllib.request.urlopen(base + "/metrics").read().decode()
        assert "repro_service_requests_total" in metrics
        assert "repro_service_latency_seconds" in metrics
        assert "repro_service_queue_depth" in metrics
        health = json.loads(
            urllib.request.urlopen(base + "/healthz").read()
        )
        assert health["status"] == "ok"
        assert health["requests_total"] >= 5

        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(base + "/nope")

        daemon["proc"].send_signal(signal.SIGTERM)
        assert daemon["proc"].wait(timeout=20) == 0
        # The drain flushed a final Prometheus scrape to disk...
        assert daemon["metrics_path"].exists()
        assert "repro_service_requests_total" in daemon[
            "metrics_path"
        ].read_text()
        # ...and removed the socket file so a successor can bind it.
        assert not Path(daemon["socket"]).exists()

    def test_rollout_over_the_socket(self, daemon):
        from repro.service.client import ServiceClient

        with ServiceClient(
            socket_path=daemon["socket"], timeout_s=120.0
        ) as client:
            response = client.request(
                "rollout",
                {
                    "spec": CAMPUS,
                    "elements": ["gw.cs.campus.edu", "db.cs.campus.edu"],
                },
            )
            assert response["ok"], response
            assert response["result"]["complete"]
            assert response["result"]["committed"] == [
                "db.cs.campus.edu", "gw.cs.campus.edu",
            ]
            assert response["result"]["journal"] is not None
            assert Path(response["result"]["journal"]).exists()


class TestSocketLifecycle:
    """Stale-socket cleanup: restarts must not fail with EADDRINUSE."""

    def test_missing_path_is_a_noop(self, tmp_path):
        from repro.service.runtime import AsyncServiceRuntime

        AsyncServiceRuntime._remove_stale_socket(
            str(tmp_path / "never-existed.sock")
        )

    def test_regular_file_is_refused(self, tmp_path):
        from repro.service.runtime import AsyncServiceRuntime

        path = tmp_path / "not-a-socket"
        path.write_text("precious data")
        with pytest.raises(OSError, match="not a socket"):
            AsyncServiceRuntime._remove_stale_socket(str(path))
        assert path.exists()

    def test_stale_socket_is_unlinked(self, tmp_path):
        import socket as socketlib

        from repro.service.runtime import AsyncServiceRuntime

        path = tmp_path / "stale.sock"
        crashed = socketlib.socket(
            socketlib.AF_UNIX, socketlib.SOCK_STREAM
        )
        crashed.bind(str(path))
        crashed.close()  # the file outlives its listener, as on a crash
        AsyncServiceRuntime._remove_stale_socket(str(path))
        assert not path.exists()

    def test_live_listener_is_not_stolen(self, tmp_path):
        import socket as socketlib

        from repro.service.runtime import AsyncServiceRuntime

        path = tmp_path / "live.sock"
        listener = socketlib.socket(
            socketlib.AF_UNIX, socketlib.SOCK_STREAM
        )
        listener.bind(str(path))
        listener.listen(1)
        try:
            with pytest.raises(OSError, match="already listening"):
                AsyncServiceRuntime._remove_stale_socket(str(path))
        finally:
            listener.close()
        assert path.exists()

    def test_daemon_boots_over_stale_socket(self, tmp_path):
        import socket as socketlib

        socket_path = tmp_path / "nmsld.sock"
        crashed = socketlib.socket(
            socketlib.AF_UNIX, socketlib.SOCK_STREAM
        )
        crashed.bind(str(socket_path))
        crashed.close()

        ready_file = tmp_path / "ready.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service.daemon",
                "--socket", str(socket_path),
                "--ready-file", str(ready_file),
            ],
            env=_daemon_env(),
            cwd=REPO_ROOT,
            stderr=subprocess.PIPE,
        )
        try:
            for _ in range(200):
                if ready_file.exists():
                    break
                if proc.poll() is not None:
                    raise RuntimeError(proc.stderr.read().decode())
                time.sleep(0.05)
            else:
                raise RuntimeError("daemon never became ready")
            from repro.service.client import ServiceClient

            with ServiceClient(socket_path=str(socket_path)) as client:
                assert client.request("ping")["ok"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
            assert not socket_path.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestClientCli:
    def test_one_shot_ping(self, daemon):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.service.client",
                "--socket", daemon["socket"], "ping",
            ],
            env=_daemon_env(),
            capture_output=True,
            text=True,
            timeout=30,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == {"pong": True}
