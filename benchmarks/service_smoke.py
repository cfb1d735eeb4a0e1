"""CI smoke cycle for the ``nmsld`` daemon.

Boots the daemon on a unix socket, then exercises the full client
surface the way an operator session would:

1. ``ping`` + ``status`` + warm/cold ``check``; a cold then a warm
   ``analyze``, which must answer alike, the cold one running all nine
   passes and the warm one none (``resources.passes_run``); a ``check`` with
   ``jobs`` and a ``rollout`` with typo'd ``diff_bse``/``elemnts`` are
   each refused at admission with a 400 ``bad-request`` naming the
   parameter (neither op declares it), audited as a ``reject``, and the
   rollout applies nothing;
2. ``diff`` of the campus spec against a scripted access-widening
   mutation — the relational gate must report NM401 as gating, and
   ``resources.facts_expanded`` must count the widened revision's
   declarations only (the checked campus is forked, not re-expanded);
   the same diff again must answer alike from the answer kept on the
   campus revision, expanding nothing;
3. a ``rollout`` of the widened revision *with* ``diff_base`` — the
   service must refuse it with 403 ``vetoed``;
4. a clean ``rollout`` of the committed spec over a sub-campus element
   claim — must complete with a journal on disk;
5. supervision: the daemon runs ``--workers 2``; a cold check of a
   generated 1,000-domain spec (~2 s of real work) is ``kill -9``-ed
   mid-request on its worker — the request must still be answered
   (replayed transparently), the restart must show up in
   ``GET /healthz`` and the pool must return to two idle workers;
6. ``GET /slo`` + ``GET /metrics`` — the exposition must pass the
   strict :mod:`repro.obs.promlint` parser with zero problems;
7. SIGTERM with an idle client connected — graceful drain, exit 0,
   no traceback on ``nmsld``'s stderr, final metrics scrape flushed,
   the drained trace must contain one *connected* trace for the warm
   check (every span reachable from the request's trace id), and the
   audit log must hold the full worker lifecycle
   (``worker-start``/``worker-exit``/``worker-restart``/``replay``).

Leaves ``SERVICE_metrics.prom``, ``SERVICE_smoke.json``,
``SERVICE_audit.jsonl`` and ``SERVICE_trace.jsonl`` for CI to upload.
Exits non-zero on the first violated expectation.

Run as a script::

    PYTHONPATH=src python benchmarks/service_smoke.py [--keep-dir DIR]
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.promlint import lint  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.workloads.paper import (  # noqa: E402
    PaperScaleInternet,
    PaperScaleParameters,
)

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from widen_access import widen  # noqa: E402

CAMPUS = str(REPO_ROOT / "examples" / "campus.nmsl")
CS_ELEMENTS = ["gw.cs.campus.edu", "db.cs.campus.edu"]


def expect(condition, label, context=None):
    if not condition:
        print(f"FAIL: {label}: {context}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {label}")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep-dir",
        type=Path,
        help="working directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    workdir = args.keep_dir or Path(tempfile.mkdtemp(prefix="nmsld-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)

    widened = workdir / "campus-widened.nmsl"
    widened.write_text(
        widen(Path(CAMPUS).read_text(encoding="utf-8")), encoding="utf-8"
    )
    # The kill -9 victim: slow because it is big, not because it sleeps.
    slow_spec = workdir / "internet-1k.nmsl"
    PaperScaleInternet(
        PaperScaleParameters(n_domains=1000, hub_count=16)
    ).write_text(slow_spec)

    socket_path = workdir / "nmsld.sock"
    ready_file = workdir / "ready.json"
    metrics_file = REPO_ROOT / "SERVICE_metrics.prom"
    audit_file = REPO_ROOT / "SERVICE_audit.jsonl"
    trace_file = REPO_ROOT / "SERVICE_trace.jsonl"
    for stale in (audit_file, trace_file):
        if stale.exists():
            stale.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    log_file = workdir / "nmsld.stderr"
    daemon_log = open(log_file, "wb")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.daemon",
            "--socket", str(socket_path),
            "--workers", "2",
            "--drain-grace", "10",
            "--http-port", "0",
            "--ready-file", str(ready_file),
            "--metrics", str(metrics_file),
            "--audit-log", str(audit_file),
            "--trace", str(trace_file),
            "--journal-dir", str(workdir / "journals"),
            "-v",
        ],
        env=env,
        cwd=REPO_ROOT,
        stderr=daemon_log,
    )
    try:
        for _ in range(200):
            if ready_file.exists():
                break
            if daemon.poll() is not None:
                raise SystemExit("daemon died during startup")
            time.sleep(0.05)
        else:
            raise SystemExit("daemon never became ready")
        ready = json.loads(ready_file.read_text())
        expect(ready["pid"] == daemon.pid, "daemon ready", ready)

        with ServiceClient(
            socket_path=str(socket_path), timeout_s=120.0
        ) as client:
            expect(client.request("ping")["ok"], "ping")

            cold = client.request("check", {"spec": CAMPUS}, deadline_s=60)
            expect(
                cold["ok"] and cold["result"]["consistent"]
                and cold["result"]["warm"] is False,
                "cold check consistent", cold,
            )
            warm = client.request("check", {"spec": CAMPUS})
            expect(
                warm["ok"] and warm["result"]["warm"] is True,
                "warm cache hit", warm,
            )
            expect(
                isinstance(warm.get("traceparent"), str)
                and warm["traceparent"].startswith("00-"),
                "response envelope carries traceparent", warm,
            )
            warm_trace_id = warm["traceparent"].split("-")[1]
            resources = warm.get("resources", {})
            expect(
                "cpu_s" in resources and "cache_hit_ratio" in resources,
                "response envelope carries resource accounting",
                resources,
            )
            analyses = [
                client.request("analyze", {"spec": CAMPUS}) for _ in range(2)
            ]
            expect(
                all(analysis["ok"] for analysis in analyses)
                and analyses[0]["result"] == analyses[1]["result"],
                "warm analyze answers as the cold one did", analyses,
            )
            expect(
                [analysis["resources"].get("passes_run")
                 for analysis in analyses] == [9, 0],
                "cold analyze runs every pass, warm analyze none",
                [analysis.get("resources") for analysis in analyses],
            )
            sharded = client.request(
                "check", {"spec": CAMPUS, "jobs": 2}, request_id="sharded"
            )
            expect(
                not sharded["ok"]
                and sharded["error"]["kind"] == "bad-request"
                and sharded["error"]["code"] == 400,
                "check with jobs is refused with a 400 bad-request", sharded,
            )
            typo = client.request(
                "rollout",
                {"spec": CAMPUS, "diff_bse": CAMPUS, "elemnts": CS_ELEMENTS},
                request_id="typo",
            )
            expect(
                not typo["ok"]
                and typo["error"]["code"] == 400
                and "params.diff_bse" in typo["error"]["message"],
                "typo'd rollout is refused with a 400 naming the parameter",
                typo,
            )

            diff, again = (
                client.request(
                    "diff", {"old": CAMPUS, "new": str(widened)},
                    deadline_s=120,
                )
                for _ in range(2)
            )
            expect(
                diff["ok"] and diff["result"]["gating"],
                "diff flags widened access as gating", diff,
            )
            expect(
                any(
                    finding["code"] == "NM401"
                    for finding in diff["result"]["findings"]
                ),
                "NM401 present in diff findings", diff,
            )
            # The widening edits a process, so B is expanded in full;
            # campus, checked above, is forked and expands nothing.
            counts = client.request(
                "compile", {"spec": str(widened)}
            )["result"]["counts"]
            expect(
                diff.get("resources", {}).get("facts_expanded")
                == counts["processes"] + counts["systems"] + counts["domains"],
                "diff of a checked spec expands only the new revision",
                diff.get("resources"),
            )
            expect(
                again["ok"] and again["result"] == diff["result"]
                and again["resources"].get("facts_expanded") == 0,
                "a repeated diff is the kept answer, expanding nothing",
                again,
            )

            vetoed = client.request(
                "rollout",
                {
                    "spec": str(widened),
                    "diff_base": CAMPUS,
                    "elements": CS_ELEMENTS,
                },
            )
            expect(
                not vetoed["ok"]
                and vetoed["error"]["kind"] == "vetoed"
                and vetoed["error"]["code"] == 403,
                "gated rollout vetoed", vetoed,
            )

            clean = client.request(
                "rollout",
                {"spec": CAMPUS, "elements": CS_ELEMENTS},
            )
            expect(
                clean["ok"] and clean["result"]["complete"]
                and clean["result"]["committed"] == sorted(CS_ELEMENTS),
                "clean rollout completes over the element claim", clean,
            )
            expect(
                clean["result"]["journal"] is not None
                and Path(clean["result"]["journal"]).exists(),
                "campaign journal on disk", clean["result"]["journal"],
            )

            status = client.request("status")
            expect(
                status["ok"]
                and status["result"]["requests_total"] >= 7,
                "status snapshot", status,
            )

        base = f"http://127.0.0.1:{ready['http_port']}"

        # -- supervision: kill -9 a worker mid-request ------------------
        def healthz():
            return json.loads(
                urllib.request.urlopen(base + "/healthz").read()
            )

        pool = healthz().get("pool") or {}
        expect(
            pool.get("states", {}).get("idle", 0) == 2,
            "/healthz shows two idle pool workers", pool,
        )

        import threading

        victim_box = {}

        def parked_check():
            with ServiceClient(
                socket_path=str(socket_path), timeout_s=120.0
            ) as parked:
                victim_box["response"] = parked.request(
                    "check", {"spec": str(slow_spec)}, cls="bulk",
                )

        parker = threading.Thread(target=parked_check)
        parker.start()
        busy_pid = None
        for _ in range(100):
            workers = (healthz().get("pool") or {}).get("workers", [])
            busy = [w for w in workers if w["state"] == "busy"]
            if busy:
                busy_pid = busy[0]["pid"]
                break
            time.sleep(0.05)
        expect(busy_pid is not None, "a worker went busy on the check")
        os.kill(busy_pid, signal.SIGKILL)
        parker.join(timeout=60)
        expect(
            victim_box.get("response", {}).get("ok"),
            "request on the killed worker is replayed and answered",
            victim_box.get("response"),
        )
        recovered = {}
        for _ in range(200):
            recovered = healthz().get("pool") or {}
            if (
                recovered.get("restarts_total", 0) >= 1
                and recovered.get("states", {}).get("idle", 0) == 2
            ):
                break
            time.sleep(0.05)
        expect(
            recovered.get("restarts_total", 0) >= 1,
            "/healthz shows the worker restart", recovered,
        )
        expect(
            recovered.get("states", {}).get("idle", 0) == 2,
            "pool back to two idle workers", recovered,
        )

        scrape = urllib.request.urlopen(base + "/metrics").read().decode()
        expect(
            "repro_service_requests_total" in scrape
            and "repro_service_latency_seconds" in scrape,
            "live /metrics scrape",
        )
        expect(
            "repro_service_pool_workers" in scrape
            and 'repro_service_pool_restarts_total{reason="crash"}'
            in scrape,
            "pool supervision metrics in /metrics", None,
        )
        problems = lint(scrape)
        expect(not problems, "/metrics passes strict promlint", problems)
        slo = json.loads(urllib.request.urlopen(base + "/slo").read())
        expect(
            "interactive" in slo.get("classes", {})
            and slo["classes"]["interactive"]["windows"],
            "/slo reports per-class windows", slo,
        )
        health = json.loads(
            urllib.request.urlopen(base + "/healthz").read()
        )
        expect(health["status"] == "ok", "/healthz", health)
        expect(
            "slo" in health and "alerting" in health["slo"],
            "/healthz embeds the SLO summary", health,
        )

        # An idle client holds its connection across the drain, which
        # must hang up on it rather than leave its task to be cancelled.
        with ServiceClient(socket_path=str(socket_path)) as idle:
            expect(idle.request("ping")["ok"], "idle client ping")
            daemon.send_signal(signal.SIGTERM)
            code = daemon.wait(timeout=30)
        expect(code == 0, "graceful SIGTERM drain exits 0", code)
        log = log_file.read_text(encoding="utf-8", errors="replace")
        sys.stderr.write(log)
        expect("Traceback" not in log, "nmsld's stderr holds no traceback")
        expect(
            metrics_file.exists()
            and "repro_service_requests_total" in metrics_file.read_text(),
            "final metrics flushed on drain",
        )
        problems = lint(metrics_file.read_text())
        expect(not problems, "drained metrics pass promlint", problems)

        audit_events = [
            json.loads(line)
            for line in audit_file.read_text().splitlines()
        ]
        expect(
            any(e["event"] == "admit" for e in audit_events)
            and any(e["event"] == "response" for e in audit_events)
            and any(e["event"] == "veto" for e in audit_events)
            and any(e["event"] == "apply" for e in audit_events),
            "audit log records admit/response/veto/apply events",
            sorted({e["event"] for e in audit_events}),
        )
        for refused in ("sharded", "typo"):
            expect(
                any(
                    e["event"] == "reject"
                    and e.get("request_id") == refused
                    and e.get("kind") == "bad-request"
                    for e in audit_events
                ),
                f"the refused {refused} request has its audit reject event",
            )
        expect(
            not any(
                e.get("request_id") == "typo" and e["event"] != "reject"
                for e in audit_events
            ),
            "the typo'd rollout was never admitted, so nothing applied",
        )
        # A request refused while parsing never got a trace; every
        # admitted one did.
        request_scoped = [
            e for e in audit_events
            if not e["event"].startswith("worker-") and e["event"] != "reject"
        ]
        expect(
            all("trace_id" in e for e in request_scoped),
            "every admitted request's audit events carry a trace id",
        )
        pool_kinds = {e["event"] for e in audit_events}
        expect(
            {"worker-start", "worker-exit", "worker-restart",
             "replay"} <= pool_kinds,
            "audit log holds the full worker lifecycle",
            sorted(pool_kinds),
        )

        spans = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
        ]
        warm_spans = [s for s in spans if s["trace"] == warm_trace_id]
        # The request's minted context is the (unrecorded) trace root.
        roots = {"", warm["traceparent"].split("-")[2]}
        known = {s["span"] for s in warm_spans} | roots
        expect(
            any(s["name"] == "service.request" for s in warm_spans),
            "warm check produced a service.request span", warm_trace_id,
        )
        expect(
            warm_spans and all(s["parent"] in known for s in warm_spans),
            "warm-check trace is connected (all parents resolve)",
            warm_spans,
        )
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        daemon_log.close()

    (REPO_ROOT / "SERVICE_smoke.json").write_text(
        json.dumps(
            {
                "smoke": "service",
                "health": health,
                "pool": recovered,
                "drain_exit_code": code,
                "audit_events": len(audit_events),
                "trace_spans": len(spans),
                "warm_check_trace_spans": len(warm_spans),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
