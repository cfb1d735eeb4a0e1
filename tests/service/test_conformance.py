"""The simulated and the real runtime are one machine.

One request script goes through :class:`SimulatedServiceRuntime` and
through a real ``nmsld --workers 1``, and the envelopes must be equal
apart from the fields that measure the run rather than the request:

* ``timing`` — logical clock on one side, wall clock on the other;
* ``resources`` — the simulated runtime keeps resource accounting off,
  so its transcripts stay byte-identical;
* ``traceparent`` — each side mints its own span ids.

No other difference exists.  (The daemon's pooled ops run in a worker
process with its own spec cache and the simulated ones in-process; with
one worker the two caches see the same request sequence, so even
``check``'s ``warm`` flag agrees.)
"""

import json
import socket

import pytest

from repro.service import ServiceConfig, SimulatedServiceRuntime
from repro.service.protocol import encode_message

from tests.service.test_boundaries import MALFORMED, NOT_UTF8
from tests.service.test_pool import CAMPUS, serve

RUN_FIELDS = ("timing", "resources", "traceparent")


@pytest.fixture
def one_worker_daemon(tmp_path):
    yield from serve(tmp_path, workers=1)


@pytest.fixture
def script(tmp_path):
    """The request lines: every executed op, and every way to fail."""
    with open(CAMPUS, encoding="utf-8") as handle:
        text = handle.read()
    widened = tmp_path / "widened.nmsl"
    widened.write_text(
        text.replace("access ReadOnly", "access ReadWrite", 1),
        encoding="utf-8",
    )
    broken = tmp_path / "broken.nmsl"
    broken.write_text("domain d ::=\n", encoding="utf-8")
    latin = tmp_path / "latin.nmsl"
    latin.write_bytes(NOT_UTF8)
    requests = [
        ("compile", "compile", {"spec": CAMPUS}),
        ("check", "check", {"spec": CAMPUS}),
        ("analyze", "analyze", {"spec": CAMPUS}),
        ("diff", "diff", {"old": CAMPUS, "new": str(widened)}),
        ("ping", "ping", {}),
        ("unknown", "frobnicate", {}),
        ("broken", "check", {"spec": str(broken)}),
        ("latin", "check", {"spec": str(latin)}),
        ("sharded", "check", {"spec": CAMPUS, "jobs": 2}),
        ("rollout", "rollout", {"spec": CAMPUS}),
        ("heal", "heal", {"spec": CAMPUS, "rounds": 2}),
    ]
    requests.extend(
        (f"malformed-{index}", op, params)
        for index, (op, params, _name) in enumerate(MALFORMED)
    )
    lines = [
        encode_message({"id": rid, "op": op, "params": params})
        for rid, op, params in requests
    ]
    lines.insert(5, '{"id": "malformed", "op": \n')
    return lines


def _strip(envelope):
    return {k: v for k, v in envelope.items() if k not in RUN_FIELDS}


def _through_the_daemon(daemon, lines):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(daemon["socket"])
    with sock, sock.makefile("rwb") as stream:
        replies = []
        for line in lines:
            stream.write(line.encode("utf-8"))
            stream.flush()
            replies.append(json.loads(stream.readline()))
    return replies


def _through_the_simulation(lines):
    runtime = SimulatedServiceRuntime(ServiceConfig(workers=1))
    for at_s, line in enumerate(lines):
        runtime.offer_line(float(at_s), line)
    return runtime.run()


class TestConformance:
    def test_same_script_same_envelopes(self, one_worker_daemon, script):
        simulated = _through_the_simulation(script)
        real = _through_the_daemon(one_worker_daemon, script)
        assert len(simulated) == len(real) == len(script)
        for sim, live in zip(simulated, real):
            assert _strip(sim) == _strip(live)
        # The script exercises what it claims to.
        by_id = {envelope["id"]: envelope for envelope in real}
        assert all(
            by_id[rid]["ok"]
            for rid in (
                "compile", "check", "analyze", "diff", "ping", "rollout",
                "heal",
            )
        )
        assert by_id["rollout"]["result"]["complete"]
        assert by_id["heal"]["result"]["converged"]
        assert by_id["diff"]["result"]["gating"]
        assert by_id[None]["error"]["kind"] == "bad-request"
        assert by_id["unknown"]["error"]["kind"] == "unknown-op"
        assert by_id["broken"]["error"]["kind"] == "compile"
        assert by_id["latin"]["error"]["kind"] == "bad-request"
        refused = by_id["sharded"]["error"]
        assert refused["kind"] == "bad-request" and refused["code"] == 400
        assert "params.jobs" in refused["message"]
        for index, (op, _params, name) in enumerate(MALFORMED):
            error = by_id[f"malformed-{index}"]["error"]
            assert error["kind"] == "bad-request" and error["code"] == 400
            assert error["message"].startswith(f"{op}: params.{name} ")
