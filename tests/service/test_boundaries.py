"""Bytes the daemon cannot use are refused with a structured error.

A specification that is not UTF-8 and a request line with no end are
the two inputs that used to escape as a traceback (``internal``, or an
unhandled exception on the submit executor) and as a connection that
died without a word.  A specification that does not compile took the
same two exits (a strict compile raises), not the documented 422.
Parameters the op does not declare, or that do not fit its declaration
(:mod:`repro.operations`), used to run as silent defaults or end in a
500; they are refused at admission.
"""

import json
import socket
import time
import urllib.request

import pytest

from repro.service import ServiceConfig, ServiceCore, SimulatedServiceRuntime
from repro.service.client import ServiceClient
from repro.service.handlers import SpecCache
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    MAX_HTTP_HEADERS,
    MAX_HTTP_LINE_BYTES,
    ProtocolError,
    encode_message,
)

from tests.service.test_pool import CAMPUS, pooled_daemon  # noqa: F401

#: Valid up to byte 8, then a lone continuation byte.
NOT_UTF8 = b"domain d\x80 ::= end domain d.\n"

#: (op, params, the parameter the refusal names): a rollout whose typos
#: once committed every element ungated, seven requests that were
#: answered 500 ``internal``, an analysis code no pass has (a 500 once
#: the spec compiled) and a heal chunk size (never read by ``nmsld``).
MALFORMED = [
    ("rollout",
     {"spec": CAMPUS, "diff_bse": CAMPUS, "elemnts": ["gw.cs.campus.edu"]},
     "diff_bse"),
    ("rollout", {"spec": CAMPUS, "max_attempts": "x"}, "max_attempts"),
    ("rollout", {"spec": CAMPUS, "jobs": 0}, "jobs"),
    ("rollout", {"spec": CAMPUS, "tag": "NoSuchTag"}, "tag"),
    ("heal", {"spec": CAMPUS, "rounds": "ten"}, "rounds"),
    ("heal", {"spec": CAMPUS, "interval_s": None}, "interval_s"),
    ("analyze", {"spec": CAMPUS, "select": 5}, "select"),
    ("check", {"spec": CAMPUS, "chaos_sleep_s": "x"}, "chaos_sleep_s"),
    ("analyze", {"spec": CAMPUS, "select": ["NM999"]}, "select"),
    ("heal", {"spec": CAMPUS, "chunk_size": 512}, "chunk_size"),
]


@pytest.fixture
def bad_spec(tmp_path):
    path = tmp_path / "latin.nmsl"
    path.write_bytes(NOT_UTF8)
    return str(path)


def _core():
    """A bare core with its worker slots up, as a runtime boots them."""
    core = ServiceCore(ServiceConfig(), clock=lambda: 0.0)
    for worker_id in sorted(core.pool.workers):
        core.pool_worker_started(worker_id)
    return core


def _assert_names_the_byte(error, path):
    assert error["kind"] == "bad-request" and error["code"] == 400
    assert path in error["message"]
    assert "byte offset 8" in error["message"]


class TestNotUtf8InProcess:
    def test_cache_refuses_naming_path_and_offset(self, bad_spec):
        with pytest.raises(ProtocolError) as caught:
            SpecCache().get(bad_spec)
        assert caught.value.kind == "bad-request"
        assert bad_spec in str(caught.value)
        assert "byte offset 8" in str(caught.value)

    @pytest.mark.parametrize("op", ["check", "compile", "analyze"])
    def test_executed_op_answers_bad_request(self, bad_spec, op):
        core = _core()
        request, responses = core.submit(
            encode_message({"id": "r", "op": op, "params": {"spec": bad_spec}})
        )
        assert request is not None and responses == []
        admitted, disposition = core.next_action()
        assert admitted is request and disposition != "expired"
        response = core.execute(request)
        assert not response["ok"]
        _assert_names_the_byte(response["error"], bad_spec)

    @pytest.mark.parametrize("op", ["rollout", "heal"])
    def test_campaign_is_refused_at_admission(self, bad_spec, op):
        core = _core()
        request, responses = core.submit(
            encode_message({"id": "r", "op": op, "params": {"spec": bad_spec}})
        )
        assert request is None
        [(_reply_to, response)] = responses
        _assert_names_the_byte(response["error"], bad_spec)


class TestDoesNotCompile:
    @pytest.fixture(params=["domain d ::= system nowhere; end domain d.\n",
                            "domain d ::=\n", "@@@"])
    def broken_spec(self, request, tmp_path):
        path = tmp_path / "broken.nmsl"
        path.write_text(request.param)
        return str(path)

    @pytest.mark.parametrize("op", ["check", "rollout"])
    def test_answers_compile_422(self, broken_spec, op):
        core = _core()
        request, responses = core.submit(
            encode_message(
                {"id": "r", "op": op, "params": {"spec": broken_spec}}
            )
        )
        if op == "check":
            assert core.next_action() == (request, "remote")
            response = core.execute(request)
        else:  # a campaign compiles at admission
            assert request is None
            [(_reply_to, response)] = responses
        error = response["error"]
        assert error["kind"] == "compile" and error["code"] == 422
        assert f"{broken_spec}:" in error["message"]  # path:line:column


class TestRefusedCheckParams:
    @pytest.mark.parametrize(
        "knob, value", [("jobs", 2), ("jobs", "x"), ("shard_threshold", 1)]
    )
    def test_named_in_a_bad_request(self, knob, value):
        """No socket parameter writes checker internals: ``check``
        declares none, so each is refused at admission."""
        core = _core()
        request, [(_reply_to, response)] = core.submit(
            encode_message(
                {"id": "r", "op": "check",
                 "params": {"spec": CAMPUS, knob: value}}
            )
        )
        assert request is None
        error = response["error"]
        assert error["kind"] == "bad-request" and error["code"] == 400
        assert f"check: params.{knob}" in error["message"]


class TestRefusedAtAdmission:
    def test_malformed_requests_apply_nothing_and_burn_no_slo(self):
        runtime = SimulatedServiceRuntime(ServiceConfig(workers=1))
        for at_s, (op, params, _name) in enumerate(MALFORMED):
            runtime.offer(
                float(at_s), {"id": f"m{at_s}", "op": op, "params": params}
            )
        by_id = {response["id"]: response for response in runtime.run()}
        for at_s, (op, _params, name) in enumerate(MALFORMED):
            error = by_id[f"m{at_s}"]["error"]
            assert error["kind"] == "bad-request" and error["code"] == 400
            assert error["message"].startswith(f"{op}: params.{name} ")
        events = [
            event["event"] for event in runtime.core.audit.tail(100)
            if not event["event"].startswith("worker-")
        ]
        assert events == ["reject"] * len(MALFORMED)
        # Refused before a spec was read: nothing compiled, nothing ran.
        assert runtime.core.handlers.cache.stats()["entries"] == 0
        slo = runtime.core.slo.snapshot(runtime.core.clock())
        assert not slo["alerts"]
        assert all(
            window["total"] == 0
            for entry in slo["classes"].values()
            for window in entry["windows"]
        )

    def test_a_valid_request_with_every_default_spelled_out(self):
        """The declared defaults are what an absent parameter means: a
        rollout naming each of them commits what the bare one does."""
        from repro.operations import OPERATIONS

        explicit = {
            name: row.default
            for name, row in OPERATIONS["rollout"].items()
            if row.default is not None
        }
        runtime = SimulatedServiceRuntime(ServiceConfig(workers=1))
        for at_s, params in enumerate(({}, explicit)):
            runtime.offer(
                float(at_s * 100),
                {"id": f"r{at_s}", "op": "rollout",
                 "params": {"spec": CAMPUS, **params}},
            )
        bare, spelled = runtime.run()
        assert bare["ok"] and spelled["ok"], (bare, spelled)
        assert bare["result"]["committed"] == spelled["result"]["committed"]


def _connect(daemon):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(daemon["socket"])
    return sock


def _counted(daemon):
    """``/healthz``'s ``requests_total`` and ``responses_total``, and
    ``/metrics``' count of lines that were not requests."""
    base = f"http://127.0.0.1:{daemon['http_port']}"
    health = json.loads(urllib.request.urlopen(base + "/healthz").read())
    invalid = 0.0
    for line in urllib.request.urlopen(base + "/metrics").read().decode(
        "utf-8"
    ).splitlines():
        if line.startswith("repro_service_requests_total{") and (
            'op="invalid"' in line and 'outcome="rejected"' in line
        ):
            invalid += float(line.rsplit(" ", 1)[1])
    return health["requests_total"], health["responses_total"], invalid


def _read_to_eof(sock):
    received = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        received += chunk
    return received


class TestOverTheSocket:
    def test_hostile_bytes_get_structured_answers(
        self, pooled_daemon, bad_spec  # noqa: F811
    ):
        """One daemon boot, every boundary: a non-UTF-8 spec through the
        pool and through rollout admission, a 1 MiB line, a dripped half
        line — and the daemon serves a real request after each."""
        with ServiceClient(socket_path=pooled_daemon["socket"]) as client:
            for op in ("check", "rollout"):
                response = client.request(op, {"spec": bad_spec})
                assert not response["ok"], response
                _assert_names_the_byte(response["error"], bad_spec)

            # A line that never ends: one reply, then the server hangs up.
            # It is a request answered, counted like a malformed line.
            before = _counted(pooled_daemon)
            with _connect(pooled_daemon) as sock:
                try:
                    sock.sendall(b"x" * (1024 * 1024))
                except (BrokenPipeError, ConnectionResetError):
                    pass  # it stopped reading at the bound, as it should
                [line] = _read_to_eof(sock).splitlines()
            error = json.loads(line)["error"]
            assert error["kind"] == "frame-too-large" and error["code"] == 413
            assert str(MAX_FRAME_BYTES) in error["message"]
            after = _counted(pooled_daemon)
            assert [b - a for a, b in zip(before, after)] == [1, 1, 1]
            assert client.request("check", {"spec": CAMPUS})["ok"]

            # A line just inside the bound is still a request (padded
            # with JSON whitespace: ping takes no parameters).
            padded = (
                '{"id": "big", "op": "ping"'
                + " " * (MAX_FRAME_BYTES - 200)
                + "}\n"
            ).encode("utf-8")
            assert 65536 < len(padded) <= MAX_FRAME_BYTES
            with _connect(pooled_daemon) as sock, sock.makefile("rb") as reader:
                sock.sendall(padded)
                line = reader.readline()
            assert json.loads(line)["result"] == {"pong": True}

            # Half a request, a byte at a time, then EOF.
            with _connect(pooled_daemon) as sock:
                for byte in b'{"id": "drip", "op": "pi':
                    sock.sendall(bytes([byte]))
                    time.sleep(0.002)
                sock.shutdown(socket.SHUT_WR)
                [line] = _read_to_eof(sock).splitlines()
            error = json.loads(line)["error"]
            assert error["kind"] == "bad-request"
            assert "malformed JSON" in error["message"]
            assert client.request("ping")["ok"]

        audit = [
            json.loads(line)
            for line in pooled_daemon["audit_path"].read_text().splitlines()
        ]
        assert any(
            event["event"] == "reject"
            and event.get("kind") == "frame-too-large"
            for event in audit
        )


class TestHttpHeaders:
    def test_oversized_request_gets_a_structured_431(
        self, pooled_daemon  # noqa: F811
    ):
        """A request line past the bound, and a request with too many
        headers, are each answered 431 with a JSON error and audited;
        the endpoint still serves the next request."""

        def exchange(request: bytes) -> bytes:
            with socket.create_connection(
                ("127.0.0.1", pooled_daemon["http_port"]), timeout=30.0
            ) as sock:
                try:
                    sock.sendall(request)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # it stopped reading at the bound, as it should
                return _read_to_eof(sock)

        long_line = b"GET /" + b"x" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
        many_headers = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"X-Pad: 1\r\n" * (MAX_HTTP_HEADERS + 1)
            + b"\r\n"
        )
        for request in (long_line, many_headers):
            head, _sep, body = exchange(request).partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 431 "), head
            error = json.loads(body)["error"]
            assert error["kind"] == "header-too-large"
            assert error["code"] == 431
            assert str(MAX_HTTP_LINE_BYTES) in error["message"]
        fine = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"X-Pad: 1\r\n" * MAX_HTTP_HEADERS
            + b"\r\n"
        )
        assert exchange(fine).startswith(b"HTTP/1.1 200 ")

        audit = [
            json.loads(line)
            for line in pooled_daemon["audit_path"].read_text().splitlines()
        ]
        assert sum(
            event["event"] == "reject"
            and event.get("kind") == "header-too-large"
            for event in audit
        ) == 2


class TestHalfClose:
    def test_replies_arrive_after_the_client_stops_sending(
        self, pooled_daemon  # noqa: F811
    ):
        """A client may write its requests, shut down its sending side
        and read until EOF: every request admitted on the connection is
        answered before the daemon closes it."""
        frames = b"".join(
            encode_message({"id": request_id, "op": op, "params": params})
            .encode("utf-8")
            for request_id, op, params in (
                ("ping", "ping", {}),
                ("check", "check", {"spec": CAMPUS}),
            )
        )
        with _connect(pooled_daemon) as sock:
            sock.sendall(frames)
            sock.shutdown(socket.SHUT_WR)
            replies = [
                json.loads(line) for line in _read_to_eof(sock).splitlines()
            ]
        assert sorted(reply["id"] for reply in replies) == ["check", "ping"]
        assert all(reply["ok"] for reply in replies), replies
