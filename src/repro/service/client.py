"""A minimal synchronous client for the ``nmsld`` NDJSON protocol.

Library use::

    with ServiceClient(socket_path="/run/nmsld.sock") as client:
        response = client.request("check", {"spec": "internet.nmsl"},
                                  deadline_s=5.0)

CLI use (the CI smoke test and ad-hoc operators)::

    python -m repro.service.client --socket /run/nmsld.sock \\
        check spec=examples/campus.nmsl deadline_s=5

Responses print as deterministic one-line JSON; the exit status is 0
for ``ok`` responses and the error's HTTP-style code divided by 100
otherwise (503 → 5, 400 → 4), so shell pipelines can branch on class.

The pseudo-op ``watch`` polls ``status`` + ``slo`` and prints one
summary line per tick — a minimal live view of queue depths, burn
rates, and alerts (``nmslc top`` renders the same data as a table)::

    python -m repro.service.client --socket /run/nmsld.sock watch \\
        interval=2 count=10
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import Optional

from repro.service.protocol import encode_message


class ServiceClient:
    """Blocking NDJSON client over a unix or TCP socket."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout_s: float = 60.0,
    ):
        if socket_path:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout_s)
            self._sock.connect(socket_path)
        else:
            if port is None:
                raise ValueError("need socket_path or port")
            self._sock = socket.create_connection(
                (host, port), timeout=timeout_s
            )
        self._file = self._sock.makefile("rwb")
        self._seq = 0

    def request(
        self,
        op: str,
        params: Optional[dict] = None,
        deadline_s: Optional[float] = None,
        cls: Optional[str] = None,
        request_id: Optional[str] = None,
        traceparent: Optional[str] = None,
    ) -> dict:
        """Send one request and block for its response.

        Pass ``traceparent`` (W3C ``00-<trace>-<span>-01``) to join the
        request to an existing trace; the response echoes the server's
        ``traceparent`` for the request either way.
        """
        self._seq += 1
        message = {
            "id": request_id or f"c-{self._seq}",
            "op": op,
            "params": params or {},
        }
        if deadline_s is not None:
            message["deadline_s"] = deadline_s
        if cls is not None:
            message["class"] = cls
        if traceparent is not None:
            message["traceparent"] = traceparent
        self._file.write(encode_message(message).encode("utf-8"))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def watch_snapshot(self) -> dict:
        """One ``status`` + ``slo`` poll, merged for live dashboards."""
        status = self.request("status")
        slo = self.request("slo")
        return {
            "status": status.get("result", {}),
            "slo": slo.get("result", {}),
        }

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def render_watch_line(snapshot: dict) -> str:
    """One compact live-view line from :meth:`ServiceClient.watch_snapshot`."""
    status = snapshot.get("status", {})
    slo = snapshot.get("slo", {})
    queue = status.get("queue", {})
    depths = queue.get("depths", {})
    alerts = slo.get("alerts", [])
    burn = 0.0
    for entry in slo.get("classes", {}).values():
        for window in entry.get("windows", []):
            burn = max(burn, window.get("burn_rate", 0.0))
    alert = (
        ",".join(
            f"{a.get('class')}:{a.get('severity')}" for a in alerts
        )
        or "-"
    )
    pool = status.get("pool") or {}
    pool_part = ""
    if pool:
        states = pool.get("states", {})
        pool_part = (
            f" workers={states.get('idle', 0)}i/{states.get('busy', 0)}b"
            f"/{states.get('down', 0)}d"
            f" restarts={pool.get('restarts_total', 0)}"
            f" quarantined={pool.get('quarantine', {}).get('size', 0)}"
        )
    return (
        f"in_flight={status.get('in_flight', 0)}"
        f" queued={sum(depths.values()) if depths else 0}"
        f" answered={status.get('responses_total', 0)}"
        f" shed={queue.get('shed_total', 0)}"
        f"{pool_part}"
        f" burn={burn:.2f}"
        f" alerts={alert}"
        f"{' DRAINING' if status.get('draining') else ''}"
    )


def _parse_param(raw: str):
    key, sep, value = raw.partition("=")
    if not sep:
        raise SystemExit(f"parameter {raw!r} is not key=value")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value  # bare string


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="one-shot nmsld protocol client",
    )
    parser.add_argument("--socket", help="unix socket path")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int)
    parser.add_argument("--deadline", type=float, dest="deadline_s")
    parser.add_argument("--class", dest="cls", default=None)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument(
        "--traceparent",
        default=None,
        help="join an existing trace (W3C 00-<trace>-<span>-01)",
    )
    parser.add_argument(
        "op", help="operation (ping, check, diff, ...; 'watch' = live view)"
    )
    parser.add_argument(
        "params",
        nargs="*",
        help="op parameters as key=value (value parsed as JSON if it parses)",
    )
    args = parser.parse_args(argv)
    params = dict(_parse_param(raw) for raw in args.params)
    with ServiceClient(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        timeout_s=args.timeout,
    ) as client:
        if args.op == "watch":
            interval = float(params.get("interval", 2.0))
            count = params.get("count")
            remaining = int(count) if count is not None else None
            while remaining is None or remaining > 0:
                snapshot = client.watch_snapshot()
                sys.stdout.write(render_watch_line(snapshot) + "\n")
                sys.stdout.flush()
                if remaining is not None:
                    remaining -= 1
                    if remaining == 0:
                        break
                time.sleep(interval)
            return 0
        response = client.request(
            args.op, params, deadline_s=args.deadline_s, cls=args.cls,
            traceparent=args.traceparent,
        )
    sys.stdout.write(
        json.dumps(response, sort_keys=True, separators=(",", ":")) + "\n"
    )
    if response.get("ok"):
        return 0
    return int(response.get("error", {}).get("code", 500)) // 100


if __name__ == "__main__":
    sys.exit(main())
