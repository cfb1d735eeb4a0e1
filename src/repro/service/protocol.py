"""The ``nmsld`` wire protocol: newline-delimited JSON, one message per line.

Requests::

    {"id": "r1", "op": "check", "params": {"spec": "internet.nmsl"},
     "deadline_s": 5.0}

* ``id`` — optional client-chosen token, echoed verbatim on the
  response; the server assigns ``"req-N"`` when absent.
* ``op`` — one of :data:`OPS`.
* ``params`` — op-specific object, declared in :mod:`repro.operations`
  (see ``docs/SERVICE.md``); checked here, at admission, once: the
  parsed request carries the typed values as ``args``.
* ``class`` — optional priority-class override (one of
  ``interactive``/``normal``/``bulk``); defaults per op via
  :data:`OP_CLASS`.  A request may *demote* itself freely but may not
  promote a bulk op into the interactive class.
* ``deadline_s`` — optional relative deadline budget in seconds,
  propagated into the checker/coordinator/reconciler.
* ``cost_s`` — declared service cost; only meaningful to the simulated
  runtime (deterministic service times), ignored by ``nmsld`` proper.

Responses are either results or structured errors — **never** silent
drops::

    {"id": "r1", "ok": true, "op": "check", "class": "interactive",
     "result": {...}, "timing": {"queued_s": ..., "total_s": ...}}
    {"id": "r2", "ok": false, "op": "rollout", "error": {"code": 503,
     "kind": "shed", "message": "...", "retry_after_s": 0.8}}

Error kinds and their HTTP-style codes:

=================== ==== ==============================================
``bad-request``      400 malformed JSON / missing or invalid fields /
                         unknown, mistyped or out-of-range parameter
``frame-too-large``  413 no newline within :data:`MAX_FRAME_BYTES`;
                         the connection is closed after this reply
``header-too-large`` 431 an HTTP request line or header longer than
                         :data:`MAX_HTTP_LINE_BYTES`, or more than
                         :data:`MAX_HTTP_HEADERS` headers (``--http-port``
                         only; answered as the HTTP status, then closed)
``unknown-op``       404 ``op`` not in :data:`OPS`
``compile``          422 the specification does not compile
``vetoed``           403 relational gate refused the campaign (NM401 unwaived)
``queue-full``       503 bounded queue full; nothing lower-priority to shed
``shed``             503 evicted from the queue by a higher-priority arrival
``draining``         503 daemon is draining (SIGTERM received)
``circuit-open``     503 campaign circuit breaker open (repeat offender)
``worker-lost``      503 a pool worker died mid-request and the op is not
                         replayable (or its replay budget is spent)
``quarantined``      503 the request's fingerprint is in the poison-request
                         registry (killed workers twice; NM501)
``deadline``         504 deadline expired (queued or mid-execution)
``internal``         500 unexpected server-side failure
=================== ==== ==============================================

Serialisation is deterministic: ``sort_keys=True``, compact separators —
same-seed simulated runs serialise byte-identical transcripts.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.obs.context import TraceContext
from repro.operations import resolve

#: Longest request line ``nmsld`` reads (asyncio's default is 64 KiB).
MAX_FRAME_BYTES = 256 * 1024

#: Longest line, and most header lines, the ``--http-port`` endpoints
#: read before answering ``header-too-large``.
MAX_HTTP_LINE_BYTES = 8 * 1024
MAX_HTTP_HEADERS = 100

#: Priority classes in rank order — rank 0 is served first, the highest
#: rank is shed first.
PRIORITY_CLASSES: Tuple[str, ...] = ("interactive", "normal", "bulk")

CLASS_RANK: Dict[str, int] = {
    name: rank for rank, name in enumerate(PRIORITY_CLASSES)
}

#: Default priority class per operation.
OP_CLASS: Dict[str, str] = {
    "ping": "interactive",
    "status": "interactive",
    "slo": "interactive",
    "compile": "interactive",
    "check": "interactive",
    "diff": "interactive",
    "analyze": "normal",
    "rollout": "bulk",
    "heal": "bulk",
}

OPS: Tuple[str, ...] = tuple(sorted(OP_CLASS))

#: Ops that run campaigns over element sets (bulkhead-protected).
CAMPAIGN_OPS: Tuple[str, ...] = ("rollout", "heal")

#: Ops eligible for the multi-process worker pool: CPU-bound, stateless
#: with respect to the daemon (their only shared state is the warm spec
#: cache, which each worker owns a copy of).  Campaigns (rollout/heal)
#: mutate the shared simulated fabric and write journals — they stay
#: in-process; trivial ops (ping/status/slo) read core state directly.
POOLED_OPS: Tuple[str, ...] = ("analyze", "check", "compile", "diff")

#: Ops that may be transparently re-executed after a worker death: pure
#: reads of (spec text, cache state), so at-least-once execution is
#: indistinguishable from exactly-once.  Campaigns are deliberately
#: absent — a rollout interrupted by a worker death must surface as a
#: structured 503, never re-apply (its journal already guarantees
#: crash-resume without double application).
IDEMPOTENT_OPS = frozenset(
    {"analyze", "check", "compile", "diff", "ping", "slo", "status"}
)

#: Error kinds caused by the request itself (malformed, uncompilable,
#: policy-vetoed, poison-quarantined) rather than by service health —
#: excluded from availability SLO accounting, as 4xx-class outcomes
#: conventionally are.  ``quarantined`` counts as a client fault: the
#: registry only holds fingerprints that killed workers twice.
CLIENT_FAULT_KINDS = frozenset(
    {
        "bad-request", "frame-too-large", "header-too-large", "unknown-op",
        "compile", "vetoed", "quarantined",
    }
)

ERROR_CODES: Dict[str, int] = {
    "bad-request": 400,
    "frame-too-large": 413,
    "header-too-large": 431,
    "unknown-op": 404,
    "compile": 422,
    "vetoed": 403,
    "queue-full": 503,
    "shed": 503,
    "draining": 503,
    "circuit-open": 503,
    "worker-lost": 503,
    "quarantined": 503,
    "deadline": 504,
    "internal": 500,
}


class ProtocolError(ServiceError):
    """A request that cannot be admitted; carries its error kind."""

    def __init__(self, kind: str, message: str, request_id=None):
        if kind not in ERROR_CODES:
            raise ValueError(f"unknown protocol error kind {kind!r}")
        self.kind = kind
        self.code = ERROR_CODES[kind]
        self.request_id = request_id
        super().__init__(message)


def op_arguments(op: str, params: dict, request_id=None) -> dict:
    """*params* resolved against *op*'s declared parameters, defaults
    filled in; a ``bad-request`` naming the op and the parameter
    otherwise."""
    try:
        return resolve(op, params)
    except ValueError as exc:
        raise ProtocolError("bad-request", str(exc), request_id) from None


def parse_request(line: str) -> dict:
    """Parse and validate one request line into a plain dict.

    Raises :class:`ProtocolError` (kind ``bad-request`` or
    ``unknown-op``) with as much of the request id preserved as could be
    recovered, so the caller can still address the error response.
    """
    line = line.strip()
    if not line:
        raise ProtocolError("bad-request", "empty request line")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-request", f"malformed JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError(
            "bad-request", "id must be a string or integer", None
        )
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "missing op", request_id)
    if op not in OP_CLASS:
        raise ProtocolError(
            "unknown-op",
            f"unknown op {op!r} (have: {', '.join(OPS)})",
            request_id,
        )
    params = message.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            "bad-request", "params must be an object", request_id
        )
    cls = message.get("class", OP_CLASS[op])
    if cls not in CLASS_RANK:
        raise ProtocolError(
            "bad-request",
            f"unknown class {cls!r} (have: {', '.join(PRIORITY_CLASSES)})",
            request_id,
        )
    if CLASS_RANK[cls] < CLASS_RANK[OP_CLASS[op]]:
        raise ProtocolError(
            "bad-request",
            f"op {op!r} may not promote itself to class {cls!r}",
            request_id,
        )
    deadline_s = message.get("deadline_s")
    if deadline_s is not None:
        if not isinstance(deadline_s, (int, float)) or deadline_s <= 0:
            raise ProtocolError(
                "bad-request", "deadline_s must be a positive number",
                request_id,
            )
    cost_s = message.get("cost_s")
    if cost_s is not None:
        if not isinstance(cost_s, (int, float)) or cost_s < 0:
            raise ProtocolError(
                "bad-request", "cost_s must be a non-negative number",
                request_id,
            )
    traceparent = message.get("traceparent")
    if traceparent is not None:
        try:
            TraceContext.from_traceparent(traceparent)
        except ValueError as exc:
            raise ProtocolError("bad-request", str(exc), request_id) from None
    return {
        "id": request_id,
        "op": op,
        "params": params,
        "args": op_arguments(op, params, request_id),
        "class": cls,
        "deadline_s": deadline_s,
        "cost_s": cost_s,
        "traceparent": traceparent,
    }


def result_response(
    request_id, op: str, cls: str, result: dict,
    timing: Optional[dict] = None,
    traceparent: Optional[str] = None,
    resources: Optional[dict] = None,
) -> dict:
    response = {
        "id": request_id,
        "ok": True,
        "op": op,
        "class": cls,
        "result": result,
    }
    if timing is not None:
        response["timing"] = timing
    if traceparent is not None:
        response["traceparent"] = traceparent
    if resources is not None:
        response["resources"] = resources
    return response


def error_response(
    request_id,
    kind: str,
    message: str,
    op: Optional[str] = None,
    cls: Optional[str] = None,
    traceparent: Optional[str] = None,
    **details,
) -> dict:
    """A structured refusal (503-style shed, 504 deadline, ...)."""
    error = {"code": ERROR_CODES[kind], "kind": kind, "message": message}
    for key in sorted(details):
        if details[key] is not None:
            error[key] = details[key]
    response = {"id": request_id, "ok": False, "error": error}
    if op is not None:
        response["op"] = op
    if cls is not None:
        response["class"] = cls
    if traceparent is not None:
        response["traceparent"] = traceparent
    return response


def encode_message(message: dict) -> str:
    """One wire line: deterministic compact JSON plus the newline."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    )
