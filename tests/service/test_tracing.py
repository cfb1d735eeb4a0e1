"""End-to-end request tracing through the service: one ``check`` yields
one *connected* trace — every span carries the request's trace id,
every parent link resolves, the envelope names the trace, the audit log
and campaign journal join on it, and two same-seed logical-clock runs
serialize the trace byte-identically.  (The sharded reduction's trace,
which the service no longer runs, is held in
``tests/consistency/test_shard_trace.py``.)"""

import json

import pytest

from repro import obs
from repro.obs import LogicalClock
from repro.obs.context import TraceContext
from repro.service.core import ServiceConfig
from repro.service.runtime import SimulatedServiceRuntime

CAMPUS = "examples/campus.nmsl"
CS_ELEMENTS = ["gw.cs.campus.edu", "db.cs.campus.edu"]


def run_one_check(audit_path=None, traceparent=None):
    """One check through the simulated runtime under a logical clock;
    returns (response, session) with the session's tracer."""
    with obs.scope(clock=LogicalClock()) as session:
        runtime = SimulatedServiceRuntime(
            config=ServiceConfig(workers=2, audit_path=audit_path)
        )
        message = {
            "id": "r1",
            "op": "check",
            "params": {"spec": CAMPUS},
            "cost_s": 0.01,
        }
        if traceparent is not None:
            message["traceparent"] = traceparent
        runtime.offer(0.0, message)
        (response,) = runtime.run()
    return response, session


def connected(records, trace_id, roots):
    """Every record carries *trace_id* and parents resolve within the
    trace (or onto a known root)."""
    known = {r.span_id for r in records} | set(roots) | {""}
    return all(
        r.trace_id == trace_id and r.parent_id in known for r in records
    )


class TestConnectedTrace:
    def test_single_check_yields_one_connected_trace(self):
        response, session = run_one_check()
        assert response["ok"], response
        context = TraceContext.from_traceparent(response["traceparent"])
        records = session.tracer.finished()
        assert records, "the check must record spans"
        in_trace = [r for r in records if r.trace_id == context.trace_id]
        names = {r.name for r in in_trace}
        assert "service.request" in names
        assert "consistency.check" in names
        assert connected(in_trace, context.trace_id, {context.span_id})

    def test_no_spans_escape_the_request_trace(self):
        """With one request in flight, *every* span the service records
        belongs to its trace — nothing executes untraced."""
        response, session = run_one_check()
        context = TraceContext.from_traceparent(response["traceparent"])
        orphans = [
            r.name
            for r in session.tracer.finished()
            if r.trace_id != context.trace_id
        ]
        assert orphans == []

    def test_single_job_check_is_equally_connected(self):
        """The service checks in one job: no shard subtree to splice."""
        response, session = run_one_check()
        context = TraceContext.from_traceparent(response["traceparent"])
        records = [
            r
            for r in session.tracer.finished()
            if r.trace_id == context.trace_id
        ]
        (check,) = [r for r in records if r.name == "consistency.check"]
        assert dict(check.attrs)["jobs"] == 1
        assert "consistency.shard" not in {r.name for r in records}
        assert connected(records, context.trace_id, {context.span_id})


class TestDeterminism:
    def test_trace_byte_identical_across_same_seed_runs(self):
        first_response, first = run_one_check()
        second_response, second = run_one_check()
        assert first_response == second_response
        assert first.tracer.to_jsonl() == second.tracer.to_jsonl()
        assert first.tracer.to_jsonl()  # non-empty


class TestEnvelope:
    def test_response_traceparent_is_well_formed(self):
        response, _ = run_one_check()
        context = TraceContext.from_traceparent(response["traceparent"])
        # The service's default allocator seed prefixes the trace id.
        assert context.trace_id.startswith(f"{0x1989:08x}")

    def test_client_traceparent_joins_the_existing_trace(self):
        client_trace = "ab" * 16
        response, session = run_one_check(
            traceparent=f"00-{client_trace}-{'cd' * 8}-01"
        )
        context = TraceContext.from_traceparent(response["traceparent"])
        assert context.trace_id == client_trace  # same trace...
        assert context.span_id != "cd" * 8  # ...fresh server span
        assert any(
            r.trace_id == client_trace
            for r in session.tracer.finished()
        )

    def test_malformed_traceparent_is_a_bad_request(self):
        response, _ = run_one_check(traceparent="not-a-traceparent")
        assert not response["ok"]
        assert response["error"]["kind"] == "bad-request"

    def test_simulated_envelope_has_no_resource_noise(self):
        """The simulated runtime keeps resource accounting off so
        logical-clock transcripts stay byte-identical."""
        response, _ = run_one_check()
        assert "resources" not in response


class TestAuditJoin:
    def test_audit_events_share_the_request_trace(self, tmp_path):
        audit_path = tmp_path / "audit.jsonl"
        response, _ = run_one_check(audit_path=str(audit_path))
        context = TraceContext.from_traceparent(response["traceparent"])
        events = [
            json.loads(line)
            for line in audit_path.read_text().splitlines()
        ]
        # Worker lifecycle events are keyed by worker, not by a trace.
        events = [e for e in events if not e["event"].startswith("worker-")]
        assert {e["event"] for e in events} == {"admit", "response"}
        assert all(e["trace_id"] == context.trace_id for e in events)
        assert all(e["request_id"] == "r1" for e in events)


class TestJournalJoin:
    def test_campaign_journal_stamped_with_the_request_trace(
        self, tmp_path
    ):
        with obs.scope(clock=LogicalClock()):
            runtime = SimulatedServiceRuntime(
                config=ServiceConfig(
                    workers=2, journal_dir=str(tmp_path)
                )
            )
            runtime.offer(
                0.0,
                {
                    "id": "c1",
                    "op": "rollout",
                    "params": {
                        "spec": CAMPUS,
                        "elements": CS_ELEMENTS,
                        "seed": 7,
                    },
                    "cost_s": 1.0,
                },
            )
            (response,) = runtime.run()
        assert response["ok"], response
        context = TraceContext.from_traceparent(response["traceparent"])
        journal_path = response["result"]["journal"]
        records = [
            json.loads(line)
            for line in open(journal_path, encoding="utf-8")
        ]
        assert records
        assert all(
            record.get("trace_id") == context.trace_id
            for record in records
        )
