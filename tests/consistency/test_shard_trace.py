"""A sharded check is one connected trace: the span subtrees of the
forked shard workers splice into the trace the caller adopted.

``nmsld`` refuses ``jobs`` (a pool worker may not fork), so the sharded
reduction is held to this here, on the checker, under an adopted
request context the way the service's handler runner sets one up."""

from pathlib import Path

import pytest

from repro import obs
from repro.consistency.checker import ConsistencyChecker
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.obs import LogicalClock
from repro.obs.context import TraceContext

CAMPUS = Path(__file__).resolve().parents[2] / "examples" / "campus.nmsl"
REQUEST = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)


@pytest.fixture(scope="module")
def compiled():
    compiler = NmslCompiler(CompilerOptions(register_codegen=False))
    result = compiler.compile(CAMPUS.read_text(encoding="utf-8"))
    return result.specification, compiler.tree


def sharded_check(compiled):
    """One cold ``check(jobs=2)`` forced to shard; returns the session."""
    specification, tree = compiled
    with obs.scope(clock=LogicalClock()) as session:
        with session.adopt(REQUEST):
            with session.span("service.request", op="check"):
                ConsistencyChecker(
                    specification, tree, shard_threshold=1
                ).check(jobs=2)
    return session


class TestShardTrace:
    def test_shard_spans_join_the_adopted_trace(self, compiled):
        records = sharded_check(compiled).tracer.finished()
        names = {r.name for r in records}
        assert {"service.request", "consistency.check"} <= names
        assert "consistency.shard" in names  # the forked subtrees
        known = {r.span_id for r in records} | {REQUEST.span_id}
        assert all(
            r.trace_id == REQUEST.trace_id and r.parent_id in known
            for r in records
        )

    def test_shard_spans_land_on_spliced_virtual_tids(self, compiled):
        """Forked-worker spans render on their own virtual thread, not
        the caller's (distinct-tids-per-worker is unit-tested in
        tests/obs/test_context.py — campus shards to one bucket)."""
        by_name = {
            r.name: r for r in sharded_check(compiled).tracer.finished()
        }
        assert (
            by_name["consistency.shard"].tid
            != by_name["service.request"].tid
        )

    def test_trace_byte_identical_across_same_seed_runs(self, compiled):
        first = sharded_check(compiled).tracer.to_jsonl()
        assert first  # non-empty
        assert first == sharded_check(compiled).tracer.to_jsonl()
