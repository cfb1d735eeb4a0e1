"""The bulk-load collector policy leaves no trace.

``repro.collector.bulk_load`` is the one place the library changes the
cyclic collector's thresholds.  Whatever runs inside it — ``nmslc``, a
cold ``check()``, a structural ``recheck()``, a sharded check, a failure
in any of them — the interpreter's policy afterwards is the one found.
"""

import gc
import os
import threading

import pytest

from repro import cli, collector
from repro.consistency import evolution
from repro.consistency.checker import ConsistencyChecker
from repro.deadline import Deadline
from repro.nmsl import specs
from repro.errors import DeadlineExceeded
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.paper import (
    PAPER_SPEC_TEXT,
    PaperScaleInternet,
    PaperScaleParameters,
)

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))
RAISED = collector.BULK_LOAD_GEN0_THRESHOLD


@pytest.fixture
def odd_policy():
    """An unusual starting point, so "restored" cannot mean "reset to the
    interpreter default"; asserted unchanged on the way out."""
    before = gc.get_threshold()
    gc.set_threshold(701, 11, 12)
    try:
        yield
        assert gc.get_threshold() == (701, 11, 12)
        assert gc.isenabled()
    finally:
        gc.set_threshold(*before)


def _internet(**overrides):
    parameters = dict(
        n_domains=6, systems_per_domain=3, applications_per_domain=2,
        silent_domains=(1,), fast_pollers=(2,),
    )
    parameters.update(overrides)
    return SyntheticInternet(InternetParameters(**parameters)).specification()


class _Probe:
    """Records the threshold at the moment the reduction starts."""

    def __init__(self, monkeypatch):
        self.seen = []
        reduce = ConsistencyChecker._reduce

        def probed(checker, *args, **kwargs):
            self.seen.append(gc.get_threshold()[0])
            return reduce(checker, *args, **kwargs)

        monkeypatch.setattr(ConsistencyChecker, "_reduce", probed)


class TestScope:
    def test_raises_and_restores(self, odd_policy):
        with collector.bulk_load():
            assert gc.get_threshold() == (RAISED, 11, 12)

    def test_nested_scope_changes_nothing(self, odd_policy):
        with collector.bulk_load():
            with collector.bulk_load():
                assert gc.get_threshold() == (RAISED, 11, 12)
            # The inner exit must not put the default back early.
            assert gc.get_threshold() == (RAISED, 11, 12)

    def test_restores_after_exception(self, odd_policy):
        with pytest.raises(RuntimeError):
            with collector.bulk_load():
                with collector.bulk_load():
                    raise RuntimeError("boom")

    def test_disabled_collector_stays_disabled(self, odd_policy):
        gc.disable()
        try:
            with collector.bulk_load():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_overlapping_threads(self, odd_policy):
        """A enters, B enters, A leaves, B leaves: raised until the last
        one is out, then back to what the first one found."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with collector.bulk_load():
                a_in.set()
                assert b_in.wait(10)
            seen["after_a"] = gc.get_threshold()
            a_out.set()

        def second():
            assert a_in.wait(10)
            with collector.bulk_load():
                b_in.set()
                assert a_out.wait(10)
                seen["b_alone"] = gc.get_threshold()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
            assert not thread.is_alive()
        assert seen == {
            "after_a": (RAISED, 11, 12),
            "b_alone": (RAISED, 11, 12),
        }

    def test_many_threads_race(self, odd_policy):
        """More threads than cores hammering the scope: the depth count
        must never lose an update (a lost one leaves the threshold
        raised, or restores it while someone is still inside)."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        wrong = []

        def worker():
            for _ in range(300):
                with collector.bulk_load():
                    if gc.get_threshold()[0] != RAISED:
                        wrong.append(gc.get_threshold())

        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_exit_promotes_without_leaving_a_backlog(self, odd_policy):
        """What the block allocated is spliced into the oldest generation
        on the way out: no young backlog for the next allocation to
        trigger a pass over, and nothing left frozen."""
        with collector.bulk_load():
            kept = [[index] for index in range(5_000)]
            assert gc.get_count()[0] > 4_000
        assert gc.get_count()[0] < 700
        assert gc.get_freeze_count() == 0
        assert len(kept) == 5_000

    def test_exit_leaves_a_frozen_heap_frozen(self, odd_policy):
        """A forked pool worker runs on a heap its parent froze for it;
        the scope must not thaw that."""
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen
            with collector.bulk_load():
                pass
            # (A few frozen objects may die by reference count meanwhile.)
            assert gc.get_freeze_count() > frozen // 2
        finally:
            gc.unfreeze()

    def test_fork_freeze_waits_for_an_exiting_scope(self, odd_policy):
        """The last exit checks "frozen?" and then freezes + unfreezes
        under the module lock; ``frozen_fork_heap`` freezes under the
        same lock, so it can never land between the check and the
        unfreeze (which would thaw the heap just before the fork)."""
        inside, done = threading.Event(), threading.Event()

        def forker():
            with collector.frozen_fork_heap():
                inside.set()
                assert done.wait(10)

        thread = threading.Thread(target=forker)
        with collector._lock:  # an exit in progress
            thread.start()
            assert not inside.wait(0.3)
            assert gc.get_freeze_count() == 0
        try:
            assert inside.wait(10)
            frozen = gc.get_freeze_count()
            assert frozen
            with collector.bulk_load():
                pass
            assert gc.get_freeze_count() > frozen // 2
        finally:
            done.set()
            thread.join(10)
        assert not thread.is_alive()
        assert gc.get_freeze_count() == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_with_no_scope_open(self, odd_policy):
        """Fork while another thread is inside the scope and holds the
        lock: the child (where that thread does not exist) must find the
        policy restored, the depth at zero and the lock free."""
        entered, release = threading.Event(), threading.Event()

        def other():
            with collector.bulk_load(), collector._lock:
                entered.set()
                assert release.wait(10)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert entered.wait(10)
            pid = os.fork()
            if pid == 0:
                ok = (
                    gc.get_threshold() == (701, 11, 12)
                    and collector._depth == 0
                    and collector._lock.acquire(timeout=2)
                )
                os._exit(0 if ok else 1)
            _, status = os.waitpid(pid, 0)
            assert status == 0
            assert gc.get_threshold() == (RAISED, 11, 12)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_watch_removes_its_callback(self):
        before = list(gc.callbacks)
        with collector.collector_watch() as tally:
            assert len(gc.callbacks) == len(before) + 1
            gc.collect()
        assert gc.callbacks == before
        assert tally["gc_collections"] >= 1
        assert tally["gc_pause_s"] >= 0.0


class TestCheckerScopes:
    def test_cold_check_is_scoped_and_restores(self, odd_policy, monkeypatch):
        probe = _Probe(monkeypatch)
        ConsistencyChecker(_internet(), _COMPILER.tree).check()
        assert probe.seen == [RAISED]

    def test_warm_check_is_not_scoped(self, odd_policy, monkeypatch):
        checker = ConsistencyChecker(_internet(), _COMPILER.tree)
        cold = checker.check()
        probe = _Probe(monkeypatch)
        warm = checker.check()
        # An unchanged fact set is not reduced again at all.
        assert probe.seen == []
        assert warm.render() == cold.render()

    def test_structural_recheck_is_scoped(self, odd_policy, monkeypatch):
        checker = ConsistencyChecker(_internet(), _COMPILER.tree)
        checker.check()
        probe = _Probe(monkeypatch)
        result = checker.recheck(_internet(systems_per_domain=4))
        assert not result.stats["patched"]
        assert probe.seen == [RAISED]

    def test_exports_recheck_is_not_scoped(self, odd_policy, monkeypatch):
        checker = ConsistencyChecker(_internet(), _COMPILER.tree)
        checker.check()
        probe = _Probe(monkeypatch)
        result = checker.recheck(_internet(silent_domains=(1, 2)))
        assert result.stats["patched"]
        assert probe.seen == [701]

    def test_sharded_check_restores(self, odd_policy):
        serial = ConsistencyChecker(_internet(), _COMPILER.tree).check()
        sharded = ConsistencyChecker(
            _internet(), _COMPILER.tree, shard_threshold=1
        ).check(jobs=2)
        assert sharded.to_json() == serial.to_json()

    @pytest.mark.parametrize("call", ["check", "recheck"])
    def test_restored_after_failure_inside(self, odd_policy, call):
        ticks = iter(range(1000))
        # check() polls on entry (tick 0) and again in the reduction
        # (tick 1); recheck() polls in the reduction only.  Either way
        # the failure comes from inside the scope.
        deadline = Deadline(
            at_s=1 if call == "check" else 0, clock=lambda: next(ticks)
        )
        checker = ConsistencyChecker(_internet(), _COMPILER.tree)
        with pytest.raises(DeadlineExceeded) as caught:
            if call == "check":
                checker.check(deadline=deadline)
            else:
                checker.check()
                checker.recheck(
                    _internet(systems_per_domain=4), deadline=deadline
                )
        assert caught.value.args and "consistency.reduce" in str(caught.value)

    def test_facts_access_alone_restores(self, odd_policy):
        assert ConsistencyChecker(_internet(), _COMPILER.tree).facts.instances


class TestDiffScope:
    def test_diff_of_two_compiles_is_scoped_and_runs_no_full_pass(
        self, odd_policy, monkeypatch
    ):
        """Two separately compiled versions share no declaration, so the
        diff fingerprints every one: a bulk phase the cold check no
        longer pre-pays inside its own scope."""
        text = PaperScaleInternet(
            PaperScaleParameters(n_domains=60, hub_count=4, seed=7)
        ).text()
        old, new = (_COMPILER.compile(text).specification for _ in range(2))
        seen = []
        cached = specs._cached_fingerprint

        def probed(declaration, compute):
            seen.append(gc.get_threshold()[0])
            return cached(declaration, compute)

        monkeypatch.setattr(specs, "_cached_fingerprint", probed)
        full_passes = []

        def on_pass(phase, info):
            if phase == "start" and info["generation"] == 2:
                full_passes.append(info)

        gc.callbacks.append(on_pass)
        try:
            diff = evolution.diff_specifications(old, new)
        finally:
            gc.callbacks.remove(on_pass)
        assert diff.is_empty()
        assert seen and set(seen) == {RAISED}
        assert full_passes == []


class TestUnderMain:
    def test_checker_scope_under_main_is_a_no_op(
        self, odd_policy, monkeypatch, tmp_path, capsys
    ):
        """main() holds the scope; the cold check inside it neither
        raises the threshold again nor restores it on the way out."""
        spec = tmp_path / "paper.nmsl"
        spec.write_text(PAPER_SPEC_TEXT)
        after_check = []
        check = ConsistencyChecker.check

        def probed(checker, *args, **kwargs):
            result = check(checker, *args, **kwargs)
            after_check.append(gc.get_threshold())
            return result

        monkeypatch.setattr(ConsistencyChecker, "check", probed)
        assert cli.main([str(spec), "--check"]) == 0
        assert after_check == [(RAISED, 11, 12)]


class TestDaemonColdPath:
    """``nmsld`` compiles a specification under the same scope ``nmslc``
    does (``SpecSession``), in the daemon and in a pool worker alike."""

    @pytest.fixture
    def compile_sees(self, monkeypatch):
        seen = []
        compile_ = NmslCompiler.compile

        def probed(compiler, text):
            seen.append(gc.get_threshold()[0])
            return compile_(compiler, text)

        monkeypatch.setattr(NmslCompiler, "compile", probed)
        return seen

    def test_cache_miss_is_scoped_and_a_hit_is_not(
        self, odd_policy, compile_sees, tmp_path
    ):
        from repro.service.handlers import SpecCache

        spec = tmp_path / "paper.nmsl"
        spec.write_text(PAPER_SPEC_TEXT)
        cache = SpecCache()
        session = cache.get(str(spec))
        assert compile_sees == [RAISED]
        assert gc.get_threshold() == (701, 11, 12)
        assert cache.get(str(spec)) is session
        assert compile_sees == [RAISED]

    def test_restored_after_a_compile_error(
        self, odd_policy, compile_sees, tmp_path
    ):
        from repro.service.handlers import SpecCache
        from repro.service.protocol import ProtocolError

        spec = tmp_path / "broken.nmsl"
        spec.write_text("domain d ::= system nowhere; end domain d.\n")
        with pytest.raises(ProtocolError) as caught:
            SpecCache().get(str(spec))
        assert caught.value.kind == "compile"
        assert compile_sees == [RAISED]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_pool_worker_keeps_the_policy_it_was_forked_with(
        self, odd_policy, tmp_path
    ):
        """A real worker main loop in a forked child: cold check (cache
        miss), warm check, a spec that does not compile; the child then
        reports what its collector policy reads."""
        import multiprocessing

        from repro.service.pool import _pool_worker_main

        good = tmp_path / "paper.nmsl"
        good.write_text(PAPER_SPEC_TEXT)
        broken = tmp_path / "broken.nmsl"
        broken.write_text("domain d ::= system nowhere; end domain d.\n")
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        report_out, report_in = context.Pipe(duplex=False)

        def child(supervisor_pid):
            _pool_worker_main(0, child_conn, supervisor_pid, 8, 60.0)
            report_in.send((gc.get_threshold(), gc.isenabled()))

        process = context.Process(target=child, args=(os.getpid(),))
        process.start()
        try:
            answers = []
            for index, path in enumerate((good, good, broken)):
                parent_conn.send(("req", {
                    "id": f"r{index}", "op": "check", "cls": "interactive",
                    "params": {"spec": str(path)},
                }))
                assert parent_conn.poll(60)
                kind, frame = parent_conn.recv()
                assert kind == "res"
                answers.append(frame)
            parent_conn.send(("exit",))
            assert report_out.poll(30)
            policy = report_out.recv()
        finally:
            process.join(30)
            if process.is_alive():
                process.kill()
                process.join(10)
        assert not process.is_alive()
        assert [frame["ok"] for frame in answers] == [True, True, False]
        assert [frame["result"]["warm"] for frame in answers[:2]] == [
            False, True,
        ]
        assert answers[2]["kind"] == "compile"
        assert policy == ((701, 11, 12), True)
