"""Deadline propagation into the checker, coordinator and reconciler."""

import pytest

from repro.deadline import Deadline
from repro.errors import DeadlineExceeded, ServiceError
from repro.workloads.scenarios import campus_internet


class TestDeadline:
    def test_not_expired(self):
        deadline = Deadline(at_s=10.0, clock=lambda: 3.0)
        assert not deadline.expired
        assert deadline.remaining() == 7.0
        deadline.check("anywhere")  # no raise

    def test_expired_raises_with_context(self):
        deadline = Deadline(at_s=1.0, clock=lambda: 2.5, label="check")
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("consistency.reduce")
        assert "consistency.reduce" in str(excinfo.value)
        assert excinfo.value.at_s == 1.0
        assert excinfo.value.now_s == 2.5

    def test_is_service_error(self):
        with pytest.raises(ServiceError):
            Deadline(at_s=0.0, clock=lambda: 1.0).check()

    def test_after_builds_relative(self):
        now = [5.0]
        deadline = Deadline.after(2.0, clock=lambda: now[0])
        assert not deadline.expired
        now[0] = 7.5
        assert deadline.expired

    def test_poll_tolerates_none(self):
        Deadline.poll(None, "anywhere")  # no raise


def _campus_checker():
    from repro.consistency.checker import ConsistencyChecker
    from repro.nmsl.compiler import compile_text

    compiler, result = compile_text(campus_internet())
    return ConsistencyChecker(result.specification, compiler.tree)


class TestCheckerDeadline:
    def test_expired_deadline_aborts_check(self):
        checker = _campus_checker()
        with pytest.raises(DeadlineExceeded):
            checker.check(
                deadline=Deadline(at_s=0.0, clock=lambda: 1.0)
            )

    def test_generous_deadline_passes(self):
        checker = _campus_checker()
        outcome = checker.check(
            deadline=Deadline(at_s=1e9, clock=lambda: 0.0)
        )
        assert outcome.consistent


class TestCampaignDeadline:
    def test_rollout_deadline_expires(self, tmp_path):
        from repro.service.handlers import SpecCache

        session = SpecCache().get("examples/campus.nmsl")
        with pytest.raises(DeadlineExceeded):
            session.runtime.rollout(
                tag="BartsSnmpd",
                deadline=Deadline(at_s=0.0, clock=lambda: 1.0),
            )

    def test_heal_deadline_expires(self):
        from repro.heal import HealthRegistry
        from repro.service.handlers import SpecCache

        session = SpecCache().get("examples/campus.nmsl")
        configs = session.runtime.rollout_targets("BartsSnmpd")
        with pytest.raises(DeadlineExceeded):
            session.runtime.heal(
                tag="BartsSnmpd",
                registry=HealthRegistry(sorted(configs)),
                rounds=3,
                deadline=Deadline(at_s=0.0, clock=lambda: 1.0),
            )


class TestAnalyzeDeadline:
    """``analyze`` polls its deadline before each pass it runs; an
    abandoned analyze keeps the passes it finished."""

    def test_an_expired_analyze_keeps_the_passes_it_finished(self):
        import itertools

        from repro.operations import ANALYSIS_CODES
        from repro.service.handlers import ServiceHandlers
        from tests.service.test_handlers import CAMPUS, _request

        polls = []

        class Polled(Deadline):
            def check(self, where=""):
                polls.append(where)
                super().check(where)

        unbounded = Polled(float("inf"), itertools.count(1).__next__)
        fresh = ServiceHandlers().run(_request("analyze", unbounded, spec=CAMPUS))
        assert polls == ["service.analyze"] + [
            f"analysis.{code}" for code in ANALYSIS_CODES
        ]
        handlers = ServiceHandlers()
        # The sixth poll, before NM202: four passes are done.
        expiring = Deadline(6, itertools.count(1).__next__)
        frame = handlers.run(_request("analyze", expiring, spec=CAMPUS))
        assert frame["ok"] is False and frame["kind"] == "deadline"
        assert "analysis.NM202" in frame["message"]
        request = _request("analyze", spec=CAMPUS)
        assert handlers.run(request)["result"] == fresh["result"]
        assert request.resources["passes_run"] == 5
