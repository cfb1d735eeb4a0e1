"""Admission control: bounded queues, shed ordering, dispatch scan."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.deadline import Deadline
from repro.service.admission import AdmissionController


@dataclass
class FakeRequest:
    id: str
    cls: str
    deadline: Optional[Deadline] = None
    campaign_key: Optional[str] = None


def _req(request_id: str, cls: str, deadline_at=None, clock=None):
    deadline = None
    if deadline_at is not None:
        deadline = Deadline(at_s=deadline_at, clock=clock or (lambda: 0.0))
    return FakeRequest(id=request_id, cls=cls, deadline=deadline)


class TestOffer:
    def test_admits_under_capacity(self):
        controller = AdmissionController(capacity=2)
        assert controller.offer(_req("a", "bulk")) == (True, None)
        assert controller.offer(_req("b", "interactive")) == (True, None)
        assert controller.depth() == 2

    def test_rejects_when_nothing_below(self):
        controller = AdmissionController(capacity=1)
        controller.offer(_req("a", "bulk"))
        admitted, victim = controller.offer(_req("b", "bulk"))
        assert not admitted and victim is None
        assert controller.rejected_total == 1

    def test_sheds_newest_of_lowest_class(self):
        controller = AdmissionController(capacity=3)
        controller.offer(_req("n1", "normal"))
        controller.offer(_req("b1", "bulk"))
        controller.offer(_req("b2", "bulk"))
        admitted, victim = controller.offer(_req("i1", "interactive"))
        assert admitted
        assert victim.id == "b2"  # newest request of the lowest class
        assert controller.depths() == {
            "interactive": 1, "normal": 1, "bulk": 1,
        }

    def test_sheds_bulk_before_normal(self):
        controller = AdmissionController(capacity=2)
        controller.offer(_req("n1", "normal"))
        controller.offer(_req("b1", "bulk"))
        _admitted, victim = controller.offer(_req("i1", "interactive"))
        assert victim.id == "b1"

    def test_normal_sheds_only_bulk(self):
        controller = AdmissionController(capacity=2)
        controller.offer(_req("i1", "interactive"))
        controller.offer(_req("n1", "normal"))
        admitted, victim = controller.offer(_req("n2", "normal"))
        assert not admitted and victim is None  # nothing strictly below

    def test_interactive_never_shed_by_interactive(self):
        controller = AdmissionController(capacity=1)
        controller.offer(_req("i1", "interactive"))
        admitted, victim = controller.offer(_req("i2", "interactive"))
        assert not admitted and victim is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=0)


class TestDrain:
    def test_takes_every_request_in_rank_order_then_fifo(self):
        controller = AdmissionController(capacity=8)
        for request_id, cls in (
            ("b1", "bulk"), ("n1", "normal"), ("i1", "interactive"),
            ("b2", "bulk"), ("i2", "interactive"),
        ):
            controller.offer(_req(request_id, cls))
        drained = controller.drain()
        assert [request.id for request in drained] == [
            "i1", "i2", "n1", "b1", "b2",
        ]
        assert controller.depth() == 0
        assert controller.drain() == []
        assert controller.offer(_req("i3", "interactive")) == (True, None)

    def test_the_depth_gauge_reads_the_emptied_queues(self):
        from repro import obs

        with obs.scope(obs.logical_observability()) as session:
            controller = AdmissionController(capacity=8)
            controller.offer(_req("b1", "bulk"))
            controller.offer(_req("i1", "interactive"))
            controller.drain()
        for cls in ("interactive", "normal", "bulk"):
            assert session.metrics.value(
                "repro_service_queue_depth", **{"class": cls}
            ) == 0, cls


class TestPopNext:
    def test_rank_order_then_fifo(self):
        controller = AdmissionController(capacity=8)
        for request in (
            _req("b1", "bulk"), _req("i1", "interactive"),
            _req("n1", "normal"), _req("i2", "interactive"),
        ):
            controller.offer(request)
        order = []
        while True:
            action = controller.pop_next(0.0, lambda request: True)
            if action is None:
                break
            order.append(action[0].id)
        assert order == ["i1", "i2", "n1", "b1"]

    def test_skips_blocked_requests(self):
        controller = AdmissionController(capacity=8)
        blocked = FakeRequest(id="b1", cls="bulk", campaign_key="conflict")
        free = FakeRequest(id="b2", cls="bulk")
        controller.offer(blocked)
        controller.offer(free)
        action = controller.pop_next(
            0.0, lambda request: request.campaign_key is None
        )
        assert action == (free, "run")
        assert controller.depth() == 1  # blocked one still queued

    def test_expired_popped_first(self):
        clock_now = 10.0
        controller = AdmissionController(capacity=8)
        expired = _req("e1", "interactive", deadline_at=5.0,
                       clock=lambda: clock_now)
        live = _req("l1", "interactive")
        controller.offer(expired)
        controller.offer(live)
        action = controller.pop_next(clock_now, lambda request: True)
        assert action == (expired, "expired")
        action = controller.pop_next(clock_now, lambda request: True)
        assert action == (live, "run")

    def test_all_blocked_returns_none(self):
        controller = AdmissionController(capacity=8)
        controller.offer(_req("b1", "bulk"))
        assert controller.pop_next(0.0, lambda request: False) is None
