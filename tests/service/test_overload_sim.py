"""Overload chaos on the deterministic simulated runtime.

The acceptance properties of the robustness layer, proved on the logical
clock where they are decidable:

* at 2x queue capacity only the lowest-priority class is shed, every
  refusal is structured (no silent drops: #responses == #requests);
* a deadline shorter than the declared service cost expires *mid-check*
  and surfaces as a 504, not a hang or a wrong answer;
* two campaigns over disjoint element sets run concurrently to
  completion — neither starves the other, and an overlapping campaign
  waits without blocking the independent one behind it;
* graceful drain answers everything still queued;
* the full transcript is byte-identical across same-seed runs.
"""

from pathlib import Path

import pytest

from repro.service.core import ServiceConfig
from repro.service.runtime import SimulatedServiceRuntime

CAMPUS = "examples/campus.nmsl"
CS_ELEMENTS = ["gw.cs.campus.edu", "db.cs.campus.edu"]
ENGR_ELEMENTS = ["gw.engr.campus.edu", "sim.engr.campus.edu"]


def _overload_runtime(seed: int = 0) -> SimulatedServiceRuntime:
    """Offered load at 2x queue capacity, mixed priority classes."""
    capacity = 8
    runtime = SimulatedServiceRuntime(
        config=ServiceConfig(workers=2, queue_capacity=capacity)
    )
    # Enough slow bulk work to fill every worker and queue slot...
    for index in range(capacity + 2):
        runtime.offer(
            0.0,
            {
                "id": f"bulk-{seed}-{index}",
                "op": "analyze",
                "class": "bulk",
                "params": {"spec": CAMPUS},
                # Long enough to hold both workers through the bursts,
                # short enough that queued interactive requests stay
                # inside their implicit 30 s deadline.
                "cost_s": 20.0,
            },
        )
    # ...then an interactive burst that must displace bulk entries, and
    # a normal-class tail that can only displace bulk, at 2x capacity
    # total offered load.
    for index in range(capacity // 2):
        runtime.offer(
            1.0,
            {
                "id": f"int-{seed}-{index}",
                "op": "check",
                "params": {"spec": CAMPUS},
                "cost_s": 0.5,
            },
        )
    for index in range(capacity // 2):
        runtime.offer(
            2.0,
            {
                "id": f"norm-{seed}-{index}",
                "op": "analyze",
                "params": {"spec": CAMPUS},
                "cost_s": 1.0,
            },
        )
    return runtime


class TestOverload:
    def test_sheds_only_lowest_class_and_never_drops(self):
        runtime = _overload_runtime()
        responses = runtime.run()
        offered = 10 + 4 + 4
        assert len(responses) == offered  # every request answered
        by_id = {message["id"]: message for message in responses}

        shed = [m for m in responses if not m["ok"]
                and m["error"]["kind"] == "shed"]
        rejected = [m for m in responses if not m["ok"]
                    and m["error"]["kind"] == "queue-full"]
        assert shed, "overload must shed"
        # Only the bulk class is ever shed: interactive and normal
        # arrivals displace bulk, nothing displaces them here.
        assert {m["id"].split("-")[0] for m in shed} == {"bulk"}
        for message in shed:
            assert message["error"]["code"] == 503
            assert message["error"]["retry_after_s"] > 0
        # Arrivals refused outright (queue full, nothing below them)
        # are also bulk: the initial burst overfills its own class.
        assert {m["id"].split("-")[0] for m in rejected} <= {"bulk"}

        # Every interactive and normal request succeeded.
        for index in range(4):
            assert by_id[f"int-0-{index}"]["ok"], by_id[f"int-0-{index}"]
            assert by_id[f"norm-0-{index}"]["ok"]

    def test_interactive_served_before_queued_bulk(self):
        runtime = _overload_runtime()
        responses = runtime.run()
        order = [m["id"] for m in responses if m["ok"]]
        first_bulk_done = next(
            position for position, rid in enumerate(order)
            if rid.startswith("bulk")
        )
        last_interactive_done = max(
            position for position, rid in enumerate(order)
            if rid.startswith("int")
        )
        # Workers busy on the first two bulk jobs finish those, but every
        # *queued* interactive completes before any queued bulk job:
        # at most the 2 in-flight bulk responses precede the last
        # interactive one.
        bulk_before_interactive = [
            rid for rid in order[:last_interactive_done]
            if rid.startswith("bulk")
        ]
        assert len(bulk_before_interactive) <= 2
        assert first_bulk_done >= 0

    def test_byte_identical_transcripts(self):
        first = _overload_runtime().run()
        second_runtime = _overload_runtime()
        second_runtime.run()
        first_text = "\n".join(
            __import__("json").dumps(m, sort_keys=True) for m in first
        )
        assert first_text == "\n".join(
            __import__("json").dumps(m, sort_keys=True)
            for m in second_runtime.responses
        )
        assert _overload_runtime().run() == first


class TestDeadlines:
    def test_deadline_expires_mid_check(self):
        runtime = SimulatedServiceRuntime(
            config=ServiceConfig(workers=1)
        )
        runtime.offer(
            0.0,
            {
                "id": "d1",
                "op": "check",
                "params": {"spec": CAMPUS},
                "deadline_s": 1.0,
                "cost_s": 5.0,  # service takes longer than the budget
            },
        )
        (response,) = runtime.run()
        assert not response["ok"]
        assert response["error"]["kind"] == "deadline"
        assert response["error"]["code"] == 504
        # The expiry fired from a cooperative poll inside the checker.
        assert "consistency." in response["error"]["message"]

    def test_deadline_expires_while_queued(self):
        runtime = SimulatedServiceRuntime(
            config=ServiceConfig(workers=1)
        )
        runtime.offer(
            0.0,
            {
                "id": "hog",
                "op": "analyze",
                "class": "bulk",
                "params": {"spec": CAMPUS},
                "cost_s": 100.0,
            },
        )
        runtime.offer(
            0.5,
            {
                "id": "q1",
                "op": "check",
                "params": {"spec": CAMPUS},
                "deadline_s": 2.0,
                "cost_s": 0.1,
            },
        )
        responses = {m["id"]: m for m in runtime.run()}
        assert responses["hog"]["ok"]
        assert responses["q1"]["error"]["kind"] == "deadline"
        assert "while queued" in responses["q1"]["error"]["message"]

    def test_generous_deadline_succeeds(self):
        runtime = SimulatedServiceRuntime()
        runtime.offer(
            0.0,
            {
                "id": "ok1",
                "op": "check",
                "params": {"spec": CAMPUS},
                "deadline_s": 100.0,
                "cost_s": 1.0,
            },
        )
        (response,) = runtime.run()
        assert response["ok"]
        assert response["result"]["consistent"]


class TestCampaignBulkheads:
    def test_disjoint_campaigns_run_concurrently(self, tmp_path):
        runtime = SimulatedServiceRuntime(
            config=ServiceConfig(
                workers=2, journal_dir=str(tmp_path / "journals")
            )
        )
        runtime.offer(0.0, {
            "id": "cs", "op": "rollout", "cost_s": 10.0,
            "params": {"spec": CAMPUS, "elements": CS_ELEMENTS},
        })
        runtime.offer(0.0, {
            "id": "engr", "op": "rollout", "cost_s": 10.0,
            "params": {"spec": CAMPUS, "elements": ENGR_ELEMENTS},
        })
        responses = {m["id"]: m for m in runtime.run()}
        assert responses["cs"]["ok"] and responses["engr"]["ok"]
        assert responses["cs"]["result"]["committed"] == sorted(CS_ELEMENTS)
        assert responses["engr"]["result"]["committed"] == sorted(
            ENGR_ELEMENTS
        )
        # Concurrent, not serialised: both queued at t=0 with two
        # workers free, so both start immediately.
        assert responses["engr"]["timing"]["queued_s"] == 0.0
        assert responses["cs"]["timing"]["queued_s"] == 0.0

    def test_overlapping_campaign_waits_without_blocking_disjoint(
        self, tmp_path
    ):
        runtime = SimulatedServiceRuntime(
            config=ServiceConfig(
                workers=3, journal_dir=str(tmp_path / "journals")
            )
        )
        runtime.offer(0.0, {
            "id": "first", "op": "rollout", "cost_s": 10.0,
            "params": {"spec": CAMPUS, "elements": CS_ELEMENTS},
        })
        # Overlaps "first" — must wait for it.
        runtime.offer(0.1, {
            "id": "overlap", "op": "rollout", "cost_s": 10.0,
            "params": {"spec": CAMPUS,
                       "elements": [CS_ELEMENTS[0]]},
        })
        # Disjoint — queued *behind* the blocked overlap but must not
        # wait for it (no head-of-line blocking).
        runtime.offer(0.2, {
            "id": "independent", "op": "rollout", "cost_s": 10.0,
            "params": {"spec": CAMPUS, "elements": ENGR_ELEMENTS},
        })
        responses = {m["id"]: m for m in runtime.run()}
        assert all(m["ok"] for m in responses.values())
        # The independent campaign started while "overlap" waited.
        assert responses["independent"]["timing"]["queued_s"] < 1.0
        assert responses["overlap"]["timing"]["queued_s"] >= 9.0

    def test_duplicate_campaign_serialises(self, tmp_path):
        runtime = SimulatedServiceRuntime(
            config=ServiceConfig(
                workers=2, journal_dir=str(tmp_path / "journals")
            )
        )
        for index in range(2):
            runtime.offer(0.0, {
                "id": f"dup-{index}", "op": "rollout", "cost_s": 5.0,
                "params": {"spec": CAMPUS, "elements": CS_ELEMENTS},
            })
        responses = {m["id"]: m for m in runtime.run()}
        assert all(m["ok"] for m in responses.values())
        starts = sorted(
            m["timing"]["queued_s"] for m in responses.values()
        )
        assert starts[0] == 0.0
        assert starts[1] >= 5.0  # same claim: strictly serialised


class TestDrain:
    def test_drain_answers_everything_queued(self):
        runtime = SimulatedServiceRuntime(
            config=ServiceConfig(workers=1),
            drain_at_s=1.0,
        )
        runtime.offer(0.0, {
            "id": "running", "op": "analyze", "class": "bulk",
            "params": {"spec": CAMPUS}, "cost_s": 10.0,
        })
        runtime.offer(0.5, {
            "id": "queued", "op": "check",
            "params": {"spec": CAMPUS}, "cost_s": 1.0,
        })
        runtime.offer(2.0, {
            "id": "late", "op": "ping",
        })
        responses = {m["id"]: m for m in runtime.run()}
        assert len(responses) == 3  # nothing silently dropped
        # In-flight work finishes (its journal stays coherent).
        assert responses["running"]["ok"]
        # Queued work is refused with a structured draining error.
        assert responses["queued"]["error"]["kind"] == "draining"
        # Arrivals after the drain point are refused at the door.
        assert responses["late"]["error"]["kind"] == "draining"
        for message in responses.values():
            if not message["ok"]:
                assert message["error"]["code"] == 503


class TestBreakers:
    def test_repeated_failures_open_the_circuit(self, tmp_path):
        runtime = SimulatedServiceRuntime(
            config=ServiceConfig(workers=1, journal_dir=str(tmp_path)),
        )
        widened = tmp_path / "widened.nmsl"
        widened.write_text(
            Path(CAMPUS).read_text().replace(
                "access ReadOnly", "access ReadWrite", 1
            )
        )
        # An unwaived access widening -> the relational gate vetoes the
        # campaign -> its breaker records a failure each time.
        for index in range(4):
            runtime.offer(index * 1.0, {
                "id": f"f{index}", "op": "rollout", "cost_s": 0.1,
                "params": {"spec": str(widened), "diff_base": CAMPUS,
                           "elements": CS_ELEMENTS},
            })
        responses = [m for m in runtime.run()]
        kinds = [m["error"]["kind"] for m in responses if not m["ok"]]
        assert kinds[:3] == ["vetoed", "vetoed", "vetoed"]
        # The fourth submission is refused at the door, fast.
        assert kinds[3] == "circuit-open"
        by_id = {m["id"]: m for m in responses}
        assert by_id["f3"]["error"]["retry_after_s"] > 0
