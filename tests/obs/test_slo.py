"""SLO tracker: good/bad accounting, window math, burn rates, and the
multi-window alert lifecycle."""

import pytest

from repro.obs import SloObjective, SloTracker
from repro.obs.slo import DEFAULT_WINDOWS, PAGE_BURN, TICKET_BURN


def tracker(**overrides):
    objectives = {
        "interactive": SloObjective(latency_s=0.5, availability=0.999),
    }
    return SloTracker(objectives=objectives, **overrides)


def window(snapshot, cls, window_s):
    for stats in snapshot["classes"][cls]["windows"]:
        if stats["window_s"] == window_s:
            return stats
    raise AssertionError(f"no {window_s}s window for {cls}")


class TestGoodness:
    def test_fast_success_is_good(self):
        assert tracker().record("interactive", 0.1, ok=True, now=0.0)

    def test_slow_success_burns_budget(self):
        assert not tracker().record("interactive", 0.9, ok=True, now=0.0)

    def test_failure_is_bad_regardless_of_latency(self):
        assert not tracker().record("interactive", 0.0, ok=False, now=0.0)

    def test_unknown_class_has_no_latency_target(self):
        t = tracker()
        assert t.record("mystery", 100.0, ok=True, now=0.0)
        assert not t.record("mystery", 0.0, ok=False, now=1.0)


class TestWindows:
    def test_events_age_out_of_short_windows(self):
        t = tracker()
        t.record("interactive", 9.0, ok=False, now=0.0)
        for at in range(1, 11):
            t.record("interactive", 0.1, ok=True, now=float(at * 60))
        snapshot = t.snapshot(now=650.0)
        short = window(snapshot, "interactive", 300)
        long = window(snapshot, "interactive", DEFAULT_WINDOWS[-1])
        assert short["bad"] == 0  # the failure fell out of the 5m window
        assert long["bad"] == 1
        assert short["availability"] == 1.0

    def test_an_event_at_the_window_start_is_inside_it(self):
        t = tracker()
        for at in (49.0, 50.0, 50.0, 51.0):
            t.record("interactive", 0.1, ok=at != 49.0, now=at)
        stats = window(t.snapshot(now=350.0), "interactive", 300)
        assert (stats["total"], stats["bad"]) == (3, 0)

    def test_burn_rate_is_bad_fraction_over_budget(self):
        t = tracker()
        # 1 bad in 10 over a 0.1% budget -> burn 100.
        t.record("interactive", 9.0, ok=False, now=0.0)
        for index in range(9):
            t.record("interactive", 0.1, ok=True, now=1.0 + index)
        stats = window(t.snapshot(now=10.0), "interactive", 300)
        assert stats["burn_rate"] == pytest.approx(
            (1 / 10) / 0.001, rel=1e-3
        )

    def test_empty_window_reports_full_availability(self):
        stats = window(tracker().snapshot(now=0.0), "interactive", 300)
        assert stats["availability"] == 1.0
        assert stats["burn_rate"] == 0.0
        assert "p99_s" not in stats

    def test_latency_quantiles_reported(self):
        t = tracker()
        for index in range(100):
            t.record("interactive", index / 1000, ok=True, now=float(index))
        stats = window(t.snapshot(now=100.0), "interactive", 300)
        assert stats["p50_s"] == pytest.approx(0.05, abs=0.005)
        assert stats["p99_s"] == pytest.approx(0.099, abs=0.005)

    def test_events_beyond_the_longest_window_are_pruned(self):
        t = tracker()
        t.record("interactive", 0.1, ok=True, now=0.0)
        t.record("interactive", 0.1, ok=True, now=DEFAULT_WINDOWS[-1] + 10.0)
        assert len(t._events["interactive"]) == 1


class TestAlerts:
    def test_page_needs_short_and_mid_window_agreement(self):
        t = tracker()
        # Saturate every window with failures: burn is maximal everywhere.
        for at in range(0, 7200, 60):
            t.record("interactive", 9.0, ok=False, now=float(at))
        snapshot = t.snapshot(now=7200.0)
        assert snapshot["classes"]["interactive"]["alert"] == "page"
        (alert,) = snapshot["alerts"]
        assert alert["class"] == "interactive"
        assert alert["severity"] == "page"

    def test_one_bad_burst_does_not_page_alone(self):
        """A short spike burns the 5m window but not the 1h window."""
        t = tracker()
        # An hour of good traffic, then a 30-second total outage.
        for at in range(0, 3600, 10):
            t.record("interactive", 0.1, ok=True, now=float(at))
        for at in range(3600, 3630, 10):
            t.record("interactive", 9.0, ok=False, now=float(at))
        snapshot = t.snapshot(now=3630.0)
        burns = {
            w["window_s"]: w["burn_rate"]
            for w in snapshot["classes"]["interactive"]["windows"]
        }
        assert burns[300] >= PAGE_BURN  # short window is on fire
        assert burns[3600] < PAGE_BURN  # hour window absorbs it
        assert snapshot["classes"]["interactive"]["alert"] != "page"

    def test_recovery_clears_the_alert(self):
        t = tracker()
        for at in range(0, 7200, 60):
            t.record("interactive", 9.0, ok=False, now=float(at))
        assert t.snapshot(now=7200.0)["alerts"]
        # Twenty minutes of clean traffic drains the short window.
        for at in range(7200, 8400, 5):
            t.record("interactive", 0.1, ok=True, now=float(at))
        snapshot = t.snapshot(now=8400.0)
        assert snapshot["classes"]["interactive"]["alert"] != "page"

    def test_slow_burn_files_a_ticket(self):
        """A sustained 1% failure rate (burn ~10: above ticket, below
        page) over six hours files a ticket, not a page."""
        t = tracker()
        for index, at in enumerate(range(0, 21600, 10)):
            t.record(
                "interactive", 0.1, ok=index % 100 != 0, now=float(at)
            )
        snapshot = t.snapshot(now=21600.0)
        assert snapshot["classes"]["interactive"]["alert"] == "ticket"

    def test_thresholds_come_from_the_sre_recipe(self):
        assert PAGE_BURN == 14.4
        assert TICKET_BURN == 6.0


class TestSummaryAndPublish:
    def test_healthz_summary_reports_worst_burn(self):
        t = tracker()
        t.record("interactive", 9.0, ok=False, now=0.0)
        summary = t.healthz_summary(now=1.0)
        assert summary["worst_burn_rate"] > 0
        assert summary["classes"] == 1

    def test_healthz_summary_quiet_when_healthy(self):
        t = tracker()
        t.record("interactive", 0.1, ok=True, now=0.0)
        summary = t.healthz_summary(now=1.0)
        assert summary["alerting"] is None
        assert summary["worst_burn_rate"] == 0.0

    def test_publish_mirrors_gauges(self):
        from repro import obs

        t = tracker()
        t.record("interactive", 0.1, ok=True, now=0.0)
        with obs.scope(clock=obs.LogicalClock()) as session:
            t.publish(session, now=1.0)
            assert (
                session.metrics.value(
                    "repro_service_slo_availability",
                    cls="interactive",
                    window="300",
                )
                == 1.0
            )

    def test_publish_on_null_observability_is_a_noop(self):
        from repro.obs import NullObservability

        tracker().publish(NullObservability(), now=0.0)


class TestDeterminism:
    def test_same_event_stream_snapshots_identically(self):
        def build():
            t = tracker()
            for at in range(50):
                t.record(
                    "interactive", at / 100, ok=at % 7 != 0, now=float(at)
                )
            return t.snapshot(now=50.0)

        assert build() == build()
