"""Sliding-window SLOs with multi-window burn-rate alerts.

Each admission class gets an :class:`SloObjective` — a latency target
and an availability target over it: a request is *good* iff it succeeded
AND finished within the class's latency target (the classic latency-SLO
formulation; a slow success burns budget just like a failure).

The :class:`SloTracker` keeps per-class sliding windows of (timestamp,
good) events and reports, per window, availability and the *burn rate*::

    burn = bad_fraction / (1 - availability_target)

so burn 1.0 consumes the error budget exactly at the rate the objective
allows, and burn 14.4 over a 5-minute AND a 1-hour window — the Google
SRE multi-window multi-burn-rate recipe — exhausts a 30-day budget in
two days and pages.  A slower 6× burn over 1h+6h windows files a ticket.
Two windows must agree before an alert fires, which is what keeps a
single bad minute from paging and a recovered incident from staying
paged.

Everything is pure state fed by the caller's clock, so the tracker is
byte-deterministic under the logical clock and needs no threads of its
own.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

#: (window seconds, label) pairs, shortest first.
DEFAULT_WINDOWS: Tuple[int, ...] = (300, 3600, 21600)

#: Burn-rate thresholds (Google SRE workbook, 30-day budget): page when
#: the budget would be gone in ~2 days, ticket when in ~5 days.
PAGE_BURN = 14.4
TICKET_BURN = 6.0

#: Events retained per class; at 10k requests/minute the longest default
#: window needs 2.16M — cap well above that but bounded.
MAX_EVENTS_PER_CLASS = 4_000_000


@dataclass(frozen=True)
class SloObjective:
    """A latency target and the availability objective over it."""

    latency_s: float
    availability: float

    @property
    def budget(self) -> float:
        """Allowed bad fraction (1 - availability)."""
        return max(1.0 - self.availability, 1e-9)


#: Per-admission-class defaults: interactive requests are sub-second
#: three-nines, normal work five seconds, campaigns a minute.
DEFAULT_OBJECTIVES: Dict[str, SloObjective] = {
    "interactive": SloObjective(latency_s=0.5, availability=0.999),
    "normal": SloObjective(latency_s=5.0, availability=0.995),
    "bulk": SloObjective(latency_s=60.0, availability=0.99),
}


class SloTracker:
    """Sliding-window good/bad accounting per admission class."""

    def __init__(
        self,
        objectives: Optional[Dict[str, SloObjective]] = None,
        windows: Tuple[int, ...] = DEFAULT_WINDOWS,
        page_burn: float = PAGE_BURN,
        ticket_burn: float = TICKET_BURN,
    ):
        self.objectives = dict(objectives or DEFAULT_OBJECTIVES)
        self.windows = tuple(sorted(windows))
        self.page_burn = page_burn
        self.ticket_burn = ticket_burn
        # Per class: deque of (at_s, good, latency_s), oldest first.
        self._events: Dict[str, Deque[Tuple[float, bool, float]]] = {}
        self._lock = threading.Lock()

    def record(
        self, cls: str, latency_s: float, ok: bool, now: float
    ) -> bool:
        """Account one finished (or refused) request; returns *good*.

        A refusal (shed, queue-full, deadline) is ``ok=False`` — it
        burns budget; availability is what the client experienced.
        """
        objective = self.objectives.get(cls)
        good = bool(ok) and (
            objective is None or latency_s <= objective.latency_s
        )
        horizon = now - self.windows[-1]
        with self._lock:
            events = self._events.get(cls)
            if events is None:
                events = self._events[cls] = deque()
            events.append((now, good, latency_s))
            while events and events[0][0] < horizon:
                events.popleft()
            while len(events) > MAX_EVENTS_PER_CLASS:
                events.popleft()
        return good

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def _window_stats(
        self,
        events: List[Tuple[float, bool, float]],
        objective: Optional[SloObjective],
        window_s: int,
        now: float,
    ) -> dict:
        start = now - window_s
        # Events are time-ordered; binary-search the window start.  The
        # 1-tuple sorts before every event stamped at or after ``start``
        # (``bisect_left``'s ``key`` is 3.10+).
        lo = bisect_left(events, (start,))
        total = len(events) - lo
        good = sum(1 for event in events[lo:] if event[1])
        bad = total - good
        availability = (good / total) if total else 1.0
        burn = 0.0
        if objective is not None and total:
            burn = (bad / total) / objective.budget
        latencies = sorted(event[2] for event in events[lo:])
        stats = {
            "window_s": window_s,
            "total": total,
            "good": good,
            "bad": bad,
            "availability": round(availability, 6),
            "burn_rate": round(burn, 4),
        }
        if latencies:
            stats["p50_s"] = round(
                latencies[len(latencies) // 2], 6
            )
            stats["p99_s"] = round(
                latencies[min(len(latencies) - 1, (len(latencies) * 99) // 100)],
                6,
            )
        return stats

    def snapshot(self, now: float) -> dict:
        """Full per-class, per-window SLO state plus active alerts."""
        with self._lock:
            per_class = {
                cls: list(events) for cls, events in self._events.items()
            }
        classes: Dict[str, dict] = {}
        alerts: List[dict] = []
        names = sorted(set(self.objectives) | set(per_class))
        for cls in names:
            objective = self.objectives.get(cls)
            events = per_class.get(cls, [])
            windows = [
                self._window_stats(events, objective, window_s, now)
                for window_s in self.windows
            ]
            entry: dict = {"windows": windows}
            if objective is not None:
                entry["objective"] = {
                    "latency_s": objective.latency_s,
                    "availability": objective.availability,
                }
            burn_by_window = {w["window_s"]: w["burn_rate"] for w in windows}
            severity = self._alert_severity(burn_by_window)
            entry["alert"] = severity
            classes[cls] = entry
            if severity is not None:
                alerts.append(
                    {
                        "class": cls,
                        "severity": severity,
                        "burn_rates": burn_by_window,
                    }
                )
        return {"at_s": round(now, 9), "classes": classes, "alerts": alerts}

    def _alert_severity(
        self, burn_by_window: Dict[int, float]
    ) -> Optional[str]:
        """Multi-window agreement: short AND long window both burning."""
        if len(self.windows) < 2:
            window = self.windows[0] if self.windows else None
            burn = burn_by_window.get(window, 0.0)
            if burn >= self.page_burn:
                return "page"
            if burn >= self.ticket_burn:
                return "ticket"
            return None
        short, mid = self.windows[0], self.windows[1]
        long = self.windows[-1]
        if (
            burn_by_window.get(short, 0.0) >= self.page_burn
            and burn_by_window.get(mid, 0.0) >= self.page_burn
        ):
            return "page"
        if (
            burn_by_window.get(mid, 0.0) >= self.ticket_burn
            and burn_by_window.get(long, 0.0) >= self.ticket_burn
        ):
            return "ticket"
        return None

    def healthz_summary(self, now: float) -> dict:
        """The compact form ``/healthz`` embeds: worst alert + burn."""
        snapshot = self.snapshot(now)
        severity = None
        worst_burn = 0.0
        for alert in snapshot["alerts"]:
            if alert["severity"] == "page":
                severity = "page"
            elif severity is None:
                severity = alert["severity"]
        for entry in snapshot["classes"].values():
            for window in entry["windows"]:
                worst_burn = max(worst_burn, window["burn_rate"])
        return {
            "alerting": severity,
            "worst_burn_rate": round(worst_burn, 4),
            "classes": len(snapshot["classes"]),
        }

    def publish(self, obs, now: float) -> None:
        """Mirror the snapshot into gauges for ``/metrics`` scrapes."""
        if not getattr(obs, "enabled", False):
            return
        snapshot = self.snapshot(now)
        for cls, entry in snapshot["classes"].items():
            for window in entry["windows"]:
                labels = {"cls": cls, "window": str(window["window_s"])}
                obs.gauge(
                    "repro_service_slo_availability",
                    "Sliding-window availability per admission class.",
                    **labels,
                ).set(window["availability"])
                obs.gauge(
                    "repro_service_slo_burn_rate",
                    "Error-budget burn rate per admission class and window.",
                    **labels,
                ).set(window["burn_rate"])
