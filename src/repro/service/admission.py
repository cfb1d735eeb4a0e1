"""Admission control: per-class priority queues with explicit shedding.

One bounded queue per priority class (``interactive`` < ``normal`` <
``bulk``).  Admission is deterministic:

* while total depth is under ``capacity`` every valid request is
  admitted (FIFO within its class);
* at capacity, an arrival sheds the **newest request of the lowest
  priority class strictly below its own** — those have waited least and
  matter least — and takes the freed slot; the shed request gets a
  structured 503 ``shed`` rejection, never a silent drop;
* an arrival with nothing below it to shed is itself rejected with a
  503 ``queue-full``.

Dispatch scans classes in rank order and each class FIFO, *skipping
over* requests whose campaign bulkhead conflicts with one in flight —
a blocked bulk campaign must not head-of-line-block an independent one
(the cross-starvation property the overload suite locks in).  Requests
whose deadline expired while queued are popped and reported as
expirations (504) rather than executed.

All decisions are pure functions of (arrival order, clock); no wall
time, no randomness — same-seed simulated runs shed byte-identically.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.service.protocol import CLASS_RANK, PRIORITY_CLASSES


class AdmissionController:
    """Bounded per-class queues plus the shed policy."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._queues: Dict[str, Deque] = {
            name: deque() for name in PRIORITY_CLASSES
        }
        self.admitted_total = 0
        self.shed_total = 0
        self.rejected_total = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def depth(self, cls: Optional[str] = None) -> int:
        if cls is not None:
            return len(self._queues[cls])
        return sum(len(queue) for queue in self._queues.values())

    def depths(self) -> Dict[str, int]:
        return {name: len(queue) for name, queue in self._queues.items()}

    def drain(self) -> List:
        """Take every queued request, rank order then FIFO, leaving the
        queues empty (a drain answers each one)."""
        requests = []
        for name in PRIORITY_CLASSES:
            requests.extend(self._queues[name])
            self._queues[name].clear()
        self._publish()
        return requests

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    def offer(self, request) -> Tuple[bool, Optional[object]]:
        """Try to admit *request*.

        Returns ``(admitted, shed_victim)``:

        * ``(True, None)`` — admitted, queue had room;
        * ``(True, victim)`` — admitted by shedding *victim* (the newest
          request of the lowest-priority class below the arrival's);
        * ``(False, None)`` — rejected (queue full, nothing below the
          arrival to shed).
        """
        if self.depth() < self.capacity:
            self._queues[request.cls].append(request)
            self.admitted_total += 1
            self._publish()
            return True, None
        victim = self._shed_victim(CLASS_RANK[request.cls])
        if victim is None:
            self.rejected_total += 1
            self._publish()
            return False, None
        self.shed_total += 1
        self._queues[request.cls].append(request)
        self.admitted_total += 1
        self._publish()
        return True, victim

    def _shed_victim(self, arrival_rank: int):
        """Pop the newest request of the lowest class below *arrival_rank*."""
        for rank in range(len(PRIORITY_CLASSES) - 1, arrival_rank, -1):
            queue = self._queues[PRIORITY_CLASSES[rank]]
            if queue:
                return queue.pop()  # LIFO within the victim class
        return None

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def pop_next(
        self,
        now: float,
        can_start: Callable[[object], bool],
    ) -> Optional[Tuple[object, str]]:
        """The next actionable request, or None if all are blocked.

        Returns ``(request, disposition)`` where disposition is
        ``"expired"`` (deadline passed while queued — caller sends the
        504) or ``"run"`` (caller dispatches it).  Scans rank order,
        FIFO within a class, skipping bulkhead-blocked requests.
        """
        for name in PRIORITY_CLASSES:
            queue = self._queues[name]
            for position, request in enumerate(queue):
                if request.deadline is not None and request.deadline.expired:
                    del queue[position]
                    self._publish()
                    return request, "expired"
                if can_start(request):
                    del queue[position]
                    self._publish()
                    return request, "run"
        return None

    # ------------------------------------------------------------------
    # Metrics.
    # ------------------------------------------------------------------
    def _publish(self) -> None:
        o = obs.current()
        if not o.enabled:
            return
        for name, queue in self._queues.items():
            o.gauge(
                "repro_service_queue_depth",
                "admitted requests waiting for a worker, by class",
                **{"class": name},
            ).set(len(queue))
