"""Hybrid lane + heap discrete-event scheduler.

Design notes
------------
The scheduler is the innermost loop of every experiment: a paper-scale run
pumps millions of events through it, so the hot path avoids attribute lookups
and allocations where practical.

Nearly all of that volume is link traffic carrying one of a handful of
*constant* delays (10 ms wired hops, 20 ms wireless slots, ``hops * 10 ms``
unicast legs). Pushing those through a binary heap pays O(log n) sift cost
plus a tuple + handle allocation per event for ordering the heap already
knows: within one constant delay, events depart in ``now`` order, and
``now`` never decreases, so arrival order *is* submission order. The
scheduler exploits this:

* :meth:`Simulator.schedule_fifo` is the non-cancellable fast path. Each
  distinct delay owns a **lane** — a flat deque of ``time, seq, callback,
  args`` runs with O(1) append/popleft and no per-event handle or wrapper
  tuple. Per-lane times are non-decreasing by construction, so each lane is
  a sorted queue and its head is its minimum.
* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` remain the
  general heap path for the irregular tail: timers, workload arrivals, and
  anything that may be cancelled.
* The run loop merges the lane heads (tracked in a tiny auxiliary heap, one
  entry per non-empty lane) with the main heap head, always firing the
  globally smallest ``(time, seq)``. Lane count is bounded by the number of
  distinct constant delays (a few dozen at most), so the merge step is
  O(log #lanes) against the heap's O(log #pending-events).

Determinism: every event — lane or heap — is stamped with a ``seq`` from one
shared monotone counter, and execution order is exactly ascending
``(time, seq)``. Two consequences used throughout the
protocol implementations and their proofs of correctness:

1. Events never fire out of time order.
2. Events scheduled for the same instant fire in the order they were
   scheduled — which, combined with constant per-hop link latencies, gives
   free FIFO semantics on every link (see :mod:`repro.network.links`).

Because the merged order equals the heap-only order, a heap-only scheduler
is event-for-event identical. That scheduler lives in
:mod:`repro.conformance.oracle` as the correctness oracle;
``tests/test_sim_engine.py`` compares the two with differential property
tests on randomized mobility scenarios.

Cancellation is lazy: :class:`EventHandle.cancel` flags the entry and the
main loop skips flagged entries on pop, keeping cancel O(1). Lane events are
deliberately non-cancellable (no handle exists to flag).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import SchedulingError

__all__ = ["Simulator", "EventHandle"]


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation.

    Deliberately minimal: the heap entry already carries the ``(time, seq)``
    ordering key, so the handle stores only the cancellation flag.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing. Safe to call multiple times."""
        self.cancelled = True


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial clock value (milliseconds by library convention).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.schedule_fifo(3.0, fired.append, "c")
    >>> sim.run()
    >>> fired
    ['b', 'c', 'a']
    """

    __slots__ = (
        "_heap",
        "_seq",
        "now",
        "_running",
        "_events_processed",
        "_lanes",
        "_lane_heads",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        # Heap entries: (time, seq, handle, callback, args)
        self._heap: list[tuple[float, int, EventHandle, Callable[..., Any], tuple]] = []
        self._seq = 0
        self.now: float = start_time
        self._running = False
        self._events_processed = 0
        # delay -> lane; each lane is a flat deque of 4-field runs
        # (time, seq, callback, args) in strictly increasing (time, seq)
        self._lanes: dict[float, deque] = {}
        # aux heap holding (head_time, head_seq, lane) for each non-empty lane
        self._lane_heads: list[tuple[float, int, deque]] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` ms from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant (FIFO).
        """
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule into the past: delay={delay!r} at t={self.now!r}"
            )
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule into the past: t={time!r} < now={self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle()
        heapq.heappush(self._heap, (time, seq, handle, callback, args))
        return handle

    def schedule_fifo(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Non-cancellable fast path for constant-delay FIFO traffic.

        Equivalent to :meth:`schedule` (same ``(time, seq)`` firing order,
        drawn from the same counter) but returns no handle: the event lands
        in the per-delay lane in O(1) with no allocation beyond the argument
        tuple.

        Use it for traffic that is never cancelled — link transmissions,
        fan-out deliveries. Anything that may need :meth:`EventHandle.cancel`
        must go through :meth:`schedule`.
        """
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule into the past: delay={delay!r} at t={self.now!r}"
            )
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = deque()
        if not lane:
            heapq.heappush(self._lane_heads, (time, seq, lane))
        lane.append(time)
        lane.append(seq)
        lane.append(callback)
        lane.append(args)

    #: sans-IO ``Clock`` facade (:mod:`repro.drivers.base`): the simulator
    #: *is* the simulated driver's clock, with zero adapter indirection —
    #: the aliases bind the same function objects, so the facade path is
    #: byte-identical to calling ``schedule``/``schedule_fifo`` directly.
    call_later = schedule
    call_later_fifo = schedule_fifo

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until all event sources drain or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return (even if the last event fired earlier), so repeated
        ``run(until=...)`` calls compose into contiguous windows.
        """
        if self._running:
            raise SchedulingError("Simulator.run() is not reentrant")
        self._running = True
        heap = self._heap
        lheads = self._lane_heads
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        try:
            while True:
                # pick the globally smallest (time, seq) across the main
                # heap and the per-lane head index
                if lheads:
                    lhead = lheads[0]
                    if heap:
                        hhead = heap[0]
                        take_heap = hhead[0] < lhead[0] or (
                            hhead[0] == lhead[0] and hhead[1] < lhead[1]
                        )
                    else:
                        take_heap = False
                elif heap:
                    hhead = heap[0]
                    take_heap = True
                else:
                    break
                if take_heap:
                    time = hhead[0]
                    if until is not None and time > until:
                        break
                    heappop(heap)
                    if hhead[2].cancelled:
                        continue
                    callback = hhead[3]
                    args = hhead[4]
                else:
                    time = lhead[0]
                    if until is not None and time > until:
                        break
                    lane = lhead[2]
                    lane.popleft()  # time (== lhead[0])
                    lane.popleft()  # seq
                    callback = lane.popleft()
                    args = lane.popleft()
                    if lane:
                        heapreplace(lheads, (lane[0], lane[1], lane))
                    else:
                        heappop(lheads)
                self.now = time
                self._events_processed += 1
                callback(*args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Fire exactly one (non-cancelled) event. Return False if drained."""
        heap = self._heap
        lheads = self._lane_heads
        while True:
            if lheads:
                lhead = lheads[0]
                take_heap = bool(heap) and (
                    heap[0][0] < lhead[0]
                    or (heap[0][0] == lhead[0] and heap[0][1] < lhead[1])
                )
            elif heap:
                take_heap = True
            else:
                return False
            if take_heap:
                time, _seq, handle, callback, args = heapq.heappop(heap)
                if handle.cancelled:
                    continue
            else:
                lane = lhead[2]
                time = lane.popleft()
                lane.popleft()  # seq
                callback = lane.popleft()
                args = lane.popleft()
                if lane:
                    heapq.heapreplace(lheads, (lane[0], lane[1], lane))
                else:
                    heapq.heappop(lheads)
            self.now = time
            self._events_processed += 1
            callback(*args)
            return True

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        lheads = self._lane_heads
        if lheads:
            lane_t = lheads[0][0]
            if not heap or lane_t < heap[0][0]:
                return lane_t
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of pending entries (including lazily cancelled heap ones)."""
        n = len(self._heap)
        for lane in self._lanes.values():
            n += len(lane) // 4
        return n

    @property
    def events_processed(self) -> int:
        """Count of callbacks fired so far (cancelled events excluded)."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Simulator t={self.now:.3f} "
            f"pending={self.pending} processed={self._events_processed}>"
        )
