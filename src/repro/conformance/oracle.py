"""Correctness oracles: the legacy slow path of every production hot path.

Each hot path has one production implementation. The slower path it
replaced lives here, and only here, as the reference it is checked
against:

* :class:`HeapSimulator` — heap-only scheduling: ``schedule_fifo`` pushes
  onto the heap instead of a per-delay lane;
* :class:`ScanFilterTable` — per-neighbour stab + linear-scan matching,
  scan covering and a full-table withdrawal walk, with no counting engine
  and no covering index;
* :class:`RebuildIntervalIndex` — dirty on every mutation, re-sorted on
  the next query.

:class:`OracleSystem` is the one selection point that assembles them into
a whole system. Only the fuzzer's cross-engine check, the differential
tests and the benchmark baselines use this module (``tests/test_oracle.py``
enforces that, and that the oracle system really runs these classes).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Hashable, Optional

from repro.drivers.simulated import SimulatedDriver
from repro.errors import SchedulingError
from repro.experiments.runner import build_system
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable, _PeerFilters
from repro.pubsub.filters import Filter
from repro.pubsub.interval_index import IntervalIndex
from repro.pubsub.system import PubSubSystem
from repro.sim.core import EventHandle, Simulator

__all__ = ["HeapSimulator", "HeapDriver", "RebuildIntervalIndex",
           "ScanFilterTable", "OracleSystem", "build_oracle_system"]

#: shared handle for heap entries nobody can cancel (no per-event allocation)
_NEVER_CANCELLED = EventHandle()


class HeapSimulator(Simulator):
    """Heap-only scheduler: same ``(time, seq)`` stamps, lanes never used."""

    __slots__ = ()

    def schedule_fifo(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule into the past: delay={delay!r} at t={self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap, (self.now + delay, seq, _NEVER_CANCELLED, callback, args)
        )

    # the kernel schedules through the Clock facade: rebind the alias too,
    # or it would keep pointing at the lane path
    call_later_fifo = schedule_fifo


class HeapDriver(SimulatedDriver):
    """The simulated driver on :class:`HeapSimulator`."""

    __slots__ = ()

    def __init__(self, start_time: float = 0.0) -> None:
        self.sim = self.clock = HeapSimulator(start_time=start_time)


class RebuildIntervalIndex(IntervalIndex):
    """Interval index that re-sorts from scratch after every mutation."""

    __slots__ = ()

    def add(self, key: Hashable, lo: float, hi: float) -> None:
        self._items[key] = (lo, hi)
        self._dirty = True
        self._tree = None

    def _after_remove(self, key: Hashable, iv: tuple[float, float]) -> None:
        self._dirty = True
        self._tree = None


class _ScanPeerFilters(_PeerFilters):
    """One neighbour's filters, answered by stab + linear scan."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.ranges = RebuildIntervalIndex()

    def matches(self, event: Notification) -> bool:
        return self.ranges.stab(event.topic) or any(
            f.matches(event) for f in self.general.values()
        )

    def covers(self, f: Filter) -> bool:
        rng = f.as_range()
        if rng is not None and rng[0] == "topic":
            if self.ranges.contains_interval(rng[1], rng[2]):
                return True
        return any(g.covers(f) for g in self.general.values())


class _NoEngine:
    """Takes the counting engine's mutations and keeps nothing."""

    __slots__ = ()

    def add(self, *args: Any) -> None:
        pass

    discard = add_group_member = discard_group_member = add


class ScanFilterTable(FilterTable):
    """The pre-index broker table: the production bookkeeping (keys,
    advertisement mirror, client index), answered by scans."""

    def __init__(self, broker_id: int, neighbors) -> None:
        super().__init__(broker_id, neighbors)
        self._from_nbr = {n: _ScanPeerFilters() for n in self.neighbors}
        self._advertised = {n: _ScanPeerFilters() for n in self.neighbors}
        self._engine = _NoEngine()

    def covered_candidates(
        self, nbr: int, f: Filter
    ) -> list[tuple[Hashable, Filter]]:
        """Every client entry, then every other neighbour's filters in
        ``keys()`` order, ``f`` unconsulted: the walk the indexed
        enumeration must reproduce."""
        out = [(entry.key, entry.filter) for entry in self.clients.values()]
        for other in self.neighbors:
            if other != nbr:
                out.extend(self.iter_broker_filters(other))
        return out

    def match(
        self, event: Notification, from_broker: Optional[int]
    ) -> tuple[list[int], list[ClientEntry]]:
        return (
            self.match_neighbors(event, exclude=from_broker),
            self.match_clients(event, from_broker),
        )

    def match_neighbors(
        self, event: Notification, exclude: Optional[int]
    ) -> list[int]:
        return [
            n for n in self.neighbors
            if n != exclude and self._from_nbr[n].matches(event)
        ]

    def match_clients(
        self, event: Notification, from_broker: Optional[int]
    ) -> list[ClientEntry]:
        return [
            entry for entry in self.clients.values()
            if entry.label in (None, from_broker)
            and entry.filter.matches(event)
        ]


class OracleSystem(PubSubSystem):
    """A :class:`PubSubSystem` on :class:`HeapDriver` whose broker tables
    (repair-round rebuilds included) are :class:`ScanFilterTable`; takes
    every other ``PubSubSystem`` argument."""

    table_class = ScanFilterTable

    def __init__(self, grid_k: int, **kwargs: Any) -> None:
        super().__init__(grid_k, driver=HeapDriver(), **kwargs)


def build_oracle_system(cfg):
    """:func:`~repro.experiments.runner.build_system` on :class:`OracleSystem`."""
    return build_system(cfg, system_class=OracleSystem)
