"""The discrete-event driver: the reproduction's default backend.

A thin adapter making the pre-existing engine pair — the lane/heap
scheduler (:class:`~repro.sim.core.Simulator`) and the modelled link layer
(:class:`~repro.network.links.LinkLayer`) — satisfy the sans-IO
:class:`~repro.drivers.base.Driver` contract. *Thin* is load-bearing: the
driver adds no scheduling, no wrapping and no indirection of its own
(``Simulator`` aliases ``call_later``/``call_later_fifo`` onto its native
``schedule``/``schedule_fifo``, and ``LinkLayer`` is the transport
directly), so seeded runs are byte-identical to the pre-refactor system —
the conformance fuzzer's cross-engine lanes gate exactly that.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.drivers.base import Driver, Transport
from repro.network.links import LinkLayer
from repro.sim.core import Simulator

__all__ = ["SimulatedDriver"]


class SimulatedDriver(Driver):
    """Run the kernel under the deterministic discrete-event scheduler."""

    __slots__ = ("clock", "sim")

    name = "sim"

    def __init__(self, engine: str = "lanes", start_time: float = 0.0) -> None:
        self.sim = Simulator(start_time=start_time, engine=engine)
        #: the Simulator *is* the clock (no adapter layer on the hot path)
        self.clock = self.sim

    def build_transport(
        self,
        topo: Any,
        paths: Any,
        *,
        wired_latency: float,
        wireless_latency: float,
        account: Optional[Callable[[str, int, bool], None]] = None,
        unicast_hops: Optional[Callable[[int, int], int]] = None,
        faults: Optional[Any] = None,
        queue_cap: Optional[int] = None,
        on_shed: Optional[Callable[[Any, int], bool]] = None,
    ) -> Transport:
        return LinkLayer(
            self.sim,
            topo,
            paths,
            wired_latency=wired_latency,
            wireless_latency=wireless_latency,
            account=account,
            unicast_hops=unicast_hops,
            faults=faults,
            queue_cap=queue_cap,
            on_shed=on_shed,
        )
