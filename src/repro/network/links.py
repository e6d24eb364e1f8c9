"""Link layer: FIFO message transport with latency and hop accounting.

Models the paper's Section 5.1 network:

* **wired links** between adjacent base stations: constant 10 ms delivery,
  unbounded bandwidth (the paper measures traffic in hops, not bytes, and
  reports no queueing effects on the wired side). FIFO per link follows from
  constant latency plus the scheduler's same-time FIFO tie-break — messages
  sent earlier on a link always arrive earlier. Several protocol correctness
  arguments (TQ capture, ack-triggered label deletion) rest on this.
* **wireless links** between a client and its broker: a serial FIFO channel,
  one message per 20 ms. Serialisation matters: it is why the paper's MHH
  needs the PQ3 buffer of immigrant events — a backlog takes real time to
  push over the air, and the client can disconnect mid-drain leaving a
  remainder. Pending (not-yet-transmitting) messages can be reclaimed on
  disconnect; the in-service message always completes.
* **multi-hop unicast** between arbitrary brokers travels the grid shortest
  path. It is modelled as a single scheduling step of ``hops * 10 ms`` with
  all hops accounted immediately; because every latency is distance * 10 ms
  and the triangle inequality holds on the grid, this shortcut preserves all
  arrival-order relations that true store-and-forward would produce (proof
  sketch in DESIGN.md; property-tested in tests/test_links.py).

The link layer is **sans-IO over a clock**: it schedules exclusively
through the narrow :class:`~repro.drivers.base.Clock` facade
(``call_later`` / ``call_later_fifo`` / ``now``) and therefore runs
unchanged under any driver — the discrete-event simulator (whose
``call_later_fifo`` *is* ``Simulator.schedule_fifo``) or the live asyncio
runtime. It is also the canonical :class:`~repro.drivers.base.Transport`
implementation: ``send_broker`` / ``send_client`` / ``send_uplink`` /
``reclaim_downlink`` alias the methods below, so the kernel-facing facade
adds no indirection.

Every transmission here carries a *constant* delay (per link direction /
hop count) and is never cancelled once on the wire — exactly the contract
of ``call_later_fifo`` — so under the simulated driver the whole link
layer rides the scheduler's O(1) lane fast path: one lane for wired hops,
one per wireless latency, one per unicast hop count. The scheduler's
merged ``(time, seq)`` order keeps the FIFO guarantees stated above
bit-for-bit identical to the heap engine (and every conforming clock must
preserve the same tie-break, see :mod:`repro.drivers.base`).

The wireless edge optionally takes a :class:`~repro.network.faults.
LinkFaultInjector` (loss / duplication / jitter — see that module for the
fault model and why wired links stay perfect). With no injector — the
default — every code path below is byte-identical to the fault-free link
layer: no extra branches fire, no randomness is drawn, and jittered
(variable-latency) service is the only case that leaves the lane fast path
for the general heap.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import RoutingError
from repro.network.faults import DOWNLINK, UPLINK, LinkFaultInjector
from repro.network.paths import ShortestPaths
from repro.network.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - the clock is duck-typed at runtime
    from repro.drivers.base import Clock

__all__ = ["LinkLayer", "WIRED_LATENCY_MS", "WIRELESS_LATENCY_MS"]

WIRED_LATENCY_MS = 10.0
WIRELESS_LATENCY_MS = 20.0

# account(category, hops, wireless) -> None
AccountFn = Callable[[str, int, bool], None]


def _no_account(_category: str, _hops: int, _wireless: bool) -> None:
    return None


class _WirelessChannel:
    """Serial FIFO channel in one direction between a client and a broker.

    One message occupies the channel for ``latency`` ms; others queue behind
    it. ``cancel_pending`` reclaims the queued (not in-service) messages in
    order — used by MHH when a client disconnects mid-backlog-drain.

    With a fault injector attached, each send may be discarded (loss) or
    flagged for a second handover (duplication), and each service slot may
    be stretched (jitter); the channel remains a serial FIFO throughout.
    The duplicate copy is handed over in the same instant as the original,
    directly after it — it never sits in ``queue``, so it cannot be
    reclaimed by ``cancel_pending`` and cannot overtake older traffic.
    """

    __slots__ = (
        "clock",
        "latency",
        "deliver",
        "queue",
        "busy_until",
        "_in_service",
        "faults",
        "client",
        "direction",
        "_dup_ids",
        "queue_cap",
        "on_shed",
    )

    def __init__(
        self,
        clock: "Clock",
        latency: float,
        deliver: Callable[[Any], None],
        faults: Optional[LinkFaultInjector] = None,
        client: int = -1,
        direction: str = DOWNLINK,
        queue_cap: Optional[int] = None,
        on_shed: Optional[Callable[[Any, int], bool]] = None,
    ) -> None:
        self.clock = clock
        self.latency = latency
        self.deliver = deliver
        self.queue: deque[Any] = deque()
        self.busy_until = 0.0
        self._in_service: Any = None
        self.faults = faults
        self.client = client
        self.direction = direction
        # bulkhead: with a cap configured, data traffic that would queue
        # beyond it is handed to on_shed(msg, client) -> bool; True means
        # the policy shed it (never control — the policy returns False and
        # the message is admitted over-cap). None = unbounded, the default.
        self.queue_cap = queue_cap
        self.on_shed = on_shed
        # id()s of in-channel messages flagged for duplicate handover; ids
        # are stable here because the message object is referenced by the
        # channel until its _finish removes the flag
        self._dup_ids: set[int] = set()

    def send(self, msg: Any) -> None:
        if (
            self.on_shed is not None
            and len(self.queue) >= self.queue_cap
            and not (self._in_service is None and self.clock.now >= self.busy_until)
            and self.on_shed(msg, self.client)
        ):
            # shed before the fate draw: a message that never enters the
            # channel consumes no fault randomness, so capped and uncapped
            # runs stay replayable from the same seed up to the overload
            return
        if self.faults is not None:
            fate = self.faults.fate(msg, self.client, self.direction)
            if fate == "drop":
                # drop any stale dup flag (a reclaimed-and-resent message
                # keeps its object identity; never let a discarded id linger
                # to collide with a recycled one)
                self._dup_ids.discard(id(msg))
                return
            if fate == "dup":
                self._dup_ids.add(id(msg))
        if self._in_service is None and self.clock.now >= self.busy_until:
            self._start(msg)
        else:
            self.queue.append(msg)

    def _start(self, msg: Any) -> None:
        # the in-service message always completes (cancel_pending reclaims
        # only the queue), so the non-cancellable lane path applies
        self._in_service = msg
        latency = self.latency
        if self.faults is not None and self.faults.jitters:
            # variable latency would mint a lane per distinct delay; take
            # the general heap path instead (same (time, seq) order)
            latency += self.faults.jitter()
            self.busy_until = self.clock.now + latency
            self.clock.call_later(latency, self._finish, msg)
            return
        self.busy_until = self.clock.now + latency
        self.clock.call_later_fifo(latency, self._finish, msg)

    def _finish(self, msg: Any) -> None:
        self._in_service = None
        self.deliver(msg)
        if self.faults is not None and self._dup_ids:
            if id(msg) in self._dup_ids:
                self._dup_ids.discard(id(msg))
                self.faults.dup_delivered(msg, self.client, self.direction)
                self.deliver(msg)
        if self.queue:
            self._start(self.queue.popleft())

    def cancel_pending(self) -> list[Any]:
        """Reclaim queued messages (in order). The in-service one completes."""
        pending = list(self.queue)
        self.queue.clear()
        if self._dup_ids and pending:
            # reclaimed messages leave the channel; their pending dup
            # injections evaporate with them (the duplicate ledger counts
            # delivered copies only, so nothing needs accounting here)
            for msg in pending:
                self._dup_ids.discard(id(msg))
        return pending

    def requeue(self, msgs: list[Any]) -> None:
        """Put already-sent frames back at the head of the queue, in order.

        Bypasses the fate draw (these frames took theirs on the original
        send) and the bulkhead (they were admitted once; dropping them now
        would turn a requeue into silent loss). Restarts service if idle.
        """
        self.queue.extendleft(reversed(msgs))
        if self._in_service is None and self.clock.now >= self.busy_until:
            if self.queue:
                self._start(self.queue.popleft())

    @property
    def backlog(self) -> int:
        return len(self.queue) + (1 if self._in_service is not None else 0)


class LinkLayer:
    """Message transport between brokers and between clients and brokers.

    Endpoints register receive callbacks; senders address endpoints by id.
    Every wired transmission is reported to the accounting callback with its
    message category and hop count (the paper's traffic metric).
    """

    def __init__(
        self,
        clock: "Clock",
        topo: Topology,
        paths: ShortestPaths,
        wired_latency: float = WIRED_LATENCY_MS,
        wireless_latency: float = WIRELESS_LATENCY_MS,
        account: Optional[AccountFn] = None,
        unicast_hops: Optional[Callable[[int, int], int]] = None,
        faults: Optional[LinkFaultInjector] = None,
        queue_cap: Optional[int] = None,
        on_shed: Optional[Callable[[Any, int], bool]] = None,
    ) -> None:
        self.clock = clock
        self.topo = topo
        self.paths = paths
        self.wired_latency = wired_latency
        self.wireless_latency = wireless_latency
        self.account: AccountFn = account or _no_account
        #: wireless fault injector (None = perfect links, the default)
        self.faults = faults
        #: broker crash/recovery coordinator (repro.pubsub.recovery); None
        #: — the default — keeps every path below byte-identical to the
        #: crash-free link layer (one attribute test per wired send)
        self.recovery = None
        #: reliability manager (repro.pubsub.reliability); None — the
        #: default — keeps reclaim and send paths byte-identical
        self.reliability = None
        #: downlink bulkhead: max queued messages per client before the
        #: shed policy runs (None = unbounded, the paper's model)
        self.queue_cap = queue_cap
        self._on_shed = on_shed
        # hop metric for multi-hop unicast; defaults to grid shortest paths
        # (paper §5.1); the tree-routing ablation overrides it
        self._unicast_hops = unicast_hops or paths.hop_count
        # receiver(msg, from_broker) for brokers; receiver(msg) for clients
        self._broker_rx: dict[int, Callable[[Any, int], None]] = {}
        self._client_rx: dict[int, Callable[[Any], None]] = {}
        self._downlinks: dict[int, _WirelessChannel] = {}
        self._uplinks: dict[int, _WirelessChannel] = {}
        # uplink messages are addressed to a broker chosen at send time;
        # each queued uplink message is an (broker_id, payload) pair.

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_broker(self, broker_id: int, rx: Callable[[Any, int], None]) -> None:
        self._broker_rx[broker_id] = rx

    def register_client(self, client_id: int, rx: Callable[[Any], None]) -> None:
        self._client_rx[client_id] = rx
        self._downlinks[client_id] = _WirelessChannel(
            self.clock,
            self.wireless_latency,
            rx,
            faults=self.faults,
            client=client_id,
            direction=DOWNLINK,
            queue_cap=self.queue_cap,
            on_shed=self._on_shed if self.queue_cap is not None else None,
        )
        self._uplinks[client_id] = _WirelessChannel(
            self.clock,
            self.wireless_latency,
            self._deliver_uplink,
            faults=self.faults,
            client=client_id,
            direction=UPLINK,
        )

    # ------------------------------------------------------------------
    # wired transport
    # ------------------------------------------------------------------
    def broker_to_broker(self, frm: int, to: int, msg: Any) -> None:
        """One wired hop between adjacent brokers (tree or grid edge)."""
        if not self.topo.has_edge(frm, to):
            raise RoutingError(f"brokers {frm} and {to} are not adjacent")
        rec = self.recovery
        if rec is not None:
            if rec.is_down(to) or rec.edge_cut(frm, to):
                rec.on_dropped_message(msg)
                return
            self.account(msg.category, 1, False)
            self.clock.call_later_fifo(
                self.wired_latency, self._deliver_guarded,
                to, msg, frm, rec.generation,
            )
            return
        self.account(msg.category, 1, False)
        self.clock.call_later_fifo(
            self.wired_latency, self._deliver_broker, to, msg, frm
        )

    def unicast(self, frm: int, to: int, msg: Any) -> None:
        """Multi-hop unicast over the grid shortest path.

        All hops are accounted at send time; arrival is after
        ``hops * wired_latency``. ``frm == to`` delivers after zero delay
        (still FIFO-ordered behind messages already scheduled for now).
        """
        rec = self.recovery
        if rec is not None:
            if rec.is_down(to):
                rec.on_dropped_message(msg)
                return
            hops = self._unicast_hops(frm, to) if frm != to else 0
            if hops:
                self.account(msg.category, hops, False)
            self.clock.call_later_fifo(
                hops * self.wired_latency, self._deliver_guarded,
                to, msg, frm, rec.generation,
            )
            return
        hops = self._unicast_hops(frm, to) if frm != to else 0
        if hops:
            self.account(msg.category, hops, False)
        self.clock.call_later_fifo(
            hops * self.wired_latency, self._deliver_broker, to, msg, frm
        )

    def _deliver_broker(self, to: int, msg: Any, frm: int) -> None:
        rx = self._broker_rx.get(to)
        if rx is None:
            raise RoutingError(f"no broker registered with id {to}")
        rx(msg, frm)

    def _deliver_guarded(self, to: int, msg: Any, frm: int, gen: int) -> None:
        """Wired delivery under an active crash plan.

        Messages are stamped with the overlay *generation* at send time; a
        repair round advances the generation, so anything still in flight
        when the tree is rewired is dropped (reverse-path forwarding is only
        correct relative to the tree it was routed on) and its event cargo is
        marked as crash-exposed. Messages addressed to a broker that crashed
        after the send are dropped the same way.
        """
        rec = self.recovery
        if rec.generation != gen or rec.is_down(to):
            rec.on_dropped_message(msg)
            return
        self._deliver_broker(to, msg, frm)

    # ------------------------------------------------------------------
    # wireless transport
    # ------------------------------------------------------------------
    def broker_to_client(self, client_id: int, msg: Any) -> None:
        """Queue a downlink message on the client's serial wireless channel."""
        self.account(msg.category, 1, True)
        self._downlinks[client_id].send(msg)

    def client_to_broker(self, client_id: int, broker_id: int, msg: Any) -> None:
        """Queue an uplink message; it reaches the broker after the channel
        serialises it (20 ms per message)."""
        self.account(msg.category, 1, True)
        rec = self.recovery
        if rec is not None:
            self._uplinks[client_id].send(
                (broker_id, client_id, msg, rec.generation)
            )
            return
        self._uplinks[client_id].send((broker_id, client_id, msg))

    def _deliver_uplink(self, item: tuple) -> None:
        broker_id, client_id, msg = item[0], item[1], item[2]
        rec = self.recovery
        if rec is not None:
            # uplink traffic is generation-stamped too: a repair round
            # re-synthesises the client's attachment from ground truth, so
            # a pre-repair connect/publish arriving afterwards would double
            # up — drop it and mark any event cargo as crash-exposed
            gen = item[3] if len(item) > 3 else rec.generation
            if rec.generation != gen or rec.is_down(broker_id):
                rec.on_dropped_message(msg)
                return
        rx = self._broker_rx.get(broker_id)
        if rx is None:
            raise RoutingError(f"no broker registered with id {broker_id}")
        # from-id on uplink deliveries is the *client* id; broker dispatch
        # distinguishes client messages by type, not by the from field.
        rx(msg, -1 - client_id)

    def cancel_downlink_pending(self, client_id: int) -> list[Any]:
        """Reclaim queued downlink messages for a client (see MHH PQ3).

        Under reliability the reclaim is widened to the client's full
        unacked windows: transmitted-but-dropped (and delivered-but-
        unacked) reliable messages join the queued ones in send order, so
        the protocol's existing requeue-and-redeliver machinery recovers
        wireless losses through a handoff. The client-side receive state
        dedups the delivered-but-unacked overlap.
        """
        pending = self._downlinks[client_id].cancel_pending()
        rel = self.reliability
        if rel is not None:
            return rel.reclaim_link(
                client_id, pending, self._downlinks[client_id]._in_service
            )
        return pending

    def requeue_downlink_unacked(self, client_id: int) -> list[Any]:
        """Detach safety net: requeue a client's leftover unacked frames.

        For protocol paths that drop a client without a downlink reclaim,
        any reliable frames still unacked (and not already sitting in the
        channel) are pushed back onto the raw channel — no fate draw, no
        bulkhead — so the backlog drains to the detached client exactly as
        unreclaimed plain deliveries always have. Retires the link state
        and its timers either way. Returns the requeued frames.
        """
        rel = self.reliability
        if rel is None:
            return []
        links = rel.pop_links_for_client(client_id)
        if not links:
            return []
        ch = self._downlinks[client_id]
        present = set(map(id, ch.queue))
        if ch._in_service is not None:
            present.add(id(ch._in_service))
        requeued: list[Any] = []
        for link in links:
            for msg in link.unacked.values():
                if id(msg) not in present:
                    present.add(id(msg))
                    requeued.append(msg)
            rel.retire_link(link)
        if requeued:
            ch.requeue(requeued)
        return requeued

    def downlink_backlog(self, client_id: int) -> int:
        return self._downlinks[client_id].backlog

    # ------------------------------------------------------------------
    # the kernel-facing Transport facade (repro.drivers.base.Transport):
    # pure aliases, so the sans-IO boundary costs no indirection
    # ------------------------------------------------------------------
    send_broker = broker_to_broker
    send_client = broker_to_client
    send_uplink = client_to_broker
    reclaim_downlink = cancel_downlink_pending
