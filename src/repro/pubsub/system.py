"""PubSubSystem: wires the driver, network, brokers, clients and protocol.

This is the top-level object a user (or the experiment runner) builds:

>>> from repro.pubsub.system import PubSubSystem
>>> from repro.pubsub.filters import RangeFilter
>>> sys_ = PubSubSystem(grid_k=3, protocol="mhh", seed=1)
>>> c = sys_.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
>>> c.connect(0); sys_.sim.run(until=100.0)

Brokers sit on a k x k grid; the overlay is a seeded minimum spanning tree;
the mobility protocol is chosen by name ("mhh", "sub-unsub", "home-broker",
"two-phase") or supplied as a factory.

The protocol core is sans-IO: brokers, clients and the mobility protocols
only ever touch ``system.clock`` (now / call_later) and ``system.net``
(send_broker / unicast / send_client / send_uplink) — the ``driver``
argument decides what stands behind those facades. The default
:class:`~repro.drivers.simulated.SimulatedDriver` is the discrete-event
engine (byte-identical to the pre-driver system); a
:class:`~repro.drivers.live.LiveDriver` runs the same kernel under a real
asyncio event loop (see ``python -m repro.experiments.cli soak``).
"""

from __future__ import annotations

from typing import Callable, Optional, Union, TYPE_CHECKING

from repro.drivers.base import Driver
from repro.drivers.simulated import SimulatedDriver
from repro.errors import ConfigurationError
from repro.metrics.hub import MetricsHub
from repro.network.faults import FaultProfile, LinkFaultInjector
from repro.network.recovery import CrashPlan
from repro.network.links import (
    WIRED_LATENCY_MS,
    WIRELESS_LATENCY_MS,
)
from repro.network.paths import ShortestPaths
from repro.network.spanning_tree import minimum_spanning_tree
from repro.network.topology import Topology, grid_topology
from repro.pubsub.broker import Broker
from repro.pubsub.client import Client
from repro.pubsub.filters import Filter
from repro.sim.core import SIM_ENGINES
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer
from repro.util.ids import IdAllocator

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.base import MobilityProtocol
    from repro.pubsub.recovery import RecoveryCoordinator
    from repro.pubsub.wal import LogStore

__all__ = ["PubSubSystem"]

ProtocolSpec = Union[str, Callable[["PubSubSystem"], "MobilityProtocol"]]

DriverSpec = Union[str, Driver, None]


def _protocol_factory(spec: ProtocolSpec) -> Callable[["PubSubSystem"], "MobilityProtocol"]:
    if callable(spec):
        return spec
    from repro.mobility import registry

    return registry.factory(spec)


class PubSubSystem:
    """A complete simulated pub/sub deployment."""

    def __init__(
        self,
        grid_k: int,
        protocol: ProtocolSpec = "mhh",
        seed: int = 0,
        wired_latency: float = WIRED_LATENCY_MS,
        wireless_latency: float = WIRELESS_LATENCY_MS,
        covering_enabled: Optional[bool] = None,
        migration_batch_size: int = 10,
        stream_pacing_ms: Optional[float] = None,
        unicast_routing: str = "grid",
        trace: Optional[Union[str, list[str]]] = None,
        topology: Optional[Topology] = None,
        matching_engine: str = "counting",
        sim_engine: str = "lanes",
        covering_index: bool = True,
        faults: Optional[FaultProfile] = None,
        crashes: Optional["CrashPlan"] = None,
        driver: DriverSpec = None,
        reliable: bool = False,
        retry_budget: int = 8,
        queue_cap: Optional[int] = None,
        durable: bool = False,
        wal_dir: Optional[str] = None,
        log_store: Optional["LogStore"] = None,
    ) -> None:
        if grid_k <= 0 and topology is None:
            raise ConfigurationError(f"grid_k must be >= 1, got {grid_k}")
        if retry_budget < 1:
            raise ConfigurationError(
                f"retry_budget must be >= 1, got {retry_budget}"
            )
        if queue_cap is not None and queue_cap < 1:
            raise ConfigurationError(
                f"queue_cap must be >= 1 (or None for unbounded), "
                f"got {queue_cap}"
            )
        if wal_dir is not None and not durable:
            raise ConfigurationError("wal_dir requires durable=True")
        if log_store is not None and not durable:
            raise ConfigurationError("log_store requires durable=True")
        if migration_batch_size <= 0:
            raise ConfigurationError(
                f"migration_batch_size must be >= 1, got {migration_batch_size}"
            )
        if unicast_routing not in ("grid", "tree"):
            raise ConfigurationError(
                f"unicast_routing must be 'grid' or 'tree', got {unicast_routing!r}"
            )
        if matching_engine not in ("counting", "scan"):
            raise ConfigurationError(
                f"matching_engine must be 'counting' or 'scan', "
                f"got {matching_engine!r}"
            )
        if sim_engine not in SIM_ENGINES:
            raise ConfigurationError(
                f"sim_engine must be one of {SIM_ENGINES}, got {sim_engine!r}"
            )
        if driver is None or driver == "sim":
            driver = SimulatedDriver(engine=sim_engine)
        elif not isinstance(driver, Driver):
            raise ConfigurationError(
                f"driver must be None, 'sim' or a Driver instance, "
                f"got {driver!r}"
            )
        #: the execution driver: owns the clock and builds the transport.
        #: Default is the discrete-event SimulatedDriver; pass a
        #: repro.drivers.live.LiveDriver to run the same kernel under an
        #: asyncio event loop (or a VirtualClock for differential tests).
        self.driver = driver
        #: sans-IO Clock facade (now / call_later / call_later_fifo)
        self.clock = driver.clock
        #: the discrete-event engine when the driver is simulated, else
        #: None — only `run`/`run_until_quiescent` and the experiment
        #: runner depend on it; the kernel itself never touches it
        self.sim = driver.sim
        #: broker matching implementation: 'counting' (broker-wide counting
        #: engine, the default) or 'scan' (legacy per-neighbour scan path,
        #: kept for differential testing)
        self.matching_engine = matching_engine
        #: scheduler implementation: 'lanes' (per-delay FIFO lanes + heap,
        #: the default) or 'heap' (legacy heap-only engine, kept for
        #: differential testing)
        self.sim_engine = sim_engine
        #: indexed covering (per-neighbour CoveringIndex + broker-wide
        #: withdrawal-candidate index; the default) vs the legacy scan-based
        #: covering checks — message-for-message identical, kept toggleable
        #: for differential testing (tests/test_control_plane.py)
        self.covering_index = bool(covering_index)
        self.seed = seed
        #: events per queue-migration message (bulk queue transfers)
        self.migration_batch_size = migration_batch_size
        #: dispatch interval between consecutive batches of one queue
        #: stream. Default: one batch per wired-link slot, so shipping a
        #: backlog takes time proportional to its size (a 60-event queue is
        #: not teleported); 0 disables pacing.
        if stream_pacing_ms is None:
            stream_pacing_ms = wired_latency
        if stream_pacing_ms < 0:
            raise ConfigurationError(
                f"stream_pacing_ms must be >= 0, got {stream_pacing_ms}"
            )
        self.stream_pacing_ms = stream_pacing_ms
        self.streams = RandomStreams(seed)
        self.ids = IdAllocator()
        self.metrics = MetricsHub()
        self.tracer = Tracer(lambda: self.clock.now, enabled=trace)

        self.topology = topology if topology is not None else grid_topology(grid_k)
        self.paths = ShortestPaths(self.topology)
        self.tree = minimum_spanning_tree(self.topology, seed=seed)
        #: 'grid' (paper §5.1: stations talk via shortest paths) or 'tree'
        #: (route point-to-point traffic over the overlay too — ablation)
        self.unicast_routing = unicast_routing

        #: wireless fault profile (None / inactive = perfect links; the
        #: injector is only built for an *active* profile so fault-free
        #: runs stay bit-identical to the seed behaviour)
        self.faults = faults
        self.fault_injector: Optional[LinkFaultInjector] = None
        if faults is not None and faults.active:
            from repro.pubsub.messages import DeliverMessage

            def _droppable(payload: object) -> bool:
                # only final event deliveries ride the unreliable path;
                # control traffic uses the link-layer ARQ (see
                # repro.network.faults). isinstance: ReliableDeliver frames
                # are final deliveries too and must face the same channel.
                return isinstance(payload, DeliverMessage)

            def _on_drop(payload: "DeliverMessage") -> None:
                rel = self.reliability
                if rel is not None and rel.is_tracked(payload):
                    # the retransmit window still covers this frame: a
                    # recoverable drop, reconciled at end of run instead
                    # of an immediate loss write-off
                    self.metrics.on_recoverable_drop(
                        payload.client, payload.event
                    )
                    return
                self.metrics.on_loss(payload.client, payload.event)

            self.fault_injector = LinkFaultInjector(
                faults,
                rng=self.streams.stream("faults/wireless"),
                droppable=_droppable,
                on_drop=_on_drop,
            )
            self.fault_injector.account_fault = self.metrics.traffic.account_fault

        #: end-to-end reliability layer (None = the paper's best-effort
        #: downlink, the default; built below only when reliable=True so
        #: default-off runs construct nothing and draw nothing)
        self.reliability = None
        self.queue_cap = queue_cap

        _on_shed = None
        if queue_cap is not None:
            from repro.pubsub.messages import DeliverMessage as _Deliver

            def _on_shed(payload: object, client_id: int) -> bool:
                # bulkhead policy: shed data (final deliveries), never
                # control — control messages are admitted over-cap
                if not isinstance(payload, _Deliver):
                    return False
                self.metrics.traffic.account_shed("queue_cap", client_id)
                rel = self.reliability
                if rel is not None and rel.is_tracked(payload):
                    # retry-covered: the retransmission timer redelivers
                    # (or eventually writes the window off); ledger only
                    return True
                self.metrics.delivery.mark_shed(client_id, payload.event)
                return True

        #: sans-IO Transport facade the kernel sends through (under the
        #: simulated driver this is the modelled LinkLayer; the live
        #: driver hands the *same* LinkLayer a wall-clock asyncio clock)
        self.net = driver.build_transport(
            self.topology,
            self.paths,
            wired_latency=wired_latency,
            wireless_latency=wireless_latency,
            account=self.metrics.account,
            unicast_hops=(
                self.tree.distance if unicast_routing == "tree" else None
            ),
            faults=self.fault_injector,
            queue_cap=queue_cap,
            on_shed=_on_shed,
        )
        #: legacy alias for the transport (pre-driver call sites/tests)
        self.links = self.net

        if reliable:
            from repro.pubsub.reliability import ReliabilityManager

            self.reliability = ReliabilityManager(
                self, retry_budget=retry_budget
            )
            self.net.reliability = self.reliability
            self.metrics.delivery.enable_reliability()
        elif queue_cap is not None:
            # capped-but-unreliable runs still write sheds off explicitly;
            # the checker needs pair tracking to reconcile them
            self.metrics.delivery.enable_reliability()

        #: durable broker state (write-ahead log + persistent sessions).
        #: Like faults/crashes/reliability, the manager is only built when
        #: durable=True: default-off runs construct nothing, append
        #: nothing, and stay byte-identical to the non-durable seed
        #: behaviour (the hot-path hooks are a single `is not None` check)
        self.durability = None
        if durable:
            from repro.pubsub.wal import DurabilityManager

            store = (log_store if log_store is not None
                     else driver.build_log_store(wal_dir))
            self.durability = DurabilityManager(self, store)

        self.brokers: dict[int, Broker] = {}
        for bid in range(self.topology.n):
            broker = Broker(self, bid)
            self.brokers[bid] = broker
            self.net.register_broker(bid, broker.receive)

        self.clients: dict[int, Client] = {}

        factory = _protocol_factory(protocol)
        self.protocol: "MobilityProtocol" = factory(self)
        # Covering-based propagation pruning: ON for protocols that flood
        # subscriptions per handoff (sub-unsub), OFF for MHH whose migration
        # surgery requires exact per-key table state (paper §4.1 notes the
        # extra machinery covering would need; DESIGN.md records the choice).
        if covering_enabled is None:
            covering_enabled = self.protocol.default_covering
        self.covering_enabled = covering_enabled

        #: overlay failure schedule (None / inactive = crash-free; like the
        #: fault injector, the coordinator is only built for an *active*
        #: plan, so crash-free runs stay bit-identical to the seed behaviour)
        self.crashes = crashes
        self.recovery: Optional["RecoveryCoordinator"] = None
        if crashes is not None and crashes.active:
            from repro.pubsub.recovery import RecoveryCoordinator

            self.recovery = RecoveryCoordinator(self, crashes)
            self.net.recovery = self.recovery
            self.metrics.delivery.enable_crash_tracking()
            self.recovery.schedule()

    # ------------------------------------------------------------------
    @property
    def broker_count(self) -> int:
        return self.topology.n

    def add_client(
        self,
        filter: Filter,
        broker: int,
        mobile: bool = False,
    ) -> Client:
        """Create a client whose home broker is ``broker``.

        The client is *not* connected yet; call :meth:`Client.connect`.
        Its subscription is registered with the delivery checker if it is a
        topic range (the workload's case).
        """
        if broker not in self.brokers:
            raise ConfigurationError(f"unknown broker id {broker}")
        cid = self.ids.next("client")
        client = Client(self, cid, filter, home_broker=broker, mobile=mobile)
        self.clients[cid] = client
        rng = filter.as_range()
        if rng is not None and rng[0] == "topic":
            self.metrics.delivery.register_subscription(cid, rng[1], rng[2])
        return client

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (see :meth:`repro.sim.core.Simulator.run`).

        Only meaningful under the simulated driver; a live system is driven
        by its clock (the asyncio loop / :class:`VirtualClock`) instead.
        """
        self._require_sim().run(until=until)

    def run_until_quiescent(self, max_time: Optional[float] = None) -> None:
        """Drain every pending event (bounded by ``max_time`` if given)."""
        if max_time is None:
            self._require_sim().run()
        else:
            self._require_sim().run(until=max_time)

    def _require_sim(self):
        if self.sim is None:
            raise ConfigurationError(
                f"PubSubSystem.run is only available under the simulated "
                f"driver (driver={self.driver.name!r}); drive the live "
                f"clock / event loop instead"
            )
        return self.sim

    # ------------------------------------------------------------------
    # invariants (used by tests)
    # ------------------------------------------------------------------
    def check_mirror_invariant(self) -> None:
        """Every broker's advertised set equals the neighbour's received set."""
        for bid, broker in self.brokers.items():
            for nbr in broker.table.neighbors:
                mine = broker.table.snapshot_advertised()[nbr]
                theirs = self.brokers[nbr].table.snapshot_broker_filters()[bid]
                if mine != theirs:
                    raise AssertionError(
                        f"mirror invariant broken on edge {bid}->{nbr}: "
                        f"advertised={sorted(map(str, mine))} "
                        f"received={sorted(map(str, theirs))}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PubSubSystem brokers={self.broker_count} "
            f"clients={len(self.clients)} protocol={self.protocol.name}>"
        )
