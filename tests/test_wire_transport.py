"""Socket-transport parity: broker processes over real TCP vs the simulator.

The wire tentpole's contract is that moving brokers into their own OS
processes — real sockets, real framing, real keepalives — changes *nothing*
observable: the same fuzzer scenario must produce the identical delivery
log, counters and invariant-matrix verdict as the in-process simulated
driver, for every protocol. A second battery severs live node connections
mid-stream and requires the session-resume layer to restore byte-identical
outcomes (no double-applied effects, no swallowed ones).

A digest gate pins the simulated driver itself: seven fixed fuzzer seeds
must keep their exact outcome hashes, proving the wire subsystem landed
without perturbing the kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.conformance.fuzzer import ScenarioOutcome, check_invariants, run_scenario
from repro.conformance.scenarios import PROTOCOLS, Scenario
from repro.errors import ConfigurationError
from repro.wire.harness import run_socket_scenario

#: the pinned parity scenario: k=2 grid, hotspot mobility, lossy+duplicating
#: wireless links — handoffs, queue migrations and fault draws all active
PARITY_SEED = 303

#: outcome fields the socket run must reproduce exactly (engine_bundle and
#: sim_events describe the engine, not the behaviour)
_PARITY_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(ScenarioOutcome)
    if f.name not in ("engine_bundle", "sim_events")
)


def _socket_outcome(system) -> ScenarioOutcome:
    """Snapshot a socket-harness run in the fuzzer's outcome shape."""
    stats = system.metrics.delivery.stats
    injector = system.fault_injector
    meter = system.metrics.traffic
    return ScenarioOutcome(
        engine_bundle=("socket", "counting", True),
        published=stats.published,
        expected=stats.expected,
        delivered=stats.delivered,
        duplicates=stats.duplicates,
        order_violations=stats.order_violations,
        lost=stats.lost_explicit,
        missing=stats.missing,
        handoffs=system.metrics.handoffs.handoff_count,
        injected_drops=injector.drops if injector else 0,
        injected_dups=injector.dups_delivered if injector else 0,
        meter_drops=meter.total_dropped(),
        meter_dups=meter.total_duplicated(),
        sim_events=0,
        recovered=stats.recovered,
        shed=stats.shed,
        retransmits=meter.total_retransmits(),
        breaker_trips=meter.total_breaker_trips(),
        wired_by_category=dict(meter.by_category()),
        delivery_log=tuple(system.metrics.delivery.log),
    )


def _parity_diff(sim: ScenarioOutcome, sock: ScenarioOutcome) -> list:
    diffs = []
    for name in _PARITY_FIELDS:
        a, b = getattr(sim, name), getattr(sock, name)
        if name == "wired_by_category":
            # keepalive shedding is wire-only bookkeeping; every *traffic*
            # category must still match hop for hop
            b = {k: v for k, v in b.items() if not k.startswith("wire_")}
        if a != b:
            diffs.append((name, a, b))
    return diffs


def _scenario(protocol: str) -> Scenario:
    return dataclasses.replace(Scenario.from_seed(PARITY_SEED), protocol=protocol)


# ---------------------------------------------------------------------------
# the parity gate: four protocols over loopback TCP
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_socket_transport_matches_simulated_driver(protocol):
    scenario = _scenario(protocol)
    sim = run_scenario(scenario)
    system = run_socket_scenario(scenario.config(), processes=2)
    sock = _socket_outcome(system)
    assert _parity_diff(sim, sock) == []
    assert sock.delivery_log, "degenerate run: no deliveries at all"
    # the socket run must clear the same invariant matrix the fuzzer
    # applies to the simulated engines
    assert check_invariants(scenario, sock) == []
    # and the run genuinely crossed process boundaries
    stats = system.net.stats
    assert stats.dispatches > 0 and stats.effects > 0
    assert stats.bytes_tx > 0 and stats.bytes_rx > 0


def test_three_process_split_is_also_identical():
    """Ownership partitioning must not matter: 2-way and 3-way splits of
    the same grid produce the identical outcome."""
    scenario = _scenario("mhh")
    sim = run_scenario(scenario)
    system = run_socket_scenario(scenario.config(), processes=3)
    assert _parity_diff(sim, _socket_outcome(system)) == []


# ---------------------------------------------------------------------------
# mid-stream connection kills: resume must be invisible
# ---------------------------------------------------------------------------
def test_killed_connections_resume_with_identical_outcome():
    scenario = _scenario("mhh")
    sim = run_scenario(scenario)

    def arm(transport):
        # sever each node's TCP connection mid-dispatch-stream, at
        # different points, so both resume paths (lost dispatch frame,
        # lost effect suffix) get exercised across the run
        transport.peers[0].kill_after_frames = 25
        transport.peers[1].kill_after_frames = 60

    system = run_socket_scenario(scenario.config(), processes=2, tweak=arm)
    sock = _socket_outcome(system)
    stats = system.net.stats
    assert stats.resumes >= 2, "the kill hooks never fired"
    assert all(p.kills == 1 for p in system.net.peers)
    # Each kill lands mid-dispatch (after an effect/query frame, before the
    # "done" frame), so the node MUST retransmit the severed suffix of its
    # outbox for the run to complete at all -- make that visible.
    assert stats.frames_replayed > 0
    assert _parity_diff(sim, sock) == []
    assert check_invariants(scenario, sock) == []


def test_repeated_kills_on_one_connection_still_converge():
    scenario = _scenario("two-phase")
    sim = run_scenario(scenario)
    killer_state = {"count": 0}

    def rearming_kill(transport):
        peer = transport.peers[0]
        original = peer.kill
        def kill_and_rearm():
            original()
            killer_state["count"] += 1
            if killer_state["count"] < 4:
                peer.kill_after_frames = 30
        peer.kill = kill_and_rearm
        peer.kill_after_frames = 30

    system = run_socket_scenario(
        scenario.config(), processes=2, tweak=rearming_kill
    )
    assert killer_state["count"] >= 2
    assert system.net.stats.resumes >= killer_state["count"]
    assert _parity_diff(sim, _socket_outcome(system)) == []


# ---------------------------------------------------------------------------
# configuration gates
# ---------------------------------------------------------------------------
def test_harness_refuses_unsupported_layers():
    reliable = Scenario.reliability_from_seed(PARITY_SEED, protocol="mhh")
    with pytest.raises(ConfigurationError):
        run_socket_scenario(reliable.config(), processes=2)
    crashed = Scenario.crash_from_seed(PARITY_SEED, protocol="mhh")
    with pytest.raises(ConfigurationError):
        run_socket_scenario(crashed.config(), processes=2)
    with pytest.raises(ConfigurationError):
        run_socket_scenario(_scenario("mhh").config(), processes=0)


# ---------------------------------------------------------------------------
# the kernel-untouched gate: pinned simulated-driver digests
# ---------------------------------------------------------------------------
#: sha256 over the full outcome tuple of Scenario.from_seed(seed) under the
#: default engine bundle. These digests predate the wire subsystem; any
#: drift means the kernel's behaviour changed, which the wire PR promises
#: not to do.
SIM_DIGESTS = {
    101: "ca615defd9c58c18f077e87a528323883a435bca3677890d42eab64b99f7c0e5",
    202: "3d09ccab15411e1872e9553df8248f71dde3f1334a3ad96e53f9ed10c1bc2550",
    303: "5ec14fe71c1eb9f867168f81b69b1e88373f2784a3e8d5ca3365f453ffd0b9e1",
    404: "09f35c576eedc2a9769eb621550c59b04ee84cbd2c4ab0ba1b402a7bf07d0056",
    505: "133697096acef1614dfe39fdb3f3e0875a35333ece44403ab387305556520f20",
    606: "b385e3fbd6a81a2b8e7448b62b37d70a3b9f3ca2e48ad17258ce6137351ae57f",
    707: "a0ff608f047103dae32e9f165d28f3f00263607951325e01cda0fc8558752ae6",
}


def _digest(o: ScenarioOutcome) -> str:
    blob = repr((
        o.published, o.expected, o.delivered, o.duplicates,
        o.order_violations, o.lost, o.missing, o.handoffs,
        o.injected_drops, o.injected_dups, o.sim_events,
        sorted(o.wired_by_category.items()), o.delivery_log,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(SIM_DIGESTS))
def test_simulated_driver_outcomes_are_unchanged(seed):
    assert _digest(run_scenario(Scenario.from_seed(seed))) == SIM_DIGESTS[seed]
