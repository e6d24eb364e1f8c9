"""Differential tests: lane-based scheduler vs legacy heap-only engine.

The ``lanes`` engine must be *event-for-event identical* to the ``heap``
engine — same callbacks, same firing order, same clock readings — because
every FIFO-link correctness argument in the protocol layer rests on the
scheduler's deterministic ``(time, seq)`` order. These tests drive both
engines with identical inputs at three levels:

1. raw scheduler: randomized interleavings of ``schedule`` /
   ``schedule_fifo`` / cancellation, including nested scheduling from
   inside callbacks and ``run(until=...)`` windowing;
2. whole-system: randomized MHH / sub-unsub / home-broker / two-phase
   mobility scenarios with full tracing — the trace must be byte-identical;
3. experiment harness: a complete ``run_experiment`` per engine — the
   ResultRow metrics must match exactly (modulo wall-clock time).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.sim.core import SIM_ENGINES, Simulator
from repro.workload.spec import WorkloadSpec

# a realistic delay mix: zero-delay deferrals, wired hops, wireless slots,
# multi-hop unicast legs, and irregular timer-style delays
LANE_DELAYS = (0.0, 10.0, 10.0, 20.0, 30.0, 50.0)


# ---------------------------------------------------------------------------
# level 1: raw scheduler interleavings
# ---------------------------------------------------------------------------
def pump_random(engine: str, seed: int, n_ops: int = 600):
    """Drive one engine through a randomized schedule/cancel workload.

    All randomness is drawn in callback-firing order, so two engines
    produce identical logs iff they fire events identically.
    """
    rng = random.Random(seed)
    sim = Simulator(engine=engine)
    log: list[tuple[float, int]] = []
    handles: list = []
    ops = 0

    def spawn_some() -> None:
        nonlocal ops
        for _ in range(rng.randrange(0, 4)):
            if ops >= n_ops:
                return
            ops += 1
            tag = ops
            if rng.random() < 0.6:
                delay = rng.choice(LANE_DELAYS)
                sim.schedule_fifo(delay, fire, tag)
            else:
                delay = rng.choice(LANE_DELAYS + (rng.uniform(0.0, 45.0),))
                h = sim.schedule(delay, fire, tag)
                if rng.random() < 0.3:
                    handles.append(h)

    def fire(tag: int) -> None:
        log.append((sim.now, tag))
        if handles and rng.random() < 0.2:
            handles.pop(rng.randrange(len(handles))).cancel()
        spawn_some()

    while ops < n_ops:
        spawn_some()
        sim.run()
    return log, sim.events_processed


@pytest.mark.parametrize("seed", range(15))
def test_differential_random_interleavings(seed):
    lanes = pump_random("lanes", seed)
    heap = pump_random("heap", seed)
    assert lanes == heap


@pytest.mark.parametrize("seed", range(5))
def test_differential_windowed_run(seed):
    """run(until=...) windows cut both engines at the same instants."""
    logs = {}
    for engine in SIM_ENGINES:
        rng = random.Random(seed)
        sim = Simulator(engine=engine)
        log: list[tuple[float, int]] = []

        def tick(tag, depth):
            log.append((sim.now, tag))
            if depth < 6:
                sim.schedule_fifo(rng.choice(LANE_DELAYS), tick, tag, depth + 1)
                sim.schedule(rng.uniform(0.0, 25.0), tick, -tag, depth + 1)

        for i in range(30):
            tick(i + 1, 0)
        t = 0.0
        while sim.peek() is not None:
            t += rng.uniform(1.0, 40.0)
            sim.run(until=t)
            log.append((sim.now, 0))  # clock checkpoints must agree too
        logs[engine] = log
    assert logs["lanes"] == logs["heap"]


def test_fifo_same_delay_preserves_submission_order():
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule_fifo(10.0, fired.append, i)
    sim.run()
    assert fired == list(range(100))


def test_fifo_interleaves_with_heap_by_time_then_seq():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "heap-a")     # seq 0
    sim.schedule_fifo(10.0, fired.append, "lane-a")  # seq 1
    sim.schedule(5.0, fired.append, "heap-b")      # seq 2, earlier time
    sim.schedule_fifo(10.0, fired.append, "lane-b")  # seq 3
    sim.schedule_fifo(20.0, fired.append, "late")    # seq 4, later time
    sim.run()
    assert fired == ["heap-b", "heap-a", "lane-a", "lane-b", "late"]


def test_fifo_zero_delay_defers_within_instant():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule_fifo(0.0, fired.append, "inner")

    sim.schedule_fifo(1.0, outer)
    sim.schedule(1.0, fired.append, "sibling")
    sim.run()
    assert fired == ["outer", "sibling", "inner"]


def test_fifo_negative_delay_rejected():
    for engine in SIM_ENGINES:
        sim = Simulator(engine=engine)
        with pytest.raises(SchedulingError):
            sim.schedule_fifo(-0.1, lambda: None)


def test_invalid_engine_rejected():
    with pytest.raises(ConfigurationError):
        Simulator(engine="quantum")
    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=2, sim_engine="quantum")
    # the retired compiled-engine names are unknown values like any other
    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=2, sim_engine="lanes-compiled")
    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=2, matching_engine="counting-compiled")


def test_fifo_run_until_and_pending_and_peek():
    sim = Simulator()
    sim.schedule_fifo(10.0, lambda: None)
    sim.schedule_fifo(30.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    assert sim.pending == 3
    assert sim.peek() == 10.0
    sim.run(until=25.0)
    assert sim.now == 25.0
    assert sim.pending == 1
    assert sim.peek() == 30.0
    sim.run()
    assert sim.pending == 0 and sim.peek() is None


def test_step_merges_lanes_and_heap():
    sim = Simulator()
    fired = []
    sim.schedule_fifo(10.0, fired.append, "lane")
    sim.schedule(5.0, fired.append, "heap")
    assert sim.step() and fired == ["heap"]
    assert sim.step() and fired == ["heap", "lane"]
    assert sim.step() is False


# ---------------------------------------------------------------------------
# level 2: whole-system scenarios, byte-identical traces
# ---------------------------------------------------------------------------
def run_scenario(protocol: str, engine: str, seed: int):
    """A randomized mobility scenario; rng draws happen outside callbacks,
    so both engines see an identical action script."""
    rng = random.Random(seed)
    system = PubSubSystem(
        grid_k=3, protocol=protocol, seed=seed, sim_engine=engine, trace="*"
    )
    n = system.broker_count
    subs = []
    for _ in range(4):
        lo = rng.uniform(0.0, 0.5)
        subs.append(
            system.add_client(
                RangeFilter(lo, lo + rng.uniform(0.1, 0.5)),
                broker=rng.randrange(n),
                mobile=True,
            )
        )
    pubs = [
        system.add_client(RangeFilter(2.0, 2.0), broker=rng.randrange(n))
        for _ in range(2)
    ]
    for c in subs + pubs:
        c.connect(c.home_broker)
    t = 0.0
    for _step in range(50):
        t += rng.uniform(5.0, 400.0)
        system.run(until=t)
        roll = rng.random()
        mover = rng.choice(subs)
        if roll < 0.35:
            if mover.connected:
                mover.disconnect()
            else:
                mover.connect(rng.randrange(n))
        elif roll < 0.45:
            # proclaimed moves are an MHH feature (§4.1); baselines get a
            # silent move instead (same rng draws either way)
            dest = rng.randrange(n)
            if mover.connected:
                if protocol == "mhh":
                    mover.proclaim_and_disconnect(dest)
                else:
                    mover.disconnect()
        else:
            pub = rng.choice(pubs)
            for _ in range(rng.randrange(1, 4)):
                pub.publish(topic=rng.random())
    for c in subs:
        if not c.connected:
            c.connect(c.last_broker if c.last_broker is not None else c.home_broker)
    system.sim.run()
    return system


@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub", "home-broker", "two-phase"])
@pytest.mark.parametrize("seed", [3, 17])
def test_differential_end_to_end_traces(protocol, seed):
    systems = {
        engine: run_scenario(protocol, engine, seed) for engine in SIM_ENGINES
    }
    lanes, heap = systems["lanes"], systems["heap"]
    # byte-identical trace (times, categories, payloads, order)
    assert lanes.tracer.format() == heap.tracer.format()
    assert lanes.tracer.records == heap.tracer.records
    # identical delivery / traffic / handoff metrics and event counts
    for attr in ("delivered", "duplicates", "order_violations", "missing",
                 "expected", "published"):
        assert getattr(lanes.metrics.delivery.stats, attr) == \
            getattr(heap.metrics.delivery.stats, attr), attr
    assert lanes.metrics.traffic.by_category() == heap.metrics.traffic.by_category()
    assert lanes.metrics.handoffs.delays() == heap.metrics.handoffs.delays()
    assert lanes.sim.events_processed == heap.sim.events_processed


# ---------------------------------------------------------------------------
# level 3: full experiment harness, identical ResultRow metrics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub"])
def test_differential_run_experiment_result_rows(protocol):
    rows = {}
    for engine in SIM_ENGINES:
        cfg = ExperimentConfig(
            protocol=protocol,
            grid_k=3,
            seed=7,
            sim_engine=engine,
            workload=WorkloadSpec(
                clients_per_broker=3,
                mobile_fraction=0.5,
                mean_connected_s=40.0,
                mean_disconnected_s=40.0,
                publish_interval_s=30.0,
                duration_s=240.0,
            ),
        )
        rows[engine] = run_experiment(cfg)
    lanes, heap = rows["lanes"], rows["heap"]
    assert lanes.as_dict() == heap.as_dict()
    assert lanes.overhead_by_category == heap.overhead_by_category
    assert lanes.sim_events == heap.sim_events
