"""Microbenchmark: raw scheduler throughput, lane scheduler vs heap oracle.

The scheduler is the innermost loop of every experiment; this bench tracks
its event throughput (schedule + fire) and the cost of the process layer on
top, so regressions in the hot path are visible independently of protocol
logic.

Two workload shapes:

* ``pump_callbacks`` / ``pump_processes`` — the original small-population
  chains (100 concurrent timers / 50 processes): the regime where protocol
  logic, not the scheduler, dominates. Tracked for continuity.
* ``pump_links`` — a steady-state broker network at scale: a large
  in-flight message population (tens of thousands of events pending at
  once, like millions of users publishing through the overlay), every
  message on one of a handful of constant link delays. This is the regime
  the lane scheduler exists for: the heap pays O(log n) sift cost per
  event against the lanes' O(1) deque ops + O(log #lanes) merge, so the
  gap widens with the in-flight population.

``test_lanes_beat_heap_at_scale`` is the acceptance gate: the production
:class:`~repro.sim.core.Simulator` must clear 2x the throughput of the
heap-only :class:`~repro.conformance.oracle.HeapSimulator` on the
large-population link workload (the differential ordering tests live in
``tests/test_sim_engine.py``).
"""

from __future__ import annotations

import time

from repro.conformance.oracle import HeapSimulator
from repro.sim.core import Simulator
from repro.sim.process import spawn

N_EVENTS = 200_000

#: the delays real link traffic carries: wired hop, wireless slot,
#: 2-4 hop unicast legs (see repro.network.links)
LINK_DELAYS = (10.0, 10.0, 20.0, 20.0, 30.0, 40.0)

#: steady-state in-flight population for the at-scale comparison (the win
#: grows with the population — ~2.5x at 50k, ~2.7x at 100k, ~2.9x at 200k —
#: so this sits high enough to give the >=2x CI gate real headroom)
N_IN_FLIGHT = 100_000


def pump_callbacks(n: int) -> int:
    sim = Simulator()
    fired = 0

    def tick():
        nonlocal fired
        fired += 1
        if fired < n:
            sim.schedule(1.0, tick)

    # seed a handful of concurrent chains like a real broker network
    for i in range(100):
        sim.schedule(float(i % 7), tick)
    sim.run()
    return fired


def pump_processes(n: int) -> int:
    sim = Simulator()
    done = 0

    def worker(steps):
        nonlocal done
        for _ in range(steps):
            yield 1.0
        done += 1

    for _ in range(50):
        spawn(sim, worker(n // 50))
    sim.run()
    return done


def _nop() -> None:
    return None


def pump_links(sim_class: type, n_pending: int, rounds: int) -> int:
    """Steady-state link traffic: ``n_pending`` messages in flight at once,
    each round schedules a fresh wave onto the constant link delays and
    drains it. Callbacks are no-ops so the measurement isolates scheduler
    cost (schedule + merge + fire)."""
    sim = sim_class()
    fifo = sim.schedule_fifo
    n_delays = len(LINK_DELAYS)
    total = 0
    for _ in range(rounds):
        for i in range(n_pending):
            fifo(LINK_DELAYS[i % n_delays], _nop)
        sim.run()
        total += n_pending
    return total


def _best_of(n: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def measure_link_throughput(
    n_pending: int = N_IN_FLIGHT, rounds: int = 4, repeats: int = 3
) -> dict[str, float]:
    """Best-of-``repeats`` link-traffic timing for both schedulers.

    The single source of truth for the at-scale measurement protocol: both
    the CI acceptance gate below and ``benchmarks/perf_trajectory.py``'s
    BENCH_core.json artifact call this, so they can never drift apart.
    """
    pump_links(Simulator, 1000, 1)  # warm up allocator/caches outside timing
    pump_links(HeapSimulator, 1000, 1)
    t_lanes = _best_of(repeats, pump_links, Simulator, n_pending, rounds)
    t_heap = _best_of(repeats, pump_links, HeapSimulator, n_pending, rounds)
    n_events = rounds * n_pending
    return {
        "events": float(n_events),
        "in_flight": float(n_pending),
        "lanes_s": t_lanes,
        "heap_s": t_heap,
        "lanes_events_per_s": n_events / t_lanes,
        "heap_events_per_s": n_events / t_heap,
        "speedup": t_heap / t_lanes,
    }


# ---------------------------------------------------------------------------
# tracked benchmarks
# ---------------------------------------------------------------------------
def test_scheduler_throughput(benchmark):
    fired = benchmark(pump_callbacks, N_EVENTS)
    assert fired >= N_EVENTS
    benchmark.extra_info["events"] = fired


def test_process_layer_throughput(benchmark):
    done = benchmark(pump_processes, 100_000)
    assert done == 50


def test_link_traffic_throughput_lanes(benchmark):
    total = benchmark(pump_links, Simulator, N_IN_FLIGHT, 2)
    assert total == 2 * N_IN_FLIGHT
    benchmark.extra_info["events"] = total
    benchmark.extra_info["in_flight"] = N_IN_FLIGHT


def test_link_traffic_throughput_heap(benchmark):
    total = benchmark(pump_links, HeapSimulator, N_IN_FLIGHT, 2)
    assert total == 2 * N_IN_FLIGHT
    benchmark.extra_info["events"] = total
    benchmark.extra_info["in_flight"] = N_IN_FLIGHT


# ---------------------------------------------------------------------------
# acceptance comparison
# ---------------------------------------------------------------------------
def test_lanes_beat_heap_at_scale():
    """Acceptance: >=2x scheduler throughput on at-scale link traffic."""
    m = measure_link_throughput()
    assert m["speedup"] >= 2.0, (
        f"lanes {m['lanes_events_per_s'] / 1e6:.2f}M ev/s vs heap "
        f"{m['heap_events_per_s'] / 1e6:.2f}M ev/s — only "
        f"{m['speedup']:.2f}x at {N_IN_FLIGHT} in flight"
    )
