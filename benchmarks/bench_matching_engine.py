"""Microbenchmark: broker-wide counting engine vs the scan-matching oracle.

The scan oracle pays O(#client entries + #general filters) per event; the
counting engine resolves the same event from (attribute, operator) indexes
in one output-sensitive pass. This bench drives a full
:class:`~repro.pubsub.filter_table.FilterTable` — the broker hot path's
exact entry point — against the oracle's
:class:`~repro.conformance.oracle.ScanFilterTable` under two workloads at
≥1k filters per broker:

* ``range``: narrow topic-range client subscriptions (the paper's workload
  shape at production subscriber counts);
* ``conjunction``: content-based ``ConjunctionFilter`` subscriptions mixing
  EQ/RANGE/GE/PREFIX constraints (where the scan oracle is a pure linear
  evaluation).

Both tables must produce identical match results (asserted); the
comparison test asserts the counting engine wins at this scale.
"""

from __future__ import annotations

import time

import numpy as np

from repro.conformance.oracle import ScanFilterTable
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable
from repro.pubsub.filters import (
    AttributeConstraint,
    ConjunctionFilter,
    Op,
    RangeFilter,
)

N_FILTERS = 2_000
N_NEIGHBOR_FILTERS = 200
N_EVENTS = 2_000
NEIGHBORS = [1, 2, 3, 4]


#: table class per matching mode: production counting vs the scan oracle
TABLES = {"counting": FilterTable, "scan": ScanFilterTable}


def build_table(mode: str, workload: str, n_filters: int = N_FILTERS) -> FilterTable:
    rng = np.random.default_rng(7)
    table = TABLES[mode](0, NEIGHBORS)
    # neighbour side: narrow topic ranges advertised by the 4 peers
    for i in range(N_NEIGHBOR_FILTERS):
        lo = float(rng.uniform(0.0, 0.999))
        table.add_broker_filter(
            NEIGHBORS[i % len(NEIGHBORS)], f"n{i}",
            RangeFilter(lo, min(1.0, lo + 0.001)),
        )
    # client side: the broker-local subscriber population
    for i in range(n_filters):
        if workload == "range":
            lo = float(rng.uniform(0.0, 1.0 - 2.0 / n_filters))
            f = RangeFilter(lo, lo + 2.0 / n_filters)
        else:
            lo_t = float(rng.uniform(0.0, 0.98))
            lo_s = float(rng.uniform(0.0, 95.0))
            f = ConjunctionFilter([
                AttributeConstraint("kind", Op.EQ, f"k{i % 200}"),
                AttributeConstraint("topic", Op.RANGE, (lo_t, lo_t + 0.02)),
                AttributeConstraint("size", Op.RANGE, (lo_s, lo_s + 5.0)),
            ])
        table.set_client_entry(ClientEntry(i, ("c", i), f))
    return table


def make_events(workload: str, n_events: int = N_EVENTS) -> list[Notification]:
    rng = np.random.default_rng(13)
    events = []
    for i in range(n_events):
        attrs = None
        if workload == "conjunction":
            attrs = {"kind": f"k{int(rng.integers(0, 240))}",
                     "size": float(rng.uniform(0.0, 120.0))}
        events.append(
            Notification(i, 0, i, 0.0, float(rng.uniform(0.0, 1.0)), attrs)
        )
    return events


def run_matches(table: FilterTable, events: list[Notification]) -> int:
    hits = 0
    match = table.match
    for ev in events:
        nbrs, entries = match(ev, None)
        hits += len(nbrs) + len(entries)
    return hits


def _timed(fn, *args) -> tuple[float, int]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def test_bench_counting_range(benchmark):
    table = build_table("counting", "range")
    events = make_events("range")
    hits = benchmark(run_matches, table, events)
    benchmark.extra_info["hits"] = hits
    assert hits == run_matches(build_table("scan", "range"), events)


def test_bench_scan_range(benchmark):
    table = build_table("scan", "range")
    events = make_events("range")
    assert benchmark(run_matches, table, events) > 0


def test_bench_counting_conjunction(benchmark):
    table = build_table("counting", "conjunction")
    events = make_events("conjunction")
    hits = benchmark(run_matches, table, events)
    benchmark.extra_info["hits"] = hits
    assert hits == run_matches(build_table("scan", "conjunction"), events)


def test_bench_scan_conjunction(benchmark):
    table = build_table("scan", "conjunction")
    events = make_events("conjunction")
    assert benchmark(run_matches, table, events) > 0


def test_counting_beats_scan_at_scale():
    """Acceptance: the counting engine wins at ≥1k filters per broker."""
    for workload in ("range", "conjunction"):
        counting = build_table("counting", workload)
        scan = build_table("scan", workload)
        events = make_events(workload, 500)
        # warm both (build lazy indexes outside the timed window)
        assert run_matches(counting, events[:10]) == run_matches(scan, events[:10])
        t_counting, h1 = _timed(run_matches, counting, events)
        t_scan, h2 = _timed(run_matches, scan, events)
        assert h1 == h2
        assert t_counting < t_scan, (
            f"{workload}: counting {t_counting:.4f}s not faster than "
            f"scan {t_scan:.4f}s at {N_FILTERS} filters"
        )
