"""Emit a machine-readable perf-trajectory snapshot (``BENCH_core.json``).

CI runs this after the benchmark smoke job and uploads the JSON as an
artifact, so every PR leaves a wall-time data point behind and perf
regressions in the three core hot paths are visible as a trajectory across
PRs rather than anecdotes:

* **scheduler** — lane vs heap engine throughput on at-scale link traffic
  (:mod:`benchmarks.bench_sim_engine`);
* **matching** — counting vs scan engine throughput at 2k filters/broker
  (:mod:`benchmarks.bench_matching_engine`);
* **control plane** — routing-state churn: incremental vs rebuild interval
  index at 2k filters, indexed vs scan covering withdrawals, and the
  churn-heaviest fig5a point (conn=1s)
  (:mod:`benchmarks.bench_control_plane`);
* **reliability** — wall-time overhead of the end-to-end ACK/retransmit
  layer on a lossy churn run, off vs on at the same seed
  (:mod:`repro.pubsub.reliability`);
* **durability** — wall-time overhead of the write-ahead log + persistent
  sessions over the reliable baseline at the same seed
  (:mod:`repro.pubsub.wal`);
* **fig5a** — the full Figure 5 sweep wall time at the chosen scale (the
  end-to-end number everything else serves).

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py --out BENCH_core.json
    MHH_BENCH_SCALE=small PYTHONPATH=src python -m benchmarks.perf_trajectory

Timings are best-of-N wall clock (N=3 for the microbenches, 1 for the
sweep — sweeps are deterministic per seed). Absolute numbers vary across
machines; ratios (lanes/heap, counting/scan) are the stable signal.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

# support both `python benchmarks/perf_trajectory.py` and -m invocation
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_control_plane import (  # noqa: E402
    measure_interval_churn,
    measure_withdraw_covering,
)
from benchmarks.bench_matching_engine import (  # noqa: E402
    N_FILTERS,
    build_table,
    make_events,
    run_matches,
)
from benchmarks.bench_sim_engine import measure_link_throughput  # noqa: E402
from dataclasses import replace  # noqa: E402
from repro.experiments.config import ExperimentConfig, bench_scale  # noqa: E402
from repro.experiments.figures import run_fig5  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.network.faults import FaultProfile  # noqa: E402
from repro.workload.spec import WorkloadSpec  # noqa: E402

SCHEMA_VERSION = 1


def _best_of(n: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _git_commit(root: Path = Path(__file__).resolve().parent.parent) -> str:
    """Short ``HEAD`` of ``root``, with ``+dirty`` when tracked files under
    ``src/`` or ``benchmarks/`` differ from it (the snapshot then measures
    uncommitted code, not ``HEAD``)."""
    def git(*args: str) -> str:
        return subprocess.check_output(
            ["git", *args], cwd=root, text=True, stderr=subprocess.DEVNULL
        ).strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--",
                    "src", "benchmarks")
    except Exception:  # git absent, or root is not a repository
        return "unknown"
    return head + "+dirty" if dirty else head


def collect(scale: str) -> dict:
    """Run the three core measurements and return the snapshot dict."""
    metrics: dict[str, float] = {}

    # scheduler: at-scale link traffic, both engines (same measurement
    # protocol as the CI acceptance gate — one source of truth)
    link = measure_link_throughput()
    metrics["scheduler_in_flight"] = link["in_flight"]
    metrics["scheduler_lanes_events_per_s"] = link["lanes_events_per_s"]
    metrics["scheduler_heap_events_per_s"] = link["heap_events_per_s"]
    metrics["scheduler_lanes_speedup"] = link["speedup"]

    # matching: range workload at 2k filters/broker, both engines
    events = make_events("range", 500)
    counting = build_table("counting", "range")
    scan = build_table("scan", "range")
    run_matches(counting, events[:10])  # build lazy indexes outside timing
    run_matches(scan, events[:10])
    t_counting = _best_of(3, run_matches, counting, events)
    t_scan = _best_of(3, run_matches, scan, events)
    metrics["matching_counting_events_per_s"] = len(events) / t_counting
    metrics["matching_scan_events_per_s"] = len(events) / t_scan
    metrics["matching_counting_speedup"] = t_scan / t_counting
    metrics["matching_n_filters"] = float(N_FILTERS)

    # control plane: routing-state churn (same measurement protocols as the
    # bench_control_plane CI gates — one source of truth)
    churn = measure_interval_churn()
    metrics["control_plane_incremental_ops_per_s"] = churn["incremental_ops_per_s"]
    metrics["control_plane_rebuild_ops_per_s"] = churn["rebuild_ops_per_s"]
    metrics["control_plane_churn_speedup"] = churn["speedup"]
    metrics["control_plane_n_filters"] = churn["n_filters"]
    withdraw = measure_withdraw_covering()
    metrics["control_plane_withdraw_indexed_ops_per_s"] = withdraw["indexed_ops_per_s"]
    metrics["control_plane_withdraw_legacy_ops_per_s"] = withdraw["legacy_ops_per_s"]
    metrics["control_plane_withdraw_speedup"] = withdraw["speedup"]

    # reliability: wall-time cost of the ACK/retransmit layer on one lossy
    # churn run, same seed off vs on. Default-off must stay free (it
    # constructs nothing), so the overhead ratio is the price of turning
    # the layer on — timer traffic, acks, retransmits — not of having it.
    # 600 simulated seconds: the overhead ratios are gated at an absolute
    # cap, and sub-0.2s wall times put the scheduler-noise floor inside
    # the gate's tolerance — a longer run amortizes it away
    rel_cfg = ExperimentConfig(
        protocol="mhh", grid_k=3, seed=1,
        workload=WorkloadSpec(
            clients_per_broker=4, mobile_fraction=0.5,
            mean_connected_s=10.0, mean_disconnected_s=5.0,
            publish_interval_s=10.0, duration_s=600.0,
        ),
        faults=FaultProfile(deliver_loss=0.1),
    )
    # the overhead ratios are gated at an absolute cap, so the noise floor
    # matters more than for the info-only wall times: interleave the three
    # variants round-robin (sequential blocks let CPU warm-up drift land
    # entirely on one variant) and take best-of-7 rounds each.
    # durability = the WAL + persistent sessions on top of the same
    # reliable run; its ratio vs the reliable baseline is the price of
    # append-before-send logging and checkpoint/compaction (the sim
    # driver's in-memory store — the fsync cost of the live file store is
    # I/O-bound and belongs to a soak, not a trajectory snapshot).
    variants = [
        rel_cfg,
        replace(rel_cfg, reliable=True),
        replace(rel_cfg, reliable=True, durable=True),
    ]
    run_experiment(variants[-1])  # warm caches outside timing
    best = [float("inf")] * len(variants)
    for _ in range(7):
        for i, c in enumerate(variants):
            t0 = time.perf_counter()
            run_experiment(c)
            best[i] = min(best[i], time.perf_counter() - t0)
    t_off, t_on, t_dur = best
    metrics["reliability_off_wall_s"] = t_off
    metrics["reliability_on_wall_s"] = t_on
    metrics["reliability_overhead"] = t_on / t_off
    metrics["durability_on_wall_s"] = t_dur
    metrics["durability_overhead"] = t_dur / t_on

    # end to end: the Figure 5 sweep at the requested scale
    t0 = time.perf_counter()
    rows = run_fig5(scale=scale, seed=1)
    metrics["fig5a_wall_s"] = time.perf_counter() - t0
    metrics["fig5a_runs"] = float(len(rows))
    metrics["fig5a_sim_events"] = float(sum(r.sim_events for r in rows))
    metrics["fig5a_sim_events_per_s"] = (
        metrics["fig5a_sim_events"] / metrics["fig5a_wall_s"]
    )
    # the churn-heaviest point (conn=1s), carved out of the same sweep's
    # per-run timings — no second simulation of the most expensive point
    conn1 = [r for r in rows if r.params.get("conn_s") == 1.0]
    metrics["control_plane_fig5a_conn1_wall_s"] = sum(
        r.wall_seconds for r in conn1
    )
    metrics["control_plane_fig5a_conn1_sim_events"] = float(
        sum(r.sim_events for r in conn1)
    )

    return {
        "schema": SCHEMA_VERSION,
        "commit": _git_commit(),
        "scale": scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Collect the perf-trajectory snapshot (BENCH_core.json)."
    )
    parser.add_argument("--out", default="BENCH_core.json",
                        help="output path (default: BENCH_core.json)")
    args = parser.parse_args(argv)

    scale = bench_scale()
    snapshot = collect(scale)
    Path(args.out).write_text(json.dumps(snapshot, indent=2, sort_keys=True))

    m = snapshot["metrics"]
    print(f"perf trajectory [{scale}] -> {args.out}")
    print(f"  scheduler  lanes {m['scheduler_lanes_events_per_s'] / 1e6:.2f}M ev/s"
          f"  heap {m['scheduler_heap_events_per_s'] / 1e6:.2f}M ev/s"
          f"  ({m['scheduler_lanes_speedup']:.2f}x)")
    print(f"  matching   counting {m['matching_counting_events_per_s'] / 1e3:.1f}k ev/s"
          f"  scan {m['matching_scan_events_per_s'] / 1e3:.1f}k ev/s"
          f"  ({m['matching_counting_speedup']:.1f}x)")
    print(f"  ctrl plane churn {m['control_plane_incremental_ops_per_s'] / 1e3:.1f}k ops/s"
          f" ({m['control_plane_churn_speedup']:.0f}x vs rebuild),"
          f" withdraw {m['control_plane_withdraw_indexed_ops_per_s']:.0f} ops/s"
          f" ({m['control_plane_withdraw_speedup']:.1f}x vs scan),"
          f" fig5a conn=1s {m['control_plane_fig5a_conn1_wall_s']:.2f}s")
    print(f"  reliable   off {m['reliability_off_wall_s']:.2f}s"
          f"  on {m['reliability_on_wall_s']:.2f}s"
          f"  ({m['reliability_overhead']:.2f}x overhead)")
    print(f"  durable    on {m['durability_on_wall_s']:.2f}s"
          f"  ({m['durability_overhead']:.2f}x over reliable)")
    print(f"  fig5 sweep {m['fig5a_wall_s']:.2f}s wall,"
          f" {m['fig5a_sim_events']:.0f} sim events"
          f" ({m['fig5a_sim_events_per_s'] / 1e3:.0f}k ev/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
