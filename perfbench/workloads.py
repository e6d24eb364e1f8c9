"""The four benchmark workloads: configurations and the reasons for them.

Every workload runs the MHH protocol on the production defaults (counting
matching, lane scheduler, covering index, event batching off); no engine
knob is set. A workload is a closed-world batch job of a fixed simulated
duration, built from the seed given on the command line, so it is reported
as work per wall second at the input size stated here.

``SCALES["full"]`` is what the benchmark measures; ``SCALES["toy"]`` is
the self-test's size (the same shapes, seconds of wall time in total).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: every per-layer name the traced run reports, in report order
LAYERS = (
    "sim", "network", "broker", "matching", "control", "mobility",
    "client", "metrics", "reliability", "wal", "wire", "socket",
)


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    why: str
    #: layers this workload is meant to load: the traced run fails when
    #: one of them records no span (a wrapper the calls bypassed)
    loads: Tuple[str, ...]
    #: layers that must record no span at all on this workload
    idle: Tuple[str, ...]
    #: end-to-end metrics this workload reports besides the common ones
    extra_metrics: Tuple[str, ...] = ()


_SIM_LAYERS = ("sim", "network", "broker", "matching", "control", "mobility",
               "client", "metrics")

WORKLOADS: Dict[str, WorkloadDef] = {
    "fanout": WorkloadDef(
        "fanout",
        "1,600 subscribers, almost no mobility: matching, Broker routing, "
        "scheduler, links and the delivery checker do the work (paper's "
        "conn->inf end); sizes memory",
        loads=("sim", "network", "broker", "matching", "mobility", "client",
               "metrics"),
        idle=("reliability", "wal", "wire", "socket"),
    ),
    "churn": WorkloadDef(
        "churn",
        "half the clients move every ~10 s: handoffs, subscription "
        "migration and covering/interval-index writes dominate (Fig. 5a "
        "left end)",
        loads=_SIM_LAYERS,
        idle=("reliability", "wal", "wire", "socket"),
        extra_metrics=("handoffs_per_s",),
    ),
    # The two durable workloads are not in BENCHMARK.json: on rare inputs
    # the program fails them, so runs on such inputs fail. MHH raises
    # ProtocolError("local stream completion with no out-migration") when
    # a queue stream completes while the client's anchor has no
    # out-migration (input 802020 of durable-lossy; plain MHH on the same
    # input too), and with crashes it delivers an event out of
    # per-publisher order (a publish held in the dead-letter outbox while
    # its broker is down is re-submitted after a later one; input 106008
    # of durable-crash). They stay runnable by name, as the only load on
    # reliability and the WAL.
    "durable-lossy": WorkloadDef(
        "durable-lossy",
        "reliable + durable delivery over 10% downlink loss: the load on "
        "reliability (retransmits, acks) and WAL append/checkpoint, and "
        "on faults",
        loads=_SIM_LAYERS + ("reliability", "wal"),
        idle=("wire", "socket"),
        extra_metrics=("handoffs_per_s",),
    ),
    "durable-crash": WorkloadDef(
        "durable-crash",
        "durable-lossy plus three broker crash/restart pairs: adds WAL "
        "replay on restart and the crash-recovery paths",
        loads=_SIM_LAYERS + ("reliability", "wal"),
        idle=("wire", "socket"),
        extra_metrics=("handoffs_per_s",),
    ),
    "socket": WorkloadDef(
        "socket",
        "coordinator plus one broker-node process over loopback TCP, one "
        "lockstep dispatch in flight: the only load on wire codec/framing "
        "and the socket driver",
        loads=("sim", "network", "client", "metrics", "wire", "socket"),
        # every broker lives in the node process, so coordinator-side
        # broker, matching, control and mobility code must never run
        idle=("broker", "matching", "control", "mobility", "reliability",
              "wal"),
        extra_metrics=("handoffs_per_s", "dispatch_ms_p50",
                       "dispatch_ms_p99"),
    ),
}

#: which end-to-end metric each per-layer metric should move, and where
LAYER_TO_E2E = {
    "sim": "run_s, deliveries_per_s on fanout",
    "network": "deliveries_per_s on fanout, durable-lossy",
    "broker": "deliveries_per_s on fanout",
    "matching": "deliveries_per_s on fanout; quiet on churn",
    "control": "handoffs_per_s on churn; quiet on fanout",
    "mobility": "handoffs_per_s on churn; quiet on fanout",
    "client": "deliveries_per_s on fanout",
    "metrics": "deliveries_per_s, peak_rss_mb on fanout",
    "reliability": "deliveries_per_s on durable-lossy; off elsewhere",
    "wal": "deliveries_per_s (append) on durable-lossy, run_s (replay) on "
           "durable-crash; off elsewhere",
    "wire": "dispatch_ms_p50 on socket; off on the sim workloads",
    "socket": "dispatch_ms_p50/p99, deliveries_per_s on socket; off on "
              "the sim workloads",
    "setup": "setup_s on fanout, churn",
}

#: unit of every per-layer metric of the traced run, in report order
PER_LAYER_UNITS = {
    "sim.events": "count", "sim.self_s": "s", "sim.events_per_self_s": "1/s",
    "network.wired_sends": "count", "network.wireless_sends": "count",
    "network.self_s": "s", "network.fault_drops": "count",
    "broker.msgs": "count", "broker.self_s": "s",
    "matching.calls": "count", "matching.self_s": "s",
    "matching.us_per_call": "us", "matching.entries_per_call": "1",
    "matching.useful_ratio": "1",
    "control.ops": "count", "control.self_s": "s", "control.us_per_op": "us",
    "control.covered_ratio": "1",
    "mobility.calls": "count", "mobility.handoffs": "count",
    "mobility.self_s": "s", "mobility.us_per_handoff": "us",
    "mobility.overhead_hops_per_handoff": "hops",
    "client.calls": "count", "client.self_s": "s",
    "metrics.calls": "count", "metrics.self_s": "s",
    "reliability.sends": "count", "reliability.acks": "count",
    "reliability.retransmits_per_delivery": "1", "reliability.self_s": "s",
    "wal.records": "count", "wal.append_self_s": "s",
    "wal.checkpoints": "count", "wal.checkpoint_s": "s",
    "wal.replay_records": "count", "wal.replay_s": "s",
    "wire.frames": "count", "wire.bytes_per_dispatch": "B",
    "wire.codec_s": "s", "wire.framing_s": "s",
    "socket.dispatches": "count", "socket.effects_per_dispatch": "1",
    "socket.queries": "count", "socket.node_wait_s": "s",
    "setup.system_s": "s", "setup.workload_s": "s", "setup.spawn_s": "s",
    "trace.overhead_ratio": "1",
    # end-to-end metrics that only some workloads have (0 where n/a)
    "e2e.handoffs_per_s": "1/s", "e2e.dispatch_ms_p50": "ms",
    "e2e.dispatch_ms_p99": "ms", "e2e.dispatch_samples": "count",
    "e2e.failed_ratio": "1",
}

# Per-scale parameters. Simulated durations are sized so that one round
# (set-up, measurement window, drain) takes about two wall seconds on a
# 2-core x86 box, which gives a run of --seconds 20 about eight rounds.
SCALES = {
    "full": {
        "fanout": {"grid_k": 4, "clients_per_broker": 100, "duration_s": 30.0},
        "churn": {"grid_k": 7, "clients_per_broker": 10, "duration_s": 60.0},
        "durable-lossy": {"grid_k": 4, "clients_per_broker": 6,
                          "duration_s": 120.0},
        "durable-crash": {"grid_k": 4, "clients_per_broker": 6,
                          "duration_s": 120.0},
        "socket": {"grid_k": 3, "clients_per_broker": 4, "duration_s": 80.0},
    },
    "toy": {
        "fanout": {"grid_k": 3, "clients_per_broker": 20, "duration_s": 10.0},
        "churn": {"grid_k": 3, "clients_per_broker": 4, "duration_s": 15.0},
        "durable-lossy": {"grid_k": 3, "clients_per_broker": 3,
                          "duration_s": 60.0},
        "durable-crash": {"grid_k": 3, "clients_per_broker": 3,
                          "duration_s": 60.0},
        "socket": {"grid_k": 2, "clients_per_broker": 3, "duration_s": 15.0},
    },
}


def make_config(name: str, seed: int, scale: str = "full"):
    """The ``ExperimentConfig`` of workload ``name`` for ``seed``."""
    from repro.experiments.config import ExperimentConfig
    from repro.network.faults import FaultProfile
    from repro.network.recovery import CrashPlan
    from repro.workload.spec import WorkloadSpec

    p = SCALES[scale][name]
    dur = p["duration_s"]
    common = {"grid_k": p["grid_k"], "seed": seed}
    if name == "fanout":
        spec = WorkloadSpec(
            clients_per_broker=p["clients_per_broker"], match_fraction=0.01,
            mobile_fraction=0.05, mean_connected_s=600.0,
            mean_disconnected_s=60.0, publish_interval_s=20.0,
            duration_s=dur,
        )
        return ExperimentConfig("mhh", workload=spec, **common)
    if name == "churn":
        spec = WorkloadSpec(
            clients_per_broker=p["clients_per_broker"], mobile_fraction=0.5,
            mean_connected_s=5.0, mean_disconnected_s=5.0,
            publish_interval_s=60.0, duration_s=dur,
        )
        return ExperimentConfig("mhh", workload=spec, **common)
    if name in ("durable-lossy", "durable-crash"):
        spec = WorkloadSpec(
            clients_per_broker=p["clients_per_broker"], mobile_fraction=0.5,
            mean_connected_s=10.0, mean_disconnected_s=5.0,
            publish_interval_s=5.0, duration_s=dur,
        )
        plan = None
        if name == "durable-crash":
            # three crash -> restart pairs at 1/6, 5/12 and 2/3 of the
            # window, each broker down for 1/20 of it
            k = p["grid_k"]
            victims = (5 % (k * k), 10 % (k * k), 6 % (k * k))
            starts = (dur / 6, dur * 5 / 12, dur * 2 / 3)
            down = dur / 20
            plan = CrashPlan.parse(
                crashes=[f"{b}@{t:g}" for b, t in zip(victims, starts)],
                restarts=[f"{b}@{t + down:g}"
                          for b, t in zip(victims, starts)],
            )
        return ExperimentConfig(
            "mhh", workload=spec, reliable=True, durable=True,
            faults=FaultProfile(deliver_loss=0.1), crashes=plan, **common,
        )
    if name == "socket":
        spec = WorkloadSpec(
            clients_per_broker=p["clients_per_broker"], mobile_fraction=0.5,
            mean_connected_s=10.0, mean_disconnected_s=5.0,
            publish_interval_s=10.0, duration_s=dur,
        )
        return ExperimentConfig("mhh", workload=spec, **common)
    raise KeyError(name)
