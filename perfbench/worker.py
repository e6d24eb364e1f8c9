"""One workload run, in this process: repeated rounds, checks, metrics.

``perfbench/run.py`` starts this file in a fresh interpreter for every
workload run (``ru_maxrss`` is a lifetime high-water mark, so a process
must not carry one run's peak into the next). It prints one JSON object
on its last stdout line; human-readable notes go to stderr.

A *round* builds the system and the workload from one input seed
(set-up), then runs the measurement window and the drain until quiescence
(run). Rounds run distinct inputs drawn from ``--seed`` until ``--seconds``
have passed. With ``--trace 1`` the first part of the window runs untraced
rounds (for the overhead ratio and the ``e2e.*`` values) and the rest runs
traced rounds with every layer boundary wrapped.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: reports and traced spans
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, reference  # noqa: E402
from tracing import SpanRecorder, install, layer_of, uninstall  # noqa: E402
from workloads import LAYERS, SCALES, WORKLOADS, make_config  # noqa: E402

perf = time.perf_counter

#: share of a traced run's window spent on untraced rounds
UNTRACED_SHARE = 0.4
#: extra set-up-only rounds per run, so the set-up figure rests on more
#: samples than the rounds alone give
SETUP_REPS = 8
#: address-space cap of a worker process
MEMORY_CAP = 4 << 30
#: reference-kernel probes per measurement window (one after each slice of
#: simulated time), and after each set-up
PROBES_PER_WINDOW = 60
PROBES_PER_SETUP = 3


class BenchmarkError(Exception):
    """The measured tree cannot be benchmarked (missing or foreign)."""


class SetupDone(Exception):
    """Raised once a set-up-only round has built its workload."""


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchmarkError(f"repro imported from {repro.__file__}, "
                             f"not from {src}")


class Probe:
    """Once-per-round boundary marks, app-level delivery capture, the
    socket dispatch round-trip timer and the calibration probes. Installed
    for untraced and traced rounds alike; everything it wraps runs a
    handful of times per round, except ``BrokerPeer.dispatch``, whose
    round trip it times.

    While ``slice_ms`` is set, each ``run(until=...)`` of the simulator or
    virtual clock runs as consecutive ``run(until=t)`` calls, one per
    ``slice_ms`` of simulated time, with the reference kernel timed after
    each (a call without ``until``, the drain, is one slice), and the
    kernel is timed after each set-up. ``run(until)`` calls compose into
    contiguous windows, so slicing changes no event: the warm-up round runs
    unsliced and must match the sliced rounds' digest. Probe time is taken
    out of the run time.
    """

    def __init__(self) -> None:
        self.slice_ms: Optional[float] = None
        #: stop each round once its workload is built (set-up samples)
        self.setup_only = False
        self.run_ref: List[float] = []
        self.setup_ref: List[float] = []
        self.probe_s = 0.0
        self.marks: Dict[str, float] = {}
        self.system = None
        self.app: List[list] = []
        self.dispatch_ms: List[float] = []
        #: tracer snapshots at the run start / run end marks
        self.recorder: Optional[SpanRecorder] = None
        self.window: List[tuple] = []
        self.at_system: Optional[tuple] = None

    def reset(self) -> None:
        self.marks.clear()
        self.system = None
        self.app.clear()
        self.window.clear()
        self.run_ref = []
        self.setup_ref = []
        self.probe_s = 0.0
        if self.recorder is not None:
            # each traced round keeps only its own spans
            self.recorder.clear()

    def _mark_run(self, name: str) -> None:
        if self.recorder is not None:
            self.window.append(self.recorder.snapshot())
        self.marks[name] = perf()

    def install(self) -> None:
        from repro.drivers.socket import BrokerPeer
        from repro.metrics.delivery import DeliveryChecker
        from repro.pubsub.system import PubSubSystem
        from repro.wire import harness
        from repro.workload.mobility_model import Workload

        probe = self
        marks = self.marks

        sys_init = PubSubSystem.__init__

        def system_init(system, *args, **kwargs):
            marks["system0"] = perf()
            sys_init(system, *args, **kwargs)
            marks["system1"] = perf()
            probe.system = system
            if probe.recorder is not None:
                # the hello handshake is over: WireStats counts from here
                probe.at_system = probe.recorder.snapshot()

        wl_init = Workload.__init__

        def workload_init(workload, *args, **kwargs):
            marks["workload0"] = perf()
            wl_init(workload, *args, **kwargs)
            marks["workload1"] = perf()
            if probe.slice_ms is not None:
                probe.setup_ref = [reference()
                                   for _ in range(PROBES_PER_SETUP)]
            if probe.setup_only:
                raise SetupDone
            for client in workload.all_clients:
                received: list = []
                client.on_event = received.append
                probe.app.append(received)
            probe._mark_run("run0")

        finalize = DeliveryChecker.finalize_crash_accounting

        def finalize_marked(checker):
            finalize(checker)
            probe._mark_run("run1")

        spawn = harness.spawn_nodes

        def spawn_nodes(*args, **kwargs):
            marks["spawn0"] = perf()
            try:
                return spawn(*args, **kwargs)
            finally:
                marks["spawn1"] = perf()

        dispatch = BrokerPeer.dispatch

        def timed_dispatch(peer, *args, **kwargs):
            t0 = perf()
            result = dispatch(peer, *args, **kwargs)
            probe.dispatch_ms.append((perf() - t0) * 1e3)
            return result

        from repro.drivers.live import VirtualClock
        from repro.sim.core import Simulator

        def sliced(run):
            def sliced_run(clock, until=None):
                step = probe.slice_ms
                if step is None:
                    return run(clock, until)
                k = int(clock.now // step) + 1
                while True:
                    stop = None if until is None else min(until, k * step)
                    k += 1
                    run(clock, stop)
                    t0 = perf()
                    probe.run_ref.append(reference())
                    probe.probe_s += perf() - t0
                    if stop == until:
                        return
            return sliced_run

        Simulator.run = sliced(Simulator.run)
        VirtualClock.run = sliced(VirtualClock.run)
        PubSubSystem.__init__ = system_init
        Workload.__init__ = workload_init
        DeliveryChecker.finalize_crash_accounting = finalize_marked
        DeliveryChecker.finalize_accounting = finalize_marked
        harness.spawn_nodes = spawn_nodes
        BrokerPeer.dispatch = timed_dispatch


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
def _execute(name: str, cfg):
    """Run one input the way the program's own entry points do."""
    from repro.experiments.runner import run_experiment
    from repro.wire.harness import run_socket_scenario

    if name == "socket":
        return run_socket_scenario(cfg, processes=1)
    return run_experiment(cfg)


def run_setup(name: str, cfg, probe: Probe) -> Dict[str, float]:
    """Build the system and the workload only: a round that stops at the
    end of its set-up (the socket node is torn down as after any run)."""
    probe.reset()
    probe.setup_only = True
    gc.collect()
    t0 = perf()
    try:
        _execute(name, cfg)
    except SetupDone:
        pass
    finally:
        probe.setup_only = False
    m = probe.marks
    return {"setup_s": m["workload1"] - t0,
            "setup_ref": statistics.median(probe.setup_ref),
            "system_s": m["system1"] - m["system0"],
            "workload_s": m["workload1"] - m["workload0"],
            "spawn_s": m["spawn1"] - m["spawn0"] if "spawn1" in m else 0.0}


def run_round(name: str, cfg, probe: Probe) -> Dict[str, Any]:
    probe.reset()
    gc.collect()
    n_samples = len(probe.dispatch_ms)
    t0 = perf()
    result = _execute(name, cfg)
    row = None if name == "socket" else result
    system = result if name == "socket" else probe.system
    m = probe.marks
    for key in ("system1", "workload1", "run0", "run1"):
        if key not in m:
            raise RuntimeError(f"round never reached the {key} mark")

    metrics = system.metrics
    stats = metrics.delivery.stats
    handoffs = metrics.handoffs.handoff_count
    if row is not None:
        digest_fields = {
            "sim_events": row.sim_events,
            "handoffs": row.handoffs,
            "overhead_hops_per_handoff": row.overhead_per_handoff,
            "mean_handoff_delay_ms": row.mean_handoff_delay_ms,
            "median_handoff_delay_ms": row.median_handoff_delay_ms,
        }
    else:
        digest_fields = {
            "sim_events": system.clock.events_processed,
            "handoffs": handoffs,
            "overhead_hops_per_handoff": (
                metrics.traffic.overhead_hops() / handoffs
                if handoffs else None),
            "mean_handoff_delay_ms": metrics.handoffs.mean_delay(),
            "median_handoff_delay_ms": metrics.handoffs.median_delay(),
        }
    digest_fields["expected"] = stats.expected
    digest_fields["delivered"] = stats.delivered

    app_events = sum(len(got) for got in probe.app)
    app_dups = sum(len(got) - len({(e.publisher, e.seq) for e in got})
                   for got in probe.app)
    drops = system.fault_injector.drops if system.fault_injector else 0
    checks = {
        "missing == 0": stats.missing == 0,
        "every loss accounted": (
            stats.lost_explicit + stats.write_offs <= drops
            and stats.recovered <= drops),
        "no order violations": stats.order_violations == 0,
        "at most one app delivery per event": app_dups == 0,
        "every unique delivery reached the app": (
            app_events == stats.delivered - stats.duplicates),
    }
    out: Dict[str, Any] = {
        "setup_s": m["workload1"] - t0,
        "system_s": m["system1"] - m["system0"],
        "workload_s": m["workload1"] - m["workload0"],
        "spawn_s": m["spawn1"] - m["spawn0"] if "spawn1" in m else 0.0,
        "run_s": m["run1"] - m["run0"] - probe.probe_s,
        "setup_ref": (statistics.median(probe.setup_ref)
                      if probe.setup_ref else 0.0),
        "run_ref": statistics.median(probe.run_ref) if probe.run_ref else 0.0,
        "deliveries": app_events,
        "handoffs": handoffs,
        "expected": stats.expected,
        "failed": stats.missing + stats.order_violations + app_dups,
        "broken": [name for name, ok in checks.items() if not ok],
        "digest_fields": digest_fields,
        "digest": hashlib.sha256(json.dumps(
            digest_fields, sort_keys=True).encode()).hexdigest()[:16],
        "dispatch_ms": probe.dispatch_ms[n_samples:],
    }
    if probe.recorder is not None:
        out["layers"], out["cross_broken"] = _layer_round(
            name, system, probe, out)
    return out


def _layer_round(name: str, system, probe: Probe, rnd: Dict[str, Any]):
    """Per-layer metrics of one traced round plus its cross-check breaks."""
    rec = probe.recorder
    (self0, calls0, cnt0), (self1, calls1, cnt1) = probe.window[0], probe.window[-1]
    keys = set(self1)
    self_w = {k: self1[k] - self0.get(k, 0.0) for k in keys}
    calls_w = {k: calls1[k] - calls0.get(k, 0) for k in keys}
    cnt_w = {k: cnt1.get(k, 0) - cnt0.get(k, 0) for k in set(cnt1) | set(cnt0)}

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_w.items() if layer_of(k) == layer)

    def layer_calls(layer: str) -> int:
        return sum(v for k, v in calls_w.items() if layer_of(k) == layer)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    sim_self = layer_self("sim")
    match_calls = calls_w.get("matching.match", 0) + cnt_w.get(
        "matching.batched", 0)
    covers = calls_w.get("control.covers", 0)
    control_ops = layer_calls("control")
    handoffs = cnt_w.get("mobility.handoffs", 0)
    wire = getattr(system.net, "stats", None) if name == "socket" else None
    dispatches = calls_w.get("socket.dispatch", 0)
    rel = system.reliability
    dur = system.durability
    L: Dict[str, float] = {
        "sim.events": cnt_w.get("sim.events", 0),
        "sim.self_s": sim_self,
        "sim.events_per_self_s": ratio(cnt_w.get("sim.events", 0), sim_self),
        "network.wired_sends": calls_w.get("network.wired", 0),
        "network.wireless_sends": calls_w.get("network.wireless", 0),
        "network.self_s": layer_self("network"),
        "network.fault_drops": (system.fault_injector.drops
                                if system.fault_injector else 0),
        "broker.msgs": calls_w.get("broker.receive", 0),
        "broker.self_s": layer_self("broker"),
        "matching.calls": match_calls,
        "matching.self_s": layer_self("matching"),
        "matching.us_per_call": ratio(layer_self("matching") * 1e6,
                                      match_calls),
        "matching.entries_per_call": ratio(cnt_w.get("matching.entries", 0),
                                           match_calls),
        "matching.useful_ratio": ratio(cnt_w.get("matching.useful", 0),
                                       match_calls),
        "control.ops": control_ops,
        "control.self_s": layer_self("control"),
        "control.us_per_op": ratio(layer_self("control") * 1e6, control_ops),
        "control.covered_ratio": ratio(cnt_w.get("control.covered", 0),
                                       covers),
        "mobility.calls": layer_calls("mobility"),
        "mobility.handoffs": handoffs,
        "mobility.self_s": layer_self("mobility"),
        "mobility.us_per_handoff": ratio(
            (layer_self("mobility") + layer_self("control")) * 1e6, handoffs),
        "mobility.overhead_hops_per_handoff": (
            rnd["digest_fields"]["overhead_hops_per_handoff"] or 0.0),
        "client.calls": layer_calls("client"),
        "client.self_s": layer_self("client"),
        "metrics.calls": layer_calls("metrics"),
        "metrics.self_s": layer_self("metrics"),
        "reliability.sends": calls_w.get("reliability.send", 0),
        "reliability.acks": calls_w.get("reliability.ack", 0),
        "reliability.retransmits_per_delivery": ratio(
            len(rel.retry_log) if rel else 0, rnd["deliveries"]),
        "reliability.self_s": layer_self("reliability"),
        "wal.records": dur.records_appended if dur else 0,
        "wal.append_self_s": self_w.get("wal.append", 0.0),
        "wal.checkpoints": calls_w.get("wal.checkpoint", 0),
        "wal.checkpoint_s": self_w.get("wal.checkpoint", 0.0),
        "wal.replay_records": cnt_w.get("wal.replay_records", 0),
        "wal.replay_s": self_w.get("wal.replay", 0.0),
        "wire.frames": cnt_w.get("wire.frames", 0),
        "wire.bytes_per_dispatch": ratio(
            cnt_w.get("wire.bytes_tx", 0) + cnt_w.get("wire.bytes_rx", 0),
            dispatches),
        "wire.codec_s": self_w.get("wire.codec", 0.0),
        "wire.framing_s": self_w.get("wire.framing", 0.0),
        "socket.dispatches": dispatches,
        "socket.effects_per_dispatch": ratio(wire.effects, wire.dispatches)
        if wire else 0.0,
        "socket.queries": wire.queries if wire else 0,
        # the dispatch span minus its coordinator-side children: the time
        # the coordinator sat waiting on the node and the loopback socket
        "socket.node_wait_s": layer_self("socket"),
    }

    # cross-checks: counts seen by the wrappers against the program's own
    # counters, over the whole round
    _, calls_all, cnt_all = rec.snapshot()
    clock = system.clock
    expect = {
        "sim.events == events_processed": (
            cnt_all.get("sim.events", 0), clock.events_processed),
        "mobility.handoffs == HandoffLog.handoff_count": (
            cnt_all.get("mobility.handoffs", 0),
            system.metrics.handoffs.handoff_count),
        "metrics.delivery calls == DeliveryChecker.stats.delivered": (
            calls_all.get("metrics.delivery", 0),
            system.metrics.delivery.stats.delivered),
    }
    if wire is not None:
        # the transport's WireStats start after the hello handshake
        cnt_sys = probe.at_system[2]
        expect["socket.dispatch calls == WireStats.dispatches"] = (
            calls_all.get("socket.dispatch", 0), wire.dispatches)
        for way in ("tx", "rx"):
            key = f"wire.bytes_{way}"
            expect[f"wire bytes {way} == WireStats.bytes_{way}"] = (
                cnt_all.get(key, 0) - cnt_sys.get(key, 0),
                getattr(wire, f"bytes_{way}"))
    if dur is not None:
        expect["wal.checkpoint calls == DurabilityManager.checkpoints"] = (
            calls_all.get("wal.checkpoint", 0), dur.checkpoints)
    broken = [f"{what}: {a} != {b}" for what, (a, b) in expect.items()
              if a != b]
    total_self = sum(self_w.values())
    if total_self > rnd["run_s"] + 1e-6:
        broken.append(f"self times {total_self:.6f} s exceed the traced "
                      f"run_s {rnd['run_s']:.6f} s")
    negative = [k for k, v in self_w.items() if v < 0]
    if negative:
        broken.append(f"negative self time: {negative}")
    spans = {layer: sum(v for k, v in calls_all.items()
                        if layer_of(k) == layer) for layer in LAYERS}
    wl = WORKLOADS[name]
    broken += [f"layer {layer} recorded no span (bypassed wrapper?)"
               for layer in wl.loads if not spans[layer]]
    broken += [f"idle layer {layer} recorded {spans[layer]} spans"
               for layer in wl.idle if spans[layer]]
    return L, broken


# ----------------------------------------------------------------------
# one workload run
# ----------------------------------------------------------------------
def _quantile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    idx = min(len(sorted_vals) - 1, max(0, int(round(q * len(sorted_vals))) - 1))
    return sorted_vals[idx]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> Dict[str, Any]:
    """Rounds of ``name`` for ``seconds``; metrics, checks and digest.

    Round ``r`` runs input ``seed * 1000 + r``, so a run measures as many
    distinct inputs as it has rounds (at least three). An unmeasured
    warm-up round runs round 0's input first and must reproduce its digest
    exactly; so must every traced round its untraced twin's. Measured
    times are calibrated against the reference kernel (``calibration.py``)
    timed alongside them.
    """
    cfg = lambda r: make_config(name, seed * 1000 + r, scale)  # noqa: E731
    probe = Probe()
    probe.install()
    slice_ms = cfg(0).workload.duration_ms / PROBES_PER_WINDOW
    t_start = perf()
    errors: List[str] = []

    def rounds(until: float, minimum: int, limit: int = 10 ** 6):
        """Rounds of inputs 0, 1, ... until ``until`` (at least
        ``minimum``, at most ``limit``); stops at the first failure."""
        done: List[Dict[str, Any]] = []
        while not errors and len(done) < limit and (
                perf() < until or len(done) < minimum):
            try:
                done.append(run_round(name, cfg(len(done)), probe))
            except Exception as exc:  # the run failed: record, stop
                errors.append(f"{type(exc).__name__}: {exc}")
        return done

    warm = rounds(0.0, 1)
    probe.slice_ms = slice_ms
    setups = ([run_setup(name, cfg(r), probe) for r in range(SETUP_REPS)]
              if not errors else [])
    plain = rounds(t_start + seconds * (UNTRACED_SHARE if trace else 1.0), 3)
    probe.slice_ms = None
    setups += plain
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced: List[Dict[str, Any]] = []
    if trace and not errors:
        rec = SpanRecorder()
        done = install(rec)
        probe.recorder = rec
        try:
            traced = rounds(t_start + seconds, 1, limit=len(plain))
            if traced:
                OUT_DIR.mkdir(exist_ok=True)
                rec.write(str(OUT_DIR / f"spans-{name}.npz"))
        finally:
            probe.recorder = None
            uninstall(done)

    for a, b in list(zip(warm, plain)) + list(zip(plain, traced)):
        if a["digest"] != b["digest"]:
            errors.append(f"one input, two digests: {a['digest']} and "
                          f"{b['digest']}")
    everything = plain + traced
    for r in everything:
        errors += [f"invariant broken: {b}" for b in r["broken"]]
        errors += [f"trace cross-check: {b}" for b in r.get("cross_broken", [])]
    attempted = sum(r["expected"] for r in everything) or 1
    failed = attempted if errors else sum(r["failed"] for r in everything)

    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "correct": not errors, "errors": sorted(set(errors))[:20],
        "attempted": attempted, "failed": failed,
        "rounds": len(plain), "traced_rounds": len(traced),
        "digest": plain[0]["digest"] if plain else None,
        "digest_fields": plain[0]["digest_fields"] if plain else None,
        "processes": 2 if name == "socket" else 1,
        "transport": "loopback TCP" if name == "socket" else "in-process",
        "cpus": sorted(os.sched_getaffinity(0)),
    }
    if not plain:
        return result

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    def calibrated(rows, key, ref_key):
        return [r[key] * REFERENCE_S / r[ref_key] for r in rows]

    runs = calibrated(plain, "run_s", "run_ref")

    def rate(key):
        return statistics.median(r[key] / t for r, t in zip(plain, runs))

    e2e = {
        "setup_s": statistics.median(
            calibrated(setups, "setup_s", "setup_ref")),
        "run_s": statistics.median(runs),
        "deliveries_per_s": rate("deliveries"),
        "peak_rss_mb": peak_rss_mb,
    }
    if "handoffs_per_s" in WORKLOADS[name].extra_metrics:
        e2e["handoffs_per_s"] = rate("handoffs")
    samples = sorted(x for r in plain for x in r["dispatch_ms"])
    if samples:
        e2e["dispatch_ms_p50"] = statistics.median(samples)
        e2e["dispatch_ms_p99"] = _quantile(samples, 0.99)
    e2e["failed_ratio"] = failed / attempted
    result["e2e"] = e2e
    result["wall"] = {"setup_s": median(setups, "setup_s"),
                      "run_s": median(plain, "run_s"),
                      "reference_s": median(plain, "run_ref")}
    result["samples"] = {"rounds": len(plain), "setups": len(setups),
                         "dispatches": len(samples)}
    result["per_round"] = [
        {k: r[k] for k in ("setup_s", "setup_ref", "run_s", "run_ref",
                           "deliveries", "handoffs")} for r in plain]
    result["setup"] = {
        "setup.system_s": median(setups, "system_s"),
        "setup.workload_s": median(setups, "workload_s"),
        "setup.spawn_s": median(setups, "spawn_s"),
    }
    if traced and "layers" in traced[0]:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers.update(result["setup"])
        # traced rounds carry no probes: compare raw wall times
        layers["trace.overhead_ratio"] = statistics.median(
            t["run_s"] / r["run_s"] for r, t in zip(plain, traced))
        result["layers"] = layers
    return result


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = ap.parse_args(argv)
    # a runaway run must fail on its own, not crowd a shared host
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    # the whole run, socket node included, shares one CPU: the simulated
    # workloads are one thread, and the socket workload has one dispatch
    # in flight, so only one of its two processes runs at a time; a
    # hand-over on one core avoids the cross-core wake-ups whose latency
    # set the pace of a socket run, and varied from run to run, on the
    # shared 2-core VM this was built on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        bootstrap()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    for err in result["errors"]:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
