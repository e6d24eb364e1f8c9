"""Traced runs: spans around each layer's public entry points.

The wrappers live here, in the benchmark, and are installed at class level
*before* a system is built, because several call paths capture methods
early: ``LinkLayer.register_broker``/``register_client`` keep bound
``receive``/``_on_downlink`` methods, ``send_broker``/``send_client``/
``send_uplink`` and ``call_later_fifo`` are class-level aliases (each alias
is wrapped on its own), and ``repro.drivers.socket`` imports the codec and
framing functions by name (they are wrapped in that module's namespace).
``Broker._CORE_DISPATCH`` holds handler functions captured at class
definition, so broker handlers are timed through ``Broker.receive`` as a
whole.

Each span is kept in memory as (key, start, end, parent) and written out
once the traced phase ends. A layer's self time is its spans' durations
minus the time of their child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "install", "uninstall", "layer_of"]


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


class SpanRecorder:
    """In-memory span store plus per-key call counts and self times."""

    def __init__(self) -> None:
        self.keys: List[str] = []
        self._key_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: List[list] = []
        self.self_time: List[float] = []
        self.calls: List[int] = []
        #: counts observed at the boundaries (matched entries, handoffs,
        #: wire bytes, fired scheduler events, ...)
        self.counters: Dict[str, int] = defaultdict(int)

    def key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
            self.self_time.append(0.0)
            self.calls.append(0)
        return kid

    def clear(self) -> None:
        """Forget every span and count (the key table stays)."""
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[:]
        self.stack.clear()
        self.self_time[:] = [0.0] * len(self.keys)
        self.calls[:] = [0] * len(self.keys)
        self.counters.clear()

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
        """(self time per key, calls per key, counters) as of now."""
        return (
            dict(zip(self.keys, self.self_time)),
            dict(zip(self.keys, self.calls)),
            dict(self.counters),
        )

    def wrap(self, key: str, fn: Callable,
             post: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        """``fn`` inside a span named ``key``; ``post(args, result)`` runs
        after the span closes, to count what the call returned."""
        kid = self.key_id(key)
        perf = time.perf_counter
        names, starts, ends, parents = (
            self.name, self.start, self.end, self.parent)
        stack = self.stack
        self_time = self.self_time
        calls = self.calls

        def span(*args, **kwargs):
            t0 = perf()
            idx = len(starts)
            names.append(kid)
            starts.append(t0)
            ends.append(t0)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_time[kid] += dur - frame[1]
                calls[kid] += 1
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def write(self, path: str) -> None:
        """Write the spans as ``.npz`` arrays (key table in ``keys``)."""
        import numpy as np

        np.savez(
            path,
            keys=np.array(self.keys),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# ----------------------------------------------------------------------
# boundary table
# ----------------------------------------------------------------------
def _targets():
    """(span key, owner, attribute names, post hook name) per boundary."""
    from repro.drivers import socket as sock
    from repro.drivers.live import VirtualClock
    from repro.metrics.hub import MetricsHub
    from repro.mobility.mhh import MHHProtocol
    from repro.network.links import LinkLayer
    from repro.pubsub.broker import Broker
    from repro.pubsub.client import Client
    from repro.pubsub.filter_table import FilterTable
    from repro.pubsub.reliability import ReliabilityManager
    from repro.pubsub.wal import BrokerWal, DurabilityManager
    from repro.sim.core import Simulator
    from repro.wire.framing import FrameDecoder

    return [
        ("sim.run", Simulator, ("run",), None),
        ("sim.run", VirtualClock, ("run",), None),
        ("network.wired", LinkLayer,
         ("broker_to_broker", "send_broker", "unicast"), None),
        ("network.wireless", LinkLayer,
         ("broker_to_client", "send_client", "client_to_broker",
          "send_uplink"), None),
        ("broker.receive", Broker, ("receive",), None),
        ("broker.route", Broker, ("route_event",), None),
        ("broker.deliver", Broker, ("deliver_to_client",), None),
        ("matching.match", FilterTable, ("match",), "match"),
        ("matching.match", FilterTable, ("match_batch",), "match_batch"),
        # the scan-mode halves of ``match``: timed, not counted as calls
        ("matching.part", FilterTable,
         ("match_neighbors", "match_clients"), None),
        ("control.mutate", FilterTable,
         ("add_broker_filter", "remove_broker_filter", "advertised_add",
          "advertised_remove", "set_client_entry", "remove_client_entry",
          "remove_entry_by_key"), None),
        ("control.covers", FilterTable, ("advertised_covers",), "covers"),
        ("control.candidates", FilterTable, ("covered_candidates",), None),
        ("control.local", Broker,
         ("local_subscribe", "local_unsubscribe", "local_unsubscribe_key"),
         None),
        ("mobility.handler", MHHProtocol,
         ("on_connect", "on_disconnect", "on_proclaimed_disconnect",
          "on_control", "on_event_for_client"), None),
        ("client.connect", Client, ("connect",), "connect"),
        ("client.op", Client, ("disconnect", "publish"), None),
        ("client.rx", Client, ("_on_downlink",), None),
        ("metrics.hook", MetricsHub,
         ("account", "on_client_connect", "on_client_disconnect",
          "on_publish", "on_loss", "on_recoverable_drop"), None),
        ("metrics.delivery", MetricsHub, ("on_delivery",), None),
        ("reliability.send", ReliabilityManager, ("send",), None),
        ("reliability.ack", ReliabilityManager, ("on_ack",), None),
        ("reliability.deliver", ReliabilityManager, ("on_deliver",), None),
        ("reliability.reclaim", ReliabilityManager, ("reclaim_link",), None),
        ("wal.append", DurabilityManager,
         ("on_publish", "on_deliver", "on_settled", "on_client_delivered",
          "on_session_transfer"), None),
        ("wal.checkpoint", DurabilityManager, ("checkpoint",), None),
        ("wal.replay", DurabilityManager, ("replay",), None),
        ("wal.replay", BrokerWal, ("replay",), "replay"),
        ("wire.codec", sock, ("encode_control", "decode_control"), None),
        ("wire.framing", sock, ("encode_frame",), "encode_frame"),
        ("wire.framing", FrameDecoder, ("feed",), "feed"),
        ("socket.dispatch", sock.BrokerPeer, ("dispatch",), None),
    ]


def _post_hooks(counters: Dict[str, int]) -> Dict[str, Callable]:
    def match(args, result):
        nbrs, entries = result
        counters["matching.entries"] += len(entries)
        if nbrs or entries:
            counters["matching.useful"] += 1

    def match_batch(args, result):
        # one call resolves many events: count each as one match
        counters["matching.batched"] += len(result) - 1
        for nbrs, entries in result:
            counters["matching.entries"] += len(entries)
            if nbrs or entries:
                counters["matching.useful"] += 1

    def covers(args, result):
        if result:
            counters["control.covered"] += 1

    def connect(args, result):
        # the HandoffLog rule: a reconnect at a broker other than the last
        # visited one (``connect`` never changes ``last_broker``)
        client = args[0]
        if (client.last_broker is not None
                and client.current_broker != client.last_broker):
            counters["mobility.handoffs"] += 1

    def replay(args, result):
        counters["wal.replay_records"] += len(result[0])

    def encode_frame(args, result):
        counters["wire.frames"] += 1
        counters["wire.bytes_tx"] += len(result)

    def feed(args, result):
        counters["wire.frames"] += len(result)
        counters["wire.bytes_rx"] += len(args[1])

    return {"match": match, "match_batch": match_batch, "covers": covers,
            "connect": connect, "replay": replay,
            "encode_frame": encode_frame, "feed": feed}


def _count_fired(counters: Dict[str, int], fn: Callable) -> Callable:
    """Schedule through ``fn`` with the callback wrapped in a counter, so
    every event the clock fires is seen here (cancelled ones never fire)."""

    def fire(callback, args):
        counters["sim.events"] += 1
        return callback(*args)

    def schedule(self, when, callback, *args):
        return fn(self, when, fire, callback, args)

    schedule.__wrapped__ = fn
    return schedule


#: (owner, attribute, value before install, was it in owner.__dict__)
Installed = List[Tuple[Any, str, Any, bool]]


def install(rec: SpanRecorder) -> Installed:
    """Wrap every boundary; returns what :func:`uninstall` restores."""
    from repro.drivers.live import VirtualClock
    from repro.sim.core import Simulator

    done: Installed = []

    def patch(owner, attr, value):
        had = attr in vars(owner)
        done.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    hooks = _post_hooks(rec.counters)
    try:
        for key, owner, attrs, post in _targets():
            for attr in attrs:
                fn = getattr(owner, attr)
                patch(owner, attr,
                      rec.wrap(key, fn, hooks[post] if post else None))
        # scheduler entry points (aliases included) for the event count;
        # Simulator.schedule and call_later reach schedule_at by lookup
        for owner, attrs in (
            (Simulator, ("schedule_at", "schedule_fifo", "call_later_fifo")),
            (VirtualClock, ("call_later", "call_later_fifo")),
        ):
            for attr in attrs:
                patch(owner, attr,
                      _count_fired(rec.counters, getattr(owner, attr)))
    except BaseException:
        uninstall(done)
        raise
    return done


def uninstall(done: Installed) -> None:
    for owner, attr, old, had in reversed(done):
        if had:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)
    done.clear()
