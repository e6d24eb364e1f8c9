"""Broker node process: an asyncio TCP server running kernel replicas.

One node owns a subset of the brokers. It builds an SPMD replica of the
:class:`~repro.pubsub.system.PubSubSystem` from the coordinator's config
blob (same seed, same named random streams, same id allocators — so queue
ids and populations match the coordinator bit for bit), then executes the
dispatches the coordinator streams at it:

``recv``        a message arriving at an owned broker
``fire``        a timer the broker requested earlier
``disconnect``  / ``proclaimed``  client-side protocol entry points
``quiescent``   drain check (owned brokers only; the coordinator ANDs)

Handlers run on the *real* kernel code — broker, protocol, filter tables —
against a :class:`NodeClock` and :class:`NodeTransport` that turn every
side effect (send, timer, loss accounting) into a frame streamed back to
the coordinator, which applies it through its unmodified link layer.
Queries (``reclaim_downlink``/``downlink_backlog``) block the kernel
thread on a future until the coordinator answers, because their results
feed the very next statement of a handler.

The server is asyncio end to end: per-connection bounded send queues with
genuine backpressure (the kernel thread waits for its frame to be
queued), a keepalive ping that is *shed* — never queued — when the peer
stops draining, and a reader that keeps accepting resumed connections
while a dispatch is executing. Kernel execution itself lives in a
single-thread executor so blocking queries cannot stall the loop.
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import concurrent.futures
import logging
import sys
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.drivers.base import CancelHandle, Driver, Transport
from repro.errors import ConfigurationError, SchedulingError
from repro.metrics.hub import MetricsHub
from repro.wire.codec import decode_control, encode_control
from repro.wire.framing import FrameDecoder, FrameError, encode_frame

__all__ = ["NodeServer", "main"]

log = logging.getLogger(__name__)

SEND_QUEUE_CAP = 256
SEND_TIMEOUT_S = 30.0
KEEPALIVE_S = 2.0


# ---------------------------------------------------------------------------
# recording clock / transport / metrics: kernel side effects become frames
# ---------------------------------------------------------------------------
class _NodeHandle(CancelHandle):
    __slots__ = ("_clock", "_token")

    def __init__(self, clock: "NodeClock", token: int) -> None:
        self._clock = clock
        self._token = token

    def cancel(self) -> None:
        self._clock._cancel(self._token)


class NodeClock:
    """Clock facade whose timers are scheduled by the coordinator.

    ``now`` is set from each dispatch frame (the coordinator's virtual
    time); ``call_later`` hands out a token, remembers the callback, and
    emits a ``timer`` effect — the coordinator schedules the real timer
    and dispatches ``fire`` with the token when it goes off.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self.now = 0.0
        self._next_token = 1
        self._timers: Dict[int, Tuple[Any, tuple]] = {}

    def _register(self, delay: float, cb: Any, args: tuple, fifo: bool) -> int:
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        token = self._next_token
        self._next_token += 1
        self._timers[token] = (cb, args)
        self._session.emit_effect(("timer", token, float(delay), fifo))
        return token

    def call_later(self, delay: float, cb: Any, *args: Any) -> CancelHandle:
        return _NodeHandle(self, self._register(delay, cb, args, False))

    def call_later_fifo(self, delay: float, cb: Any, *args: Any) -> None:
        self._register(delay, cb, args, True)

    def _cancel(self, token: int) -> None:
        if self._timers.pop(token, None) is not None:
            self._session.emit_effect(("cancel", token))

    def fire(self, token: int) -> None:
        entry = self._timers.pop(token, None)
        if entry is None:
            raise ConfigurationError(f"fire for unknown timer token {token}")
        cb, args = entry
        cb(*args)


class NodeTransport(Transport):
    """Transport facade that streams sends back as effects.

    Uplink sends never happen here (clients live with the coordinator);
    reclaim/backlog are synchronous queries against the coordinator's
    channels, blocking the kernel thread until answered.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self._broker_rx: Dict[int, Any] = {}
        self.wired_latency = 0.0
        self.wireless_latency = 0.0

    def register_broker(self, broker_id: int, rx: Any) -> None:
        self._broker_rx[broker_id] = rx

    def register_client(self, client_id: int, rx: Any) -> None:
        pass  # clients live coordinator-side; replica objects are state only

    def send_broker(self, frm: int, to: int, msg: Any) -> None:
        self._session.emit_effect(("send_broker", frm, to, msg))

    def unicast(self, frm: int, to: int, msg: Any) -> None:
        self._session.emit_effect(("unicast", frm, to, msg))

    def send_client(self, client_id: int, msg: Any) -> None:
        self._session.emit_effect(("send_client", client_id, msg))

    def send_uplink(self, client_id: int, broker_id: int, msg: Any) -> None:
        raise ConfigurationError("broker replica attempted a client uplink")

    def reclaim_downlink(self, client_id: int) -> List[Any]:
        return list(self._session.query(("reclaim", client_id)))

    def downlink_backlog(self, client_id: int) -> int:
        return int(self._session.query(("backlog", client_id)))


class NodeMetrics(MetricsHub):
    """Replica metrics: explicit losses are effects, the rest is local."""

    def __init__(self, session: "Session") -> None:
        super().__init__()
        self._session = session

    def on_loss(self, client: int, event: Any) -> None:
        self._session.emit_effect(("loss", client, event))


class NodeDriver(Driver):
    name = "wire-node"
    sim = None

    def __init__(self, clock: NodeClock, transport: NodeTransport) -> None:
        self.clock = clock
        self.transport = transport

    def build_transport(self, topo: Any, paths: Any, *, wired_latency: float,
                        wireless_latency: float, **_ignored: Any) -> Transport:
        self.transport.wired_latency = wired_latency
        self.transport.wireless_latency = wireless_latency
        return self.transport

    def build_log_store(self, wal_dir: Optional[str] = None) -> Any:
        raise ConfigurationError("durable state is not supported over wire nodes")


# ---------------------------------------------------------------------------
# session: one coordinator's replica + resumable frame stream
# ---------------------------------------------------------------------------
class Session:
    """Replica state plus the exactly-once outbox for one coordinator."""

    def __init__(self, server: "NodeServer", token: str, config: dict,
                 brokers: Tuple[int, ...]) -> None:
        self.server = server
        self.token = token
        self.brokers = tuple(brokers)
        self.loop = asyncio.get_running_loop()
        self.conn: Optional["Connection"] = None
        self.executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"kernel-{token[:8]}"
        )
        self.last_seq = 0
        self.outbox: List[bytes] = []
        self.out_count = 0
        self._pending: Optional[Tuple[int, concurrent.futures.Future]] = None
        self._epoch_sent: Dict[int, int] = {}
        self._epoch_updates: List[Tuple[int, int]] = []
        self._building = True
        self.clock = NodeClock(self)
        self.transport = NodeTransport(self)
        self.system = self._build_replica(config)
        self._building = False

    def _build_replica(self, config: dict) -> Any:
        from repro.pubsub.system import PubSubSystem
        from repro.workload.generator import build_population
        from repro.workload.spec import WorkloadSpec

        driver = NodeDriver(self.clock, self.transport)
        system = PubSubSystem(
            grid_k=config["grid_k"],
            protocol=config["protocol"],
            seed=config["seed"],
            covering_enabled=config["covering_enabled"],
            migration_batch_size=config["migration_batch_size"],
            matching_engine=config["matching_engine"],
            covering_index=config["covering_index"],
            driver=driver,
        )
        system.metrics = NodeMetrics(self)
        build_population(system, WorkloadSpec(**config["workload"]))
        return system

    # ------------------------------------------------------------------
    # frames out (called from the kernel thread)
    # ------------------------------------------------------------------
    def _send(self, value: tuple) -> None:
        frame = encode_frame(encode_control(value))
        self.outbox.append(frame)
        self._push(frame)

    def _push(self, frame: bytes) -> None:
        """Queue one frame on the live connection, with backpressure.

        The kernel thread waits until the frame is accepted by the
        connection's bounded send queue; an absent connection, or a send
        that times out or is cancelled, leaves the frame in the outbox for
        the next session resume. Any other failure propagates.
        """
        conn = self.conn
        if conn is None:
            return
        fut = asyncio.run_coroutine_threadsafe(conn.send(frame), self.loop)
        try:
            fut.result(timeout=SEND_TIMEOUT_S)
        except (concurrent.futures.TimeoutError,
                concurrent.futures.CancelledError) as exc:
            # outbox keeps the frame; resume will replay it
            log.warning("frame send to coordinator %s not completed (%s); "
                        "left in the outbox for resume",
                        self.token[:8], type(exc).__name__)

    def emit_effect(self, eff: tuple) -> None:
        if self._building:
            raise ConfigurationError(
                f"kernel side effect during replica construction: {eff[0]!r}"
            )
        self.out_count += 1
        self._send(("effect", self.out_count, eff))

    def query(self, q: tuple) -> Any:
        self.out_count += 1
        fut: concurrent.futures.Future = concurrent.futures.Future()
        self._pending = (self.out_count, fut)
        self._send(("query", self.out_count, q))
        value = fut.result()
        self._pending = None
        return value

    # ------------------------------------------------------------------
    # frames in (called from the event loop)
    # ------------------------------------------------------------------
    def attach(self, conn: "Connection") -> None:
        self.conn = conn

    def pending_query_index(self) -> Optional[int]:
        pending = self._pending
        return pending[0] if pending is not None else None

    def resolve_answer(self, value: Any) -> None:
        pending = self._pending
        if pending is not None and not pending[1].done():
            pending[1].set_result(value)

    def start_dispatch(self, seq: int, now: float, deltas: tuple,
                       kind: str, args: tuple) -> None:
        if seq <= self.last_seq:
            return  # duplicate of a dispatch we already own (resume race)
        self.last_seq = seq
        self.outbox = []
        self.out_count = 0
        self.loop.run_in_executor(
            self.executor, self._execute, seq, now, deltas, kind, args
        )

    # ------------------------------------------------------------------
    # kernel execution (kernel thread)
    # ------------------------------------------------------------------
    def _execute(self, seq: int, now: float, deltas: tuple,
                 kind: str, args: tuple) -> None:
        try:
            result = self._run_kernel(now, deltas, kind, args)
            epochs = tuple(self._epoch_updates)
            self._epoch_updates = []
            self._send(("done", seq, result, epochs))
        except BaseException as exc:
            traceback.print_exc()
            self._send(("error", f"{type(exc).__name__}: {exc}"))

    def _run_kernel(self, now: float, deltas: tuple,
                    kind: str, args: tuple) -> Any:
        self.clock.now = float(now)
        self._apply_deltas(deltas)
        system = self.system
        if kind == "recv":
            bid, msg, frm = args
            system.brokers[int(bid)].receive(msg, int(frm))
        elif kind == "fire":
            self.clock.fire(int(args[0]))
        elif kind == "disconnect":
            bid, client = args
            system.protocol.on_disconnect(system.brokers[int(bid)], int(client))
        elif kind == "proclaimed":
            bid, client, dest = args
            system.protocol.on_proclaimed_disconnect(
                system.brokers[int(bid)], int(client), int(dest)
            )
        elif kind == "quiescent":
            return bool(system.protocol.quiescent())
        elif kind == "stats":
            return {"shed_pings": self.server.shed_pings}
        else:
            raise ConfigurationError(f"unknown dispatch kind {kind!r}")
        self._collect_epochs()
        return None

    def _apply_deltas(self, deltas: tuple) -> None:
        client_deltas, epoch_deltas = deltas
        clients = self.system.clients
        for cid, connected, current, last, epoch in client_deltas:
            c = clients[int(cid)]
            c.connected = bool(connected)
            c.current_broker = current
            c.last_broker = last
            c.connect_epoch = int(epoch)
        if epoch_deltas:
            epochs = getattr(self.system.protocol, "_epochs", None)
            for cid, value in epoch_deltas:
                self._epoch_sent[int(cid)] = int(value)
                if epochs is not None:
                    epochs[int(cid)] = int(value)

    def _collect_epochs(self) -> None:
        """Diff the protocol's shared per-client counters for the done frame.

        The sub-unsub baseline allocates a global per-client epoch at
        whichever broker handles a connect; with brokers split across
        processes that counter must travel, or two nodes would hand out
        the same epoch. (In a real deployment this would be client-carried
        state; here the coordinator is its bus.)
        """
        epochs = getattr(self.system.protocol, "_epochs", None)
        if epochs is None:
            return
        for cid, value in epochs.items():
            if self._epoch_sent.get(cid) != value:
                self._epoch_sent[cid] = value
                self._epoch_updates.append((cid, value))

    # ------------------------------------------------------------------
    def resume(self, seq: int, consumed: int) -> List[bytes]:
        """Frames to replay after a reconnect (the coordinator consumed
        ``consumed`` frames of dispatch ``seq``)."""
        if seq != self.last_seq:
            return []  # the dispatch itself never arrived; it will be re-sent
        return self.outbox[consumed:]

    def shutdown(self) -> None:
        self.executor.shutdown(wait=False)


# ---------------------------------------------------------------------------
# connections + server
# ---------------------------------------------------------------------------
class Connection:
    """One coordinator connection: framed reader, bounded writer, keepalive."""

    def __init__(self, server: "NodeServer", reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=SEND_QUEUE_CAP)
        self.session: Optional[Session] = None
        self._tasks: List[asyncio.Task] = []

    async def send(self, frame: bytes) -> None:
        await self.queue.put(frame)

    async def run(self) -> None:
        self._tasks = [
            asyncio.ensure_future(self._writer_loop()),
            asyncio.ensure_future(self._keepalive_loop()),
        ]
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await self.reader.read(65536)
                if not chunk:
                    break
                for payload in decoder.feed(chunk):
                    await self._handle(decode_control(payload))
        except (FrameError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._detach()

    def _detach(self) -> None:
        for task in self._tasks:
            task.cancel()
        if self.session is not None and self.session.conn is self:
            self.session.conn = None
        try:
            self.writer.close()
        except Exception:
            pass

    async def _writer_loop(self) -> None:
        while True:
            frame = await self.queue.get()
            self.writer.write(frame)
            await self.writer.drain()

    async def _keepalive_loop(self) -> None:
        ping = encode_frame(encode_control(("ping",)))
        while True:
            await asyncio.sleep(self.server.keepalive_s)
            try:
                self.queue.put_nowait(ping)
            except asyncio.QueueFull:
                # shed, never queue: a peer that stopped draining gets no
                # keepalive backlog on top of its data backlog
                self.server.shed_pings += 1

    # ------------------------------------------------------------------
    async def _handle(self, value: tuple) -> None:
        tag = value[0]
        if tag == "hello":
            _, token, blob, brokers = value
            try:
                config = ast.literal_eval(blob)
                session = Session(self.server, token, config, tuple(brokers))
            except Exception as exc:
                traceback.print_exc()
                await self.send(encode_frame(encode_control(
                    ("error", f"replica build failed: {exc}")
                )))
                return
            self.server.sessions[token] = session
            self.session = session
            session.attach(self)
            await self.send(encode_frame(encode_control(("hello-ok",))))
        elif tag == "resume":
            _, token, seq, consumed = value
            session = self.server.sessions.get(token)
            if session is None:
                await self.send(encode_frame(encode_control(
                    ("error", f"unknown session {token!r}")
                )))
                return
            self.session = session
            session.attach(self)
            await self.send(encode_frame(encode_control(
                ("resume-ok", session.last_seq, session.pending_query_index())
            )))
            for frame in session.resume(int(seq), int(consumed)):
                await self.send(frame)
        elif tag == "dispatch":
            _, seq, now, deltas, kind, args = value
            self.session.start_dispatch(
                int(seq), float(now), deltas, kind, tuple(args)
            )
        elif tag == "answer":
            self.session.resolve_answer(value[1])
        elif tag == "shutdown":
            self.server.request_stop()
        else:
            raise FrameError(f"unknown frame tag {tag!r}")


class NodeServer:
    """The broker node process: serve until told to shut down."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 keepalive_s: float = KEEPALIVE_S) -> None:
        self.host = host
        self.port = port
        self.keepalive_s = keepalive_s
        self.sessions: Dict[str, Session] = {}
        self.shed_pings = 0
        self._stop: Optional[asyncio.Event] = None

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def run(self) -> None:
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._on_conn, self.host, self.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"WIRE_NODE_LISTENING {host} {port}", flush=True)
        async with server:
            await self._stop.wait()
        for session in self.sessions.values():
            session.shutdown()

    async def _on_conn(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        await Connection(self, reader, writer).run()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.wire.node", description="run one broker node process"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve", help="listen for a coordinator")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks a free port (printed on stdout)")
    serve.add_argument("--keepalive", type=float, default=KEEPALIVE_S,
                       help="keepalive ping interval in seconds")
    args = parser.parse_args(argv)
    if args.command == "serve":
        asyncio.run(
            NodeServer(args.host, args.port, keepalive_s=args.keepalive).run()
        )
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
