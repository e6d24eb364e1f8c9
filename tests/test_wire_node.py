"""Send-path failure handling of the broker node's :class:`Session`.

``Session._push`` hands each outgoing frame to the live connection and
waits for it to be queued. A send that times out or is cancelled is one
the outbox replay covers: the frame stays in the outbox, one warning is
logged, and the kernel carries on. Any other failure is a bug and must
propagate.
"""

from __future__ import annotations

import asyncio
import logging
import threading

import pytest

from repro.wire import node
from repro.wire.codec import encode_control
from repro.wire.framing import encode_frame

FRAME = encode_frame(encode_control(("ping",)))


class _StuckConnection:
    """A connection whose send queue never accepts the frame."""

    async def send(self, frame: bytes) -> None:
        await asyncio.Event().wait()


class _CancelledConnection:
    async def send(self, frame: bytes) -> None:
        raise asyncio.CancelledError


class _BrokenConnection:
    async def send(self, frame: bytes) -> None:
        raise ValueError("bad frame")


@pytest.fixture
def loop():
    """An event loop running in a background thread, as on a node."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    yield loop

    async def cancel_pending():
        current = asyncio.current_task()
        for task in asyncio.all_tasks():
            if task is not current:
                task.cancel()

    asyncio.run_coroutine_threadsafe(cancel_pending(), loop).result(5)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5)
    loop.close()


def _session(loop, conn) -> node.Session:
    # bypass __init__: no replica is needed to exercise the send path
    session = node.Session.__new__(node.Session)
    session.loop = loop
    session.conn = conn
    session.token = "0123456789abcdef"
    session.outbox = []
    return session


@pytest.mark.parametrize("conn_cls, outcome", [
    (_StuckConnection, "TimeoutError"),
    (_CancelledConnection, "CancelledError"),
])
def test_unfinished_send_keeps_frame_and_warns_once(
    loop, monkeypatch, caplog, conn_cls, outcome
):
    monkeypatch.setattr(node, "SEND_TIMEOUT_S", 0.05)
    session = _session(loop, conn_cls())
    with caplog.at_level(logging.WARNING, logger=node.__name__):
        session._send(("ping",))
    assert session.outbox == [FRAME]
    warnings = [r for r in caplog.records if r.name == node.__name__]
    assert len(warnings) == 1
    assert warnings[0].levelno == logging.WARNING
    assert outcome in warnings[0].getMessage()


def test_send_error_propagates(loop, caplog):
    session = _session(loop, _BrokenConnection())
    with caplog.at_level(logging.WARNING, logger=node.__name__):
        with pytest.raises(ValueError, match="bad frame"):
            session._push(FRAME)
    assert not [r for r in caplog.records if r.name == node.__name__]
