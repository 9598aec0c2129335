"""Checksummed duplex channels for the distributed process runtime.

Every rank of :mod:`repro.distributed.elastic` talks to the
coordinator over one duplex OS pipe; the coordinator routes
rank-to-rank traffic (boundary bands, retransmit requests), so one
pipe per rank is all the plumbing a run needs.

The wire unit is a :class:`Message`.  Data-bearing messages (``band``,
``result``) carry their payload as *bytes* plus a CRC32 computed at
pack time, so corruption in flight — the ``flip_bits`` fault, or real
link/memory trouble — is caught at *receive* time with a retransmit
request, instead of weeks later as numeric divergence.  Control
messages (heartbeats, the start barrier's hello/resume, failure
reports) carry small Python objects and are not checksummed.

Receive-side robustness lives in :class:`RetryPolicy`: a bounded
number of per-message wall-clock timeouts, each followed by a
retransmit request and an exponentially growing wait.  The policy is
deliberately receiver-driven — the sender keeps a per-stage outbox and
answers ``resend`` requests — because the receiver is the only party
that knows a message is missing.

:class:`Channel` is thread-safe on the send side (the worker's
heartbeat thread shares the pipe with the main loop; interleaved
writes over ``PIPE_BUF`` would corrupt the stream without the lock).
"""

from __future__ import annotations

import pickle
import threading
import zlib
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection
from typing import Any, Optional, Tuple

# -- message kinds ---------------------------------------------------

#: rank -> coordinator (routed to a neighbour): boundary-band payload
BAND = "band"
#: receiver -> sender (routed): please retransmit band ``key``
RESEND = "resend"
#: worker liveness + progress beacon (payload: (state, counter, phase))
HEARTBEAT = "heartbeat"
#: worker announces it is up (start barrier)
HELLO = "hello"
#: coordinator: every rank is up, start executing
RESUME = "resume"
#: worker's final slab and exchange counters (checksummed payload)
RESULT = "result"
#: worker-reported structured failure (exchange timeout, checksum…)
#: with its exchange counters
FAILURE = "failure"
#: coordinator: run over, exit cleanly
SHUTDOWN = "shutdown"

#: ``src``/``dst`` id of the coordinator endpoint
COORDINATOR = -1


class ChannelClosed(Exception):
    """The peer endpoint is gone (EOF / broken pipe)."""


@dataclass(frozen=True)
class Message:
    """One routed wire message.

    ``key`` addresses data messages — ``(stage, src)`` for bands, so a
    receiver can match, deduplicate and buffer out-of-order arrivals.
    ``crc`` covers ``payload`` only when it is ``bytes``.
    """

    kind: str
    src: int
    dst: int
    epoch: int
    key: Tuple[int, ...] = ()
    crc: int = 0
    payload: Any = None


def checksum(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def pack_payload(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_payload(data: bytes) -> Any:
    return pickle.loads(data)


def make_data_message(kind: str, src: int, dst: int, epoch: int,
                      key: Tuple[int, ...], obj: Any) -> Message:
    """Pack ``obj`` and seal it with its CRC32."""
    data = pack_payload(obj)
    return Message(kind=kind, src=src, dst=dst, epoch=epoch, key=key,
                   crc=checksum(data), payload=data)


def verify_message(msg: Message) -> bool:
    """True iff the payload bytes still match the sender's CRC."""
    if not isinstance(msg.payload, (bytes, bytearray)):
        return True
    return checksum(bytes(msg.payload)) == msg.crc


def corrupt_payload(msg: Message) -> Message:
    """Flip bits of a data payload *after* its CRC was computed.

    The ``flip_bits`` fault: the returned message fails
    :func:`verify_message` at the receiver, which is exactly the point
    — garbled data must be caught by the checksum, not by numerics.
    """
    if not isinstance(msg.payload, (bytes, bytearray)) or not msg.payload:
        return msg
    data = bytearray(msg.payload)
    data[len(data) // 2] ^= 0xFF
    return replace(msg, payload=bytes(data))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-message timeouts with exponential backoff.

    Attempt ``k`` (0-based) waits ``timeout_s + backoff_s * 2**k``
    before declaring the message missing; between attempts the
    receiver issues a retransmit request.  ``max_retries`` bounds the
    retransmit requests, so a persistent drop surfaces as a structured
    :class:`~repro.runtime.errors.ExchangeTimeoutError` after
    ``max_retries + 1`` windows instead of hanging the run.
    """

    timeout_s: float = 0.25
    max_retries: int = 3
    backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @property
    def attempts(self) -> int:
        return self.max_retries + 1

    def attempt_timeout(self, attempt: int) -> float:
        return self.timeout_s + self.backoff_s * (2 ** attempt)

    def total_budget_s(self) -> float:
        return sum(self.attempt_timeout(k) for k in range(self.attempts))


@dataclass
class Channel:
    """A duplex pipe endpoint with thread-safe sends and timed receives."""

    conn: Connection
    _send_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False)

    def send(self, msg: Message) -> None:
        try:
            with self._send_lock:
                self.conn.send(msg)
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv(self, timeout_s: Optional[float]) -> Optional[Message]:
        """Next message, or ``None`` once ``timeout_s`` elapses."""
        try:
            if timeout_s is not None and not self.conn.poll(timeout_s):
                return None
            return self.conn.recv()
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def poll(self) -> bool:
        try:
            return self.conn.poll(0)
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
