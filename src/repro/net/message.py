"""Protocol messages.

A message carries its own handler cost (set by the sending protocol
code, since the sender knows the message semantics) and an optional
in-simulation ``reply_to`` future used to correlate request/response
pairs without explicit transaction tables -- the future object travels
with the request, comes back inside the reply payload, and is resolved
by the receiver-side handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.process import Future

#: bytes of header on every message (routing, type, block id)
HEADER_BYTES = 16
#: payload bytes of a plain control message (request, ack, invalidation)
CONTROL_BYTES = 8


@dataclass(slots=True, init=False)
class Message:
    """One network message.

    ``__init__`` is written out rather than generated: one message is
    built per protocol send, and the generated ``__init__`` plus a
    ``__post_init__`` for the header clamp cost two frames where one
    does.  The dataclass still supplies ``__eq__``.
    """

    src: int
    dst: int
    mtype: str
    size_bytes: int
    block: int
    payload: Any
    #: CPU time the receiver's handler consumes
    handle_cost_us: float
    #: future resolved by the receiver (request/response correlation)
    reply_to: Optional[Future]
    #: per-(src, dst)-link sequence number stamped by the reliable
    #: transport (repro.net.reliable); -1 on the trusted legacy wire
    seq: int
    #: the node a forwarded request came from first (its reply goes
    #: straight back there); -1 when the request was not forwarded, so
    #: the requester is ``src``
    origin: int

    def __init__(
        self,
        src: int,
        dst: int,
        mtype: str,
        size_bytes: int,
        block: int = -1,
        payload: Any = None,
        handle_cost_us: float = 3.0,
        reply_to: Optional[Future] = None,
        seq: int = -1,
        origin: int = -1,
    ) -> None:
        self.src = src
        self.dst = dst
        self.mtype = mtype
        self.size_bytes = size_bytes if size_bytes >= HEADER_BYTES else HEADER_BYTES
        self.block = block
        self.payload = payload
        self.handle_cost_us = handle_cost_us
        self.reply_to = reply_to
        self.seq = seq
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Msg {self.mtype} {self.src}->{self.dst} "
            f"block={self.block} {self.size_bytes}B>"
        )


def control_size() -> int:
    """Wire size of a small control message."""
    return HEADER_BYTES + CONTROL_BYTES


def data_size(granularity: int) -> int:
    """Wire size of a whole-block data message."""
    return HEADER_BYTES + granularity


def notice_size(n_notices: int) -> int:
    """Wire size of a write-notice batch (8 bytes per notice)."""
    return HEADER_BYTES + 8 * n_notices
