"""Tagged point-to-point messaging over the simulated interconnect.

Semantics mirror the user-level libraries of the paper (MPL, PVMe): sends
are buffered and asynchronous, receives block and match on (source, tag).
Payloads are real Python/numpy objects; their wire size is computed from
the data (``payload_nbytes``) unless the caller declares it.

Large transfers can optionally be segmented into fixed-size packets
(``packet_bytes``) — the XHPF run-time system moves array sections through
a bounded transfer buffer, which is visible in the paper's Table 3 as a
~4 KB data/message ratio for XHPF programs.  Hand-coded PVMe programs send
unsegmented messages.

Each blocking operation is one generator of engine block requests
(``send_gen``, ``recv_gen``, ...), which a program -- the compiled XHPF one,
the hand-coded PVMe ones through :class:`~repro.msg.pvme.Pvme` -- delegates
to with ``yield from``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.sim.cluster import ProcEnv
from repro.sim.network import ANY_SOURCE, ANY_TAG

__all__ = ["Comm", "payload_nbytes", "packet_count", "ANY_SOURCE",
           "ANY_TAG"]


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload: numpy data verbatim, scalars as words.

    Object-dtype arrays are rejected: ``.nbytes`` would report pointer
    bytes, silently undercounting the wire size.  Numpy scalars — 0-d
    arrays included — are sized like the Python scalars they box (8 bytes,
    16 for complex), not by their in-memory itemsize.
    """
    if isinstance(payload, np.ndarray):
        if payload.dtype.kind == "O":
            raise TypeError("cannot size object-dtype ndarray (.nbytes "
                            "reports pointer bytes, not wire size); pass "
                            "nbytes explicitly")
        if payload.ndim == 0:
            return 16 if payload.dtype.kind == "c" else 8
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (complex, np.complexfloating)):
        return 16
    if isinstance(payload, (bool, int, float, np.generic)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) for p in payload) + 8
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v)
                   for k, v in payload.items()) + 8
    if payload is None:
        return 0
    raise TypeError(f"cannot size payload of type {type(payload).__name__}; "
                    f"pass nbytes explicitly")


def packet_count(nbytes: int, packet_bytes: Optional[int]) -> int:
    """Wire messages one logical send of ``nbytes`` becomes: one, or through
    a bounded transfer buffer of ``packet_bytes``, as many packets as it
    takes (an empty send is still one message)."""
    if packet_bytes and nbytes > packet_bytes:
        return -(-nbytes // packet_bytes)
    return 1


class _Carrier:
    """Marker payload of a header-only segment packet.

    Segmented sends split one logical transfer into fixed-size packets; the
    real payload rides the last packet and the earlier ones carry only
    their share of the bytes.  They used to carry ``None`` — making a
    transported payload that is legitimately ``None`` indistinguishable
    from a carrier and looping the receiver forever — so carriers are now
    explicit objects, tagged with their position for debuggability.
    """

    __slots__ = ("index", "total")

    def __init__(self, index: int, total: int):
        self.index = index
        self.total = total

    def __repr__(self) -> str:
        return f"_Carrier({self.index + 1}/{self.total})"


class Comm:
    """A processor's handle to the message-passing library."""

    def __init__(self, env: ProcEnv, packet_bytes: Optional[int] = None):
        self.env = env
        self.proc = env.proc
        self.rank = env.pid
        self.size = env.nprocs
        self.net = env.net
        self.packet_bytes = packet_bytes
        self._seq = 0

    # ------------------------------------------------------------------ #

    def send_gen(self, dst: int, payload: Any, tag: int = 0,
                 nbytes: Optional[int] = None, category: str = "data"):
        """Buffered asynchronous send."""
        size = payload_nbytes(payload) if nbytes is None else nbytes
        total = packet_count(size, self.packet_bytes)
        if total > 1:
            return self._send_segmented(dst, payload, tag, size, category,
                                        total)
        return self.net.send_gen(self.rank, dst, payload, tag=tag,
                                 nbytes=size, category=category)

    def _send_segmented(self, dst: int, payload: Any, tag: int, size: int,
                        cat: str, total: int):
        """The payload rides the last packet; earlier packets are
        header-only carriers of a full packet's bytes each."""
        packet = self.packet_bytes
        for i in range(total - 1):
            yield from self.net.send_gen(self.rank, dst, _Carrier(i, total),
                                         tag=tag, nbytes=packet, category=cat)
        yield from self.net.send_gen(self.rank, dst, payload, tag=tag,
                                     nbytes=size - packet * (total - 1),
                                     category=cat)

    def recv_gen(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload."""
        if self.packet_bytes:
            if src == ANY_SOURCE:
                raise ValueError("segmented transfers require an explicit "
                                 "source (packets must not interleave)")
            if tag == ANY_TAG:
                # two concurrent segmented sends from the same source with
                # different tags would misassemble under ANY_TAG matching
                raise ValueError("segmented transfers require an explicit "
                                 "tag (packets must not interleave)")
            # consume header-only carrier packets until the payload packet
            while True:
                msg = yield from self.recv_msg_gen(src=src, tag=tag)
                if not isinstance(msg.payload, _Carrier):
                    return msg.payload
        msg = yield from self.recv_msg_gen(src=src, tag=tag)
        if isinstance(msg.payload, _Carrier):
            raise RuntimeError(
                f"unsegmented recv matched a segment carrier {msg.payload!r} "
                f"(src={msg.src}, tag={msg.tag}); sender used packet_bytes "
                f"but this endpoint does not")
        return msg.payload

    def recv_msg_gen(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the full Message (src/tag visible)."""
        return self.net.recv_gen(self.proc, self.rank, src=src, tag=tag)

    def next_tag(self, base: int = 500_000) -> int:
        """A fresh tag for internal phases (collectives use these)."""
        self._seq += 1
        return base + self._seq
