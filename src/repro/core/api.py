"""The paper's PUT/GET interface, verbatim.

Section 3.1 specifies the low-level communication interface a
parallelizing compiler targets::

    put(node_id, raddr, laddr, size, send_flag, recv_flag, ack)
    get(node_id, raddr, laddr, size, send_flag, recv_flag)

    put_stride(node_id, raddr, laddr, ack, send_flag, recv_flag,
               send_item_size, send_cnt, send_skip,
               recv_item_size, recv_cnt, recv_skip)
    get_stride(node_id, raddr, laddr, send_flag, recv_flag,
               send_item_size, send_cnt, send_skip,
               recv_item_size, recv_cnt, recv_skip)

and section 2.2 the translator-level direct remote access::

    readRemote(node_id, raddr, laddr, size)
    writeRemote(node_id, raddr, laddr, size)

This module provides exactly those signatures as functions over a
:class:`~repro.machine.program.CellContext`, working on raw byte
addresses.  They are argument adapters: the front end (command, trace
event, sanitizer footprint, acknowledge policy) is
``CellContext._transfer``, the same routine the array-level methods
use, so every back end of the context runs them unchanged.  The
array-level methods are more convenient for hand-written programs;
compiler-like layers (and tests that want to match the paper
letter-for-letter) use these.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.flags import Flag
from repro.hardware.msc import CommandKind
from repro.network.packet import StrideSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker
    from repro.machine.program import CellContext


def put(ctx: CellContext, node_id: int, raddr: int, laddr: int, size: int,
        send_flag: Flag | None = None, recv_flag: Flag | None = None,
        ack: bool = False) -> None:
    """PUT ``size`` bytes from local ``laddr`` to ``raddr`` on ``node_id``.

    Non-blocking: the data area may be reused once ``send_flag`` shows the
    send DMA finished; ``recv_flag`` is incremented on the destination when
    its receive DMA finishes.  With ``ack`` the acknowledge policy decides
    whether a GET-to-address-0 follows.
    """
    spec = StrideSpec.contiguous(size)
    ctx._transfer(CommandKind.PUT, node_id, raddr, laddr, spec, spec,
                  send_flag, recv_flag, ack=ack)


def get(ctx: CellContext, node_id: int, raddr: int, laddr: int, size: int,
        send_flag: Flag | None = None, recv_flag: Flag | None = None) -> None:
    """GET ``size`` bytes from ``raddr`` on ``node_id`` into local
    ``laddr``."""
    spec = StrideSpec.contiguous(size)
    ctx._transfer(CommandKind.GET, node_id, raddr, laddr, spec, spec,
                  send_flag, recv_flag)


def _strides(send: tuple[int, int, int], recv: tuple[int, int, int]
             ) -> tuple[StrideSpec, StrideSpec]:
    """The gather-side and scatter-side ``(item_size, cnt, skip)``."""
    send_stride, recv_stride = StrideSpec(*send), StrideSpec(*recv)
    if send_stride.total_bytes != recv_stride.total_bytes:
        raise ValueError(
            f"stride payload mismatch: gather side moves "
            f"{send_stride.total_bytes} bytes, scatter side takes "
            f"{recv_stride.total_bytes} bytes")
    return send_stride, recv_stride


def put_stride(ctx: CellContext, node_id: int, raddr: int, laddr: int,
               ack: bool,
               send_flag: Flag | None, recv_flag: Flag | None,
               send_item_size: int, send_cnt: int, send_skip: int,
               recv_item_size: int, recv_cnt: int, recv_skip: int) -> None:
    """Strided PUT with independent gather/scatter layouts (Figure 3).

    All stride parameters are in bytes, exactly as in the paper; the total
    payload (``send_item_size * send_cnt``) must equal
    ``recv_item_size * recv_cnt``.
    """
    send_stride, recv_stride = _strides(
        (send_item_size, send_cnt, send_skip),
        (recv_item_size, recv_cnt, recv_skip))
    ctx._transfer(CommandKind.PUT, node_id, raddr, laddr, send_stride,
                  recv_stride, send_flag, recv_flag, stride=True, ack=ack)


def get_stride(ctx: CellContext, node_id: int, raddr: int, laddr: int,
               send_flag: Flag | None, recv_flag: Flag | None,
               send_item_size: int, send_cnt: int, send_skip: int,
               recv_item_size: int, recv_cnt: int, recv_skip: int) -> None:
    """Strided GET: gather on the remote side, scatter locally."""
    send_stride, recv_stride = _strides(
        (send_item_size, send_cnt, send_skip),
        (recv_item_size, recv_cnt, recv_skip))
    ctx._transfer(CommandKind.GET, node_id, raddr, laddr, send_stride,
                  recv_stride, send_flag, recv_flag, stride=True)


def write_remote(ctx: CellContext, node_id: int, raddr: int, laddr: int,
                 size: int) -> None:
    """Translator-level direct remote write (section 2.2).

    Implemented as an acknowledged PUT with no explicit flags: completion
    is detected by the Ack & Barrier model (``ctx.finish_puts`` +
    ``ctx.barrier``), exactly like the VPP Fortran run-time system.
    """
    put(ctx, node_id, raddr, laddr, size, ack=True)


def read_remote(ctx: CellContext, node_id: int, raddr: int, laddr: int,
                size: int, recv_flag: Flag | None = None) -> None:
    """Translator-level direct remote read: a GET whose completion the
    caller detects on ``recv_flag`` (reply data returns and updates it)."""
    get(ctx, node_id, raddr, laddr, size, recv_flag=recv_flag)
