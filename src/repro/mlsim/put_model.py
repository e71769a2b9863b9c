"""The PUT/GET communication model (Figure 7).

Figure 7 decomposes one PUT on the AP1000 into 18 components across four
timelines (user, system, DMA/network, remote system/user).  This module
implements that decomposition as pure functions of
(:class:`~repro.mlsim.params.MLSimParams`, message size, hop distance), for
both machine models:

* **software** (AP1000): the user program traps into the system
  (``put_prolog``), the kernel enqueues, posts the cached data to memory,
  sets up the DMA and returns (``put_epilog``); message arrival interrupts
  the *receiving* processor, which flushes/invalidates the destination
  range and sets up the receive DMA — all of it stealing CPU time;
* **hardware** (AP1000+): the user program writes 8 parameter words to the
  MSC+ queue (``put_enqueue``) and moves on; DMA setup, transfer, cache
  invalidation, and the combined flag update all happen in the MSC+/MC.

The timing engine composes these functions; the Figure 7 benchmark prints
them component by component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.mlsim.params import MLSimParams

#: A message size or hop distance, or a numpy column of them: the replay
#: engine (``engine_soa``) costs a whole trace's messages in one call,
#: so the functions that take one are written to broadcast.
Count = Any


def put_send_cpu_time(p: MLSimParams, size: Count) -> float:
    """Processor time consumed by issuing a PUT of ``size`` bytes.

    Matches section 5.1's formula for the AP1000:
    ``put_prolog + put_enqueue + put_msg_post*size + put_dma_set +
    put_epilog``; on the AP1000+ only the prolog (parameter preparation)
    and enqueue (8 stores) touch the processor.
    """
    cpu = p.put_prolog_time + p.put_enqueue_time
    if not p.hardware_put_get:
        cpu += p.put_msg_post_time * size
        cpu += p.put_dma_set_time
    cpu += p.put_epilog_time
    return cpu


def get_send_cpu_time(p: MLSimParams, size: int) -> float:
    """Processor time to issue a GET request (no outgoing payload)."""
    return put_send_cpu_time(p, 0)


def send_dma_setup_time(p: MLSimParams) -> float:
    """Off-CPU DMA setup by the MSC+ (zero in the software model, where
    setup already happened on the CPU)."""
    return p.put_dma_set_time if p.hardware_put_get else 0.0


def dma_drain_time(p: MLSimParams, size: int) -> float:
    """Time for the send DMA to stream the payload out of memory."""
    return p.put_msg_time * size


def network_time(p: MLSimParams, size: Count,
                 distance: Count) -> float:
    """Wire time: ``network_prolog + network_delay*distance +
    put_msg_time*size + network_epilog`` (Figure 7, components 15-18)."""
    return (p.network_prolog_time
            + p.network_delay_time * distance
            + p.put_msg_time * size
            + p.network_epilog_time)


def send_complete_to_flag_time(p: MLSimParams) -> float:
    """From send-DMA completion to the send flag being incremented.

    Software: a send-complete interrupt runs a handler which updates the
    flag.  Hardware: the MSC+ asks the MC's incrementer directly.
    """
    return p.send_complete_time + p.send_complete_flag_time


def send_complete_cpu_theft(p: MLSimParams) -> float:
    """Processor time stolen on the *sender* by send completion
    (the interrupt service; zero with hardware handling)."""
    return 0.0 if p.hardware_put_get else p.send_complete_time


def recv_service_time(p: MLSimParams, size: Count) -> float:
    """From message arrival to receive-DMA completion.

    Software (section 5.1): ``intr_rtc + recv_msg_flush*size +
    recv_dma_set`` plus the completion handler; hardware: the MSC+ parses
    the header and sets the receive DMA, invalidating cached lines on the
    fly.
    """
    if p.hardware_put_get:
        return p.recv_dma_set_time
    return (p.intr_rtc_time
            + p.recv_msg_flush_time * size
            + p.recv_dma_set_time
            + p.recv_complete_time)


def recv_flag_update_time(p: MLSimParams, size: Count) -> float:
    """From message arrival to the receive flag being incremented."""
    return recv_service_time(p, size) + p.recv_complete_flag_time


def recv_cpu_theft(p: MLSimParams, size: Count) -> float:
    """Processor time stolen on the *receiver* per arriving PUT/GET-reply
    (zero with hardware handling — "data reception from a network does not
    prevent user program execution")."""
    if p.hardware_put_get:
        return 0.0
    return recv_service_time(p, size)


def get_reply_service_time(p: MLSimParams, size: Count) -> float:
    """At the GET target: from request arrival to the reply entering the
    network.  The MSC+ answers from its reply queue; the software model
    needs an interrupt, a queue operation, and a software DMA setup."""
    if p.hardware_put_get:
        return p.recv_dma_set_time + p.put_dma_set_time
    return (p.intr_rtc_time
            + p.recv_dma_set_time
            + p.put_msg_post_time * size
            + p.put_dma_set_time)


def get_reply_cpu_theft(p: MLSimParams, size: Count) -> float:
    """Processor time stolen at the GET *target* to serve the request."""
    return 0.0 if p.hardware_put_get else get_reply_service_time(p, size)


def flag_check_cpu_time(p: MLSimParams) -> float:
    """Library cost of one flag-check call (components 13-14)."""
    return p.flag_check_prolog_time + p.flag_check_epilog_time


@dataclass(frozen=True)
class PutTimeline:
    """The full one-message timeline of Figure 7, for the benchmark."""

    send_cpu: float              # (1)-(5): processor busy issuing
    dma_setup: float             # off-CPU MSC+ setup (hardware only)
    dma_drain: float             # DMA streams payload to the network
    network: float               # (15)-(18)
    send_flag_at: float          # send flag increment time (from t=0)
    arrival_at: float            # last byte arrives at the receiver
    recv_service: float          # (8)-(11) on arrival
    recv_flag_at: float          # receive flag increment time
    sender_cpu_total: float      # CPU time consumed on the sender
    receiver_cpu_total: float    # CPU time stolen on the receiver


def put_timeline(p: MLSimParams, size: int, distance: int) -> PutTimeline:
    """Compose the complete PUT timeline for one message."""
    send_cpu = put_send_cpu_time(p, size)
    setup = send_dma_setup_time(p)
    depart = send_cpu + setup
    drain = dma_drain_time(p, size)
    net = network_time(p, size, distance)
    send_flag_at = depart + drain + send_complete_to_flag_time(p)
    arrival = depart + net
    service = recv_service_time(p, size)
    recv_flag_at = arrival + recv_flag_update_time(p, size)
    return PutTimeline(
        send_cpu=send_cpu,
        dma_setup=setup,
        dma_drain=drain,
        network=net,
        send_flag_at=send_flag_at,
        arrival_at=arrival,
        recv_service=service,
        recv_flag_at=recv_flag_at,
        sender_cpu_total=send_cpu + send_complete_cpu_theft(p),
        receiver_cpu_total=recv_cpu_theft(p, size),
    )
