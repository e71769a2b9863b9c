"""A perfect wire holds no frame; the wire that holds them is its oracle.

On both wires an MSC+ sends a command in the call that issues it.  A
machine without a fault plan plugs every MSC+ into the T-net, so a
packet is delivered (and a GET request answered) inside the ``inject``
that sent it.  A machine with a *quiet* fault plan — no fault ever
fires — keeps queue-and-drain: frames sit in per-pair channels until
``Machine._pump_wire`` drains them through the reliable transport, and
a GET request waits in its reply queue for the next round.  The same
program must leave both machines in the same state: results, events,
memory, flag words, every hardware counter, the queue and MSC+ blocks
of the harvested metrics (the occupancy series included, when
observed), and the T-net's counters net of the link-control frames
only the transport sends.  A batch of one-element commands
(``CellContext.transfer_batch``) is issued as one on the plugged,
unobserved wire and one command at a time on the held one, so the
generated programs compare the batch with its expansion too, under
every acknowledge policy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import api
from repro.core.completion import AckPolicy
from repro.core.errors import CommunicationError, PageFaultError
from repro.core.flags import flag_area_end
from repro.faults.chaos import memory_digest, trace_digest
from repro.faults.plan import FaultPlan
from repro.hardware.mmu import PAGE_256K
from repro.machine.config import MachineConfig
from repro.hardware.msc import MSCPlus
from repro.machine.machine import Machine
from repro.network.tnet import TNet
from repro.obs.observer import machine_metrics

from tests.programs import (
    EVERY_OP,
    MEMORY,
    event_keys,
    programs,
    round_program,
)

QUIET = FaultPlan(name="quiet", seed=11)


def machines(cells=4, observe=False, sanitize=False,
             policy=AckPolicy.EVERY_PUT):
    plugged = Machine(MachineConfig(num_cells=cells, memory_per_cell=MEMORY,
                                    observe=observe, sanitize=sanitize),
                      ack_policy=policy)
    held = Machine(MachineConfig(num_cells=cells, memory_per_cell=MEMORY,
                                 fault_plan=QUIET, observe=observe,
                                 sanitize=sanitize), ack_policy=policy)
    return plugged, held


def data_frames(machine):
    """(injected, delivered) T-net frames the MSC+s sent: link ACKs and
    NACKs, which only a reliable transport emits, are taken out."""
    tnet = machine.tnet
    stats = getattr(tnet, "stats", None)
    control = stats.acks_sent + stats.nacks_sent if stats else 0
    return tnet.injected_count - control, tnet.delivered_count - control


def assert_same_state(plugged, held):
    # One path per input, chosen from the run.
    assert plugged.tnet.ports is not None and plugged.transport is None
    assert held.tnet.ports is None and held.transport is not None
    assert plugged.tnet.in_flight == held.tnet.in_flight == 0
    assert data_frames(plugged) == data_frames(held)
    assert memory_digest(plugged) == memory_digest(held)
    flags = flag_area_end()
    for ours, theirs in zip(plugged.hw_cells, held.hw_cells):
        assert ours.memory.read(0, flags) == theirs.memory.read(0, flags)
        # MSCStats, both DMA engines, the five queues, the MC with its
        # MMU, TLBs and flag incrementer, the cache: all of it.
        assert ours.state() == theirs.state()
    for ours, theirs in zip(plugged.rings, held.rings):
        assert ours.state() == theirs.state()
    ours, theirs = machine_metrics(plugged), machine_metrics(held)
    assert ours["queues"] == theirs["queues"]
    assert ours["msc"] == theirs["msc"]


@settings(max_examples=30, deadline=None)
@given(cells=st.sampled_from([4, 5]), steps=programs, observe=st.booleans(),
       sanitize=st.booleans(), policy=st.sampled_from(AckPolicy.ALL))
@example(cells=5, steps=EVERY_OP, observe=False, sanitize=False,
         policy=AckPolicy.EVERY_PUT)
@example(cells=5, steps=EVERY_OP, observe=True, sanitize=False,
         policy=AckPolicy.EVERY_PUT)
@example(cells=4, steps=EVERY_OP, observe=False, sanitize=True,
         policy=AckPolicy.LAST_PER_DEST)
@example(cells=5, steps=EVERY_OP, observe=False, sanitize=False,
         policy=AckPolicy.NONE)
def test_generated_programs_leave_both_wires_alike(cells, steps, observe,
                                                   sanitize, policy):
    plugged, held = machines(cells, observe, sanitize, policy)
    want = plugged.run(round_program, steps=steps)
    assert held.run(round_program, steps=steps) == want
    assert plugged.engine["loop"] == "wake-set"
    assert held.engine["loop"] == "wake-set"
    for pe in range(cells):
        assert event_keys(plugged.trace, pe) == event_keys(held.trace, pe)
    assert trace_digest(plugged.trace) == trace_digest(held.trace)
    assert_same_state(plugged, held)


def test_perfect_machine_never_drains_and_faulted_one_never_plugs(
        monkeypatch):
    def never(what):
        return lambda *args: pytest.fail(what)

    plugged, held = machines()
    with monkeypatch.context() as patch:
        patch.setattr(Machine, "_arrive",
                      never("a faulted wire delivered at inject"))
        held.run(round_program, steps=EVERY_OP)
    monkeypatch.setattr(TNet, "drain_all",
                        never("a perfect wire was drained"))
    monkeypatch.setattr(Machine, "_pump_wire",
                        never("a perfect machine took the fault loop"))
    # A command leaves at issue and a request is answered on arrival:
    # no queue is left for a pump to find.
    monkeypatch.setattr(MSCPlus, "pump_send",
                        never("a perfect machine queued a command"))
    monkeypatch.setattr(MSCPlus, "pump_replies",
                        never("a perfect machine queued a request"))
    monkeypatch.setattr(Machine, "mark_dirty",
                        never("a perfect machine marked a cell dirty"))
    plugged.run(round_program, steps=EVERY_OP)


# ----------------------------------------------------------------------
# The three shapes the applications lack
# ----------------------------------------------------------------------

def self_put_over_its_send_flag(ctx):
    """A PUT to oneself whose scattered range covers the word of its
    own send flag: the send-side increment comes first, the receive DMA
    then overwrites it, the receive flag counts last."""
    sent, landed = ctx.alloc_flag(), ctx.alloc_flag()
    assert landed.addr == sent.addr + 4
    src = ctx.alloc(3, np.uint32)
    src.data[:] = (0xAAAA0000 + ctx.pe, 0xBBBB0000 + ctx.pe, 7)
    yield from ctx.barrier()
    # Two words starting at the send flag: it and the receive flag.
    api.put(ctx, ctx.pe, sent.addr, src.addr, 8,
            send_flag=sent, recv_flag=landed)
    yield from ctx.flag_wait(landed, 0xBBBB0001 + ctx.pe)
    return ctx.flag_read(sent), ctx.flag_read(landed)


def test_self_put_whose_send_flag_lies_in_the_scattered_range():
    plugged, held = machines()
    want = plugged.run(self_put_over_its_send_flag)
    assert held.run(self_put_over_its_send_flag) == want
    assert want == [(0xAAAA0000 + pe, 0xBBBB0001 + pe) for pe in range(4)]
    assert [c.mc.flag_increments for c in plugged.hw_cells] == [2] * 4
    assert_same_state(plugged, held)


def remote_stores(ctx):
    """REMOTE_STORE: the delivery itself injects (the automatic ACK)."""
    box = ctx.alloc(4)
    yield from ctx.barrier()
    for k in range(3):
        ctx.remote_store_word((ctx.pe + 1) % ctx.num_cells, box, k,
                              10.0 * ctx.pe + k)
    yield from ctx.barrier()
    return box.data.tolist()


def test_remote_store_is_acknowledged_inside_the_delivery():
    plugged, held = machines()
    want = plugged.run(remote_stores)
    assert held.run(remote_stores) == want
    assert want[1] == [0.0, 1.0, 2.0, 0.0]
    for cell in plugged.hw_cells:
        assert cell.msc.stats.remote_stores == 3
        assert cell.msc.remote_store_acks == 3
    assert data_frames(plugged) == (24, 24)       # 12 stores + 12 ACKs
    assert_same_state(plugged, held)


def put_into_an_unmapped_page(ctx, page):
    sent = ctx.alloc_flag()
    src = ctx.alloc(4)
    yield from ctx.barrier()
    if ctx.pe == 0:
        api.put(ctx, 1, page + 64, src.addr, 32, send_flag=sent)
    yield from ctx.barrier()


def test_put_into_an_unmapped_remote_page_faults_alike():
    page = 5 * PAGE_256K
    outcomes = []
    plugged, held = machines()
    for machine in (plugged, held):
        machine.hw_cells[1].mc.mmu.unmap_page(page, PAGE_256K)
        with pytest.raises(PageFaultError) as raised:
            machine.run(put_into_an_unmapped_page, page)
        sender, target = machine.hw_cells[0], machine.hw_cells[1]
        outcomes.append((
            str(raised.value), vars(sender.msc.stats), vars(target.msc.stats),
            sender.mc.flag_increments, target.mc.mmu.faults,
            # The held wire still carries the link ACK of the frame
            # whose delivery faulted, so only what was sent compares.
            target.msc.recv_dma.operations, data_frames(machine)[0],
            [cell.memory.read(0, flag_area_end())
             for cell in machine.hw_cells]))
    assert outcomes[0] == outcomes[1]
    text, sender_stats, target_stats, increments, faults, *_ = outcomes[0]
    assert f"{page + 64:#x}" in text
    assert sender_stats["puts_sent"] == 1 and increments == 1
    assert target_stats["faults_pulled"] == faults == 1
    assert target_stats["puts_received"] == 0
    assert data_frames(plugged) == (1, 1)         # pulled off the wire


def put_outside_the_machine(ctx):
    src = ctx.alloc(4)
    yield from ctx.barrier()
    if ctx.pe == 0:
        ctx.put(ctx.num_cells, src, src)
    yield from ctx.barrier()


def test_refused_packet_draws_no_serial_on_either_wire():
    for machine in machines():
        with pytest.raises(CommunicationError, match="outside 4-cell"):
            machine.run(put_outside_the_machine)
        tnet = machine.tnet
        assert (tnet._next_serial, tnet.injected_count,
                tnet.delivered_count) == (0, 0, 0)
        # The next packet on that network takes the first serial.
        packet = machine.hw_cells[2].msc.send_message(3, b"next")
        assert packet.serial == 0


def test_frames_toward_a_cell_killed_on_a_perfect_wire_fall_off():
    # A killed cell's receive port is swapped for a sink, so nothing
    # per packet asks who is dead; a restored machine cuts its dead
    # cells off again when it runs.
    plugged, _ = machines()
    plugged.kill_cell(1)
    plugged.hw_cells[0].msc.send_message(1, b"lost")
    plugged.hw_cells[0].msc.send_message(2, b"kept")
    assert plugged.hw_cells[1].msc.stats.sends_received == 0
    assert plugged.hw_cells[2].msc.stats.sends_received == 1
    assert data_frames(plugged) == (2, 2)

    restored, _ = machines()
    restored._restore_killed = {3}
    restored.run(lambda ctx: None)
    restored.hw_cells[0].msc.send_message(3, b"lost")
    assert restored.hw_cells[3].msc.stats.sends_received == 0
