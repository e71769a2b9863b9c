"""Link-layer state survives a checkpoint: seq numbers, ack cursors,
retransmit buffers, and reorder windows round-trip through
``ReliableTransport.state()``/``load_state()`` and through a full
machine snapshot."""

from __future__ import annotations

import pickle

import pytest

from repro.apps.workloads import workload
from repro.ckpt.snapshot import load_snapshot, restore_machine
from repro.core.errors import CheckpointInterrupt
from repro.faults.chaos import SMOKE_RECOVER_PARAMS
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.network.packet import Packet, PacketKind, link_checksum


def make_transport():
    plan = FaultPlan(name="quiet", seed=5)
    m = Machine(MachineConfig(num_cells=4, fault_plan=plan,
                              memory_per_cell=1 << 21))
    return m.transport


def framed(src, dst, seq):
    packet = Packet(kind=PacketKind.PUT, src=src, dst=dst,
                    payload_bytes=8)
    packet.link_seq = seq
    packet.checksum = link_checksum(packet)
    return packet


def storm_state():
    """A transport frozen mid-storm, built by hand: unacked frames with
    retry counts on one flow, a reorder gap on another."""
    t = make_transport()
    # Sender side: three outstanding frames on flow (0, 1), one of them
    # already fast-retransmitted by a NACK.
    for _ in range(3):
        t.outbound(Packet(kind=PacketKind.PUT, src=0, dst=1,
                          payload_bytes=8))
    nack = Packet(kind=PacketKind.LINK_NACK, src=1, dst=0,
                  payload_bytes=0, link_seq=0)
    nack.checksum = link_checksum(nack)
    t.receive(nack)
    # Receiver side: flow (2, 3) delivered seq 0 but holds seq 2 in the
    # resequencing window behind the missing seq 1.
    assert t.receive(framed(2, 3, 0))
    assert t.receive(framed(2, 3, 2)) == []
    t.tick()  # a partial timeout countdown must survive too
    return t


class TestStateRoundTrip:
    def test_mid_storm_state_survives_pickle_and_load(self):
        t = storm_state()
        before = t.state()
        assert before["next_seq"] == {(0, 1): 3}
        assert set(before["unacked"][(0, 1)]) == {0, 1, 2}
        assert before["retry_count"] == {((0, 1), 0): 1}
        assert before["expected"] == {(2, 3): 1}
        assert list(before["reorder"][(2, 3)]) == [2]
        assert before["gap_nacked"] == {(2, 3): 1}
        assert before["ticks"] == 1

        saved = pickle.loads(pickle.dumps(before))
        fresh = make_transport()
        assert fresh.state() != before
        fresh.load_state(saved)
        assert fresh.state() == before

    def test_restored_storm_keeps_retrying_where_it_left_off(self):
        t = storm_state()
        fresh = make_transport()
        fresh.load_state(pickle.loads(pickle.dumps(t.state())))
        # The retry ledger carried over: the next retransmission of
        # frame 0 is retry #2, not a restart of the budget.
        flow = (0, 1)
        fresh._retransmit(flow, 0, fresh._unacked[flow][0])
        assert fresh._retry_count[(flow, 0)] == 2
        # And the reorder window still releases in order once the gap
        # frame finally lands.
        ready = fresh.receive(framed(2, 3, 1))
        assert [p.link_seq for p in ready] == [1, 2]
        assert fresh.state()["expected"][(2, 3)] == 3


class TestSnapshotCarriesTransport:
    def test_machine_snapshot_round_trips_link_state(self, tmp_path):
        # MatMul, not CG: the ring broadcast rides the T-net, so its
        # frames actually cross the reliable transport.
        plan = FaultPlan(name="drop", seed=21, drop_rate=0.15)
        params = dict(SMOKE_RECOVER_PARAMS["MatMul"])
        cells = params.pop("num_cells")
        config = MachineConfig(fault_plan=plan, checkpoint_at_site=2,
                               checkpoint_dir=str(tmp_path),
                               stop_after_checkpoint=True)
        with pytest.raises(CheckpointInterrupt) as excinfo:
            workload("MatMul").run(num_cells=cells, config=config, **params)
        snapshot = load_snapshot(excinfo.value.snapshot_path)
        saved = snapshot.state["transport"]
        assert saved is not None
        # The gate pumped to quiescence, so nothing is in flight — but
        # the flow counters that keep future frames unambiguous must
        # have survived the storm so far.
        assert not any(saved["unacked"].values())
        assert any(seq > 0 for seq in saved["next_seq"].values())
        assert saved["next_seq"] == saved["expected"]
        machine = restore_machine(snapshot)
        assert machine.transport.state() == saved
