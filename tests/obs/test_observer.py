"""Machine observer: link accounting, occupancy sampling, harvest,
and the phase-annotation round trip."""

import io

import pytest

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.obs.micro import MICRO_CELLS, micro_machine, micro_trace
from repro.obs.observer import (
    MAX_SERIES_SAMPLES,
    MachineObserver,
    machine_metrics,
)
from repro.obs.registry import MACHINE_SCHEMA
from repro.trace.events import EventKind
from repro.trace.io import load_trace, save_trace


class TestAttachment:
    def test_default_machine_has_no_observer(self):
        m = Machine(MachineConfig(num_cells=2, memory_per_cell=1 << 20))
        assert m.obs is None

    def test_config_flag_attaches(self):
        m = Machine(MachineConfig(num_cells=2, memory_per_cell=1 << 20,
                                  observe=True))
        assert m.obs is not None
        assert m.tnet.observer is m.obs
        assert m.bnet.observer is m.obs


class TestHarvest:
    @pytest.fixture(scope="class")
    def metrics(self):
        return machine_metrics(micro_machine())

    def test_document_shape(self, metrics):
        assert metrics["schema"] == MACHINE_SCHEMA
        assert metrics["observed"] is True
        for section in ("network", "queues", "dma", "msc", "faults"):
            assert section in metrics

    def test_link_accounting(self, metrics):
        links = metrics["network"]["links"]
        # The ring exchange touches neighbour links in both directions.
        assert links, "observer saw no T-net traffic"
        for link, counts in links.items():
            assert "->" in link
            assert counts["frames"] > 0
            assert counts["bytes"] >= counts["frames"]

    def test_network_totals(self, metrics):
        net = metrics["network"]
        assert net["tnet_injected"] == net["tnet_delivered"] > 0
        assert net["snet_barriers"] > 0
        assert net["bnet_frames"] > 0  # gop reduction uses the B-net

    def test_queue_and_dma_sections(self, metrics):
        queues = metrics["queues"]
        assert len(queues["per_cell_high_water_words"]) == MICRO_CELLS
        assert queues["max_high_water_words"] > 0
        assert queues["pushed"] >= queues["popped"] > 0
        assert queues["occupancy_series"]
        assert len(queues["occupancy_series"]) <= MAX_SERIES_SAMPLES
        assert metrics["dma"]["send_bytes"] > 0

    def test_perfect_machine_has_zero_faults(self, metrics):
        assert all(v == 0 for v in metrics["faults"].values())

    def test_harvest_without_observer_still_counts(self):
        metrics = machine_metrics(micro_machine(observe=False))
        assert metrics["observed"] is False
        assert metrics["network"]["links"] == {}
        assert metrics["queues"]["occupancy_series"] == []
        # The always-on hardware counters are still there.
        assert metrics["network"]["tnet_injected"] > 0
        assert metrics["queues"]["pushed"] > 0

    def test_harvest_is_deterministic(self, metrics):
        assert machine_metrics(micro_machine()) == metrics


class TestFaultyHarvest:
    def test_faulty_networks_feed_the_same_document(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(name="obs", seed=7, drop_rate=0.2)
        m = Machine(MachineConfig(num_cells=MICRO_CELLS,
                                  memory_per_cell=1 << 22,
                                  fault_plan=plan, observe=True))
        from repro.obs.micro import micro_program
        m.run(micro_program)
        metrics = machine_metrics(m)
        assert metrics["network"]["links"], "faulty T-net bypassed hooks"
        assert metrics["faults"]["retries"] > 0


def _scanning(sample):
    """``sample`` checked against a scan of every queue of every cell
    taken at the same moment."""
    checked = []

    def sample_and_scan(self, pe=None):
        words = [cell.msc.queued_words() for cell in self.machine.hw_cells]
        idx, stride = self._sample_index, self._sample_stride
        sample(self, pe)
        if idx % stride == 0:
            assert self._occupancy[-1] == [idx, sum(words), max(words)]
            checked.append(idx)

    return sample_and_scan, checked


class TestOccupancySample:
    """A sample reads only the cells pushed to since the last one; it
    must read what a scan of the whole machine reads."""

    def run(self, monkeypatch, app, config):
        sample, checked = _scanning(MachineObserver.sample_queues)
        monkeypatch.setattr(MachineObserver, "sample_queues", sample)
        assert app(config).verified
        return checked

    def test_on_the_held_wire_with_spilling_queues(self, monkeypatch):
        from repro.apps import tomcatv
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(name="squeeze", seed=1999, drop_rate=0.01,
                         delay_rate=0.05, queue_capacity_words=16)
        checked = self.run(monkeypatch, lambda config: tomcatv.run(
            4, n=17, iters=1, use_stride=False, config=config),
            MachineConfig(fault_plan=plan, observe=True))
        assert len(checked) > 200

    def test_on_the_perfect_wire(self, monkeypatch):
        from repro.apps.latency import run_ping_pong

        checked = self.run(monkeypatch,
                           lambda config: run_ping_pong(4, config=config),
                           MachineConfig(observe=True))
        assert len(checked) > 200

    def test_of_commands_queued_across_samples(self, monkeypatch):
        from repro.hardware.msc import Command, CommandKind
        from repro.network.packet import StrideSpec

        sample, checked = _scanning(MachineObserver.sample_queues)
        monkeypatch.setattr(MachineObserver, "sample_queues", sample)
        m = Machine(MachineConfig(num_cells=4, memory_per_cell=1 << 20,
                                  observe=True))
        src = m.alloc_array(0, 64, "uint8")
        whole = StrideSpec.contiguous(8)
        for n in range(12):
            m.hw_cells[0].msc.issue(Command(
                kind=CommandKind.PUT, dst=1 + n % 3, raddr=src.addr,
                laddr=src.addr + n, send_stride=whole, recv_stride=whole))
        # Cell 1 issues while cell 0 holds twelve commands.
        m.hw_cells[1].msc.send(Command(
            kind=CommandKind.PUT, dst=2, raddr=src.addr, laddr=src.addr,
            send_stride=whole, recv_stride=whole))
        m.mark_dirty(0)
        m.pump()
        assert m.obs.occupancy_series == [[0, 104, 96], [1, 96, 96]]
        assert checked == [0, 1]


class TestPhaseAnnotations:
    def test_micro_trace_carries_phase_labels(self):
        trace = micro_trace()
        assert trace.phases == ("init", "exchange", "reduce")
        kinds = [ev.kind for ev in trace.events_for(0)]
        assert kinds.count(EventKind.PHASE) == 3

    def test_phase_labels_roundtrip_through_jsonl(self):
        trace = micro_trace()
        stream = io.BytesIO()
        save_trace(trace, stream)
        stream.seek(0)
        loaded = load_trace(stream)
        again = io.BytesIO()
        save_trace(loaded, again)
        assert again.getvalue() == stream.getvalue()
        assert loaded.phases == trace.phases
        for ev in loaded.events_for(1):
            if ev.kind is EventKind.PHASE:
                assert loaded.phase_label(ev.flag) in trace.phases

    def test_phase_survives_coalescing(self):
        trace = micro_trace()
        before = sum(1 for pe in range(trace.num_pes)
                     for ev in trace.events_for(pe)
                     if ev.kind is EventKind.PHASE)
        trace.coalesce_compute()
        after = sum(1 for pe in range(trace.num_pes)
                    for ev in trace.events_for(pe)
                    if ev.kind is EventKind.PHASE)
        assert before == after == 3 * trace.num_pes
