"""End-to-end integration: hardware counters during real application
runs, trace save/replay equivalence, ablation sanity."""

import io

import pytest

from repro.apps import matmul, scg, tomcatv
from repro.core.completion import AckPolicy
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.trace.io import load_trace, save_trace


class TestHardwareCountersDuringApps:
    def test_matmul_exercises_dma_and_cache(self):
        run = matmul.run(num_cells=4, n=32)
        machine = run.machine
        assert all(c.msc.send_dma.bytes_moved > 0 for c in machine.hw_cells)
        assert all(c.msc.recv_dma.bytes_moved > 0 for c in machine.hw_cells)
        # Receive-side hardware invalidation ran.
        assert any(c.cache.invalidated_lines >= 0 for c in machine.hw_cells)
        # Flags were incremented by the MC, combined with transfers.
        assert all(c.mc.flag_increments > 0 for c in machine.hw_cells)

    def test_scg_uses_ring_buffers(self):
        run = scg.run(num_cells=4, m=24)
        machine = run.machine
        assert any(r.deposits > 0 for r in machine.rings)
        assert all(r.bytes_buffered == 0 for r in machine.rings)  # drained

    def test_mmu_translations_happen(self):
        run = tomcatv.run(num_cells=4, n=17, iters=2)
        machine = run.machine
        assert all(c.mc.mmu.tlb_hits + c.mc.mmu.tlb_misses > 0
                   for c in machine.hw_cells)
        assert all(c.mc.mmu.faults == 0 for c in machine.hw_cells)

    def test_network_conservation(self):
        run = matmul.run(num_cells=4, n=32)
        tnet = run.machine.tnet
        assert tnet.injected_count == tnet.delivered_count
        assert tnet.in_flight == 0


class TestTraceReplayEquivalence:
    def test_full_pipeline_through_serialization(self):
        run = tomcatv.run(num_cells=4, n=17, iters=2)
        direct = simulate(run.trace, ap1000_plus_params())
        stream = io.BytesIO()
        save_trace(run.trace, stream)
        stream.seek(0)
        loaded = load_trace(stream)
        again = io.BytesIO()
        save_trace(loaded, again)
        assert again.getvalue() == stream.getvalue()
        replayed = simulate(loaded, ap1000_plus_params())
        assert replayed.elapsed_us == pytest.approx(direct.elapsed_us)
        assert replayed.mean_overhead == pytest.approx(direct.mean_overhead)


class TestAckPolicyAblation:
    def _machine(self, policy):
        m = Machine(MachineConfig(num_cells=4, memory_per_cell=1 << 21),
                    ack_policy=policy)

        def program(ctx):
            a = ctx.alloc(64)
            right = (ctx.pe + 1) % ctx.num_cells
            for _ in range(10):
                ctx.put(right, a, a, ack=True)
            yield from ctx.finish_puts()
            yield from ctx.barrier()

        m.run(program)
        return m

    def test_last_per_dest_sends_fewer_messages(self):
        every = self._machine(AckPolicy.EVERY_PUT)
        last = self._machine(AckPolicy.LAST_PER_DEST)
        from repro.trace.events import EventKind

        def acks(machine):
            return sum(1 for pe in range(4)
                       for ev in machine.trace.events_for(pe)
                       if ev.kind is EventKind.GET and ev.is_ack)

        assert acks(every) == 40
        assert acks(last) == 4

    def test_every_put_doubles_message_count(self):
        """Section 5.4: 'this requirement doubles the number of
        messages'."""
        every = self._machine(AckPolicy.EVERY_PUT)
        none = self._machine(AckPolicy.NONE)
        assert every.tnet.injected_count > 2 * none.tnet.injected_count * 0.9

    def test_cheaper_with_fewer_acks(self):
        every = self._machine(AckPolicy.EVERY_PUT)
        last = self._machine(AckPolicy.LAST_PER_DEST)
        t_every = simulate(every.trace, ap1000_plus_params()).elapsed_us
        t_last = simulate(last.trace, ap1000_plus_params()).elapsed_us
        assert t_last < t_every
