"""End-to-end race-detection scenarios on the functional machine."""

import numpy as np

from repro.core import api
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.shmem import SharedMemory
from repro.check.hb import build_happens_before
from repro.check.races import find_races, extract_accesses, race_report


def check(program, cells):
    machine = Machine(MachineConfig(
        num_cells=cells, memory_per_cell=1 << 20, sanitize=True))
    machine.run(program)
    hb = build_happens_before(machine.trace)
    return race_report(hb, "t")


class TestPutPut:
    def test_unordered_writers_race(self):
        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe in (1, 2):
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            yield from ctx.barrier()

        report = check(program, 3)
        assert report.codes() == {"RACE-PUT-PUT"}
        [diag] = report.diagnostics
        assert diag.home == 0
        assert diag.addr_hi - diag.addr_lo == 64
        assert {e.pe for e in diag.events} == {1, 2}

    def test_paper_signature_put_races_the_same(self):
        # The checker sees repro.core.api as it sees the array-level
        # methods: one front end stamps the footprint of both.
        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe in (1, 2):
                api.put(ctx, 0, victim.addr, src.addr, 64, recv_flag=flag)
            yield from ctx.barrier()

        report = check(program, 3)
        assert report.codes() == {"RACE-PUT-PUT"}
        [diag] = report.diagnostics
        assert (diag.home, diag.addr_hi - diag.addr_lo) == (0, 64)

    def test_flag_wait_between_writers_is_clean(self):
        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 1)
            yield from ctx.barrier()
            if ctx.pe == 2:
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 2)
            yield from ctx.barrier()

        assert check(program, 3).clean

    def test_barrier_alone_does_not_order_puts(self):
        # The Ack & Barrier model's core subtlety: a barrier proves
        # nothing about PUT arrival, so back-to-back barrier-separated
        # PUTs with no flag wait still race.
        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            yield from ctx.barrier()
            if ctx.pe == 2:
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            yield from ctx.barrier()

        assert check(program, 3).codes() == {"RACE-PUT-PUT"}

    def test_disjoint_ranges_are_clean(self):
        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe in (1, 2):
                ctx.put(0, victim, src, count=8,
                        dest_offset=8 * (ctx.pe - 1), recv_flag=flag)
            yield from ctx.barrier()

        assert check(program, 3).clean

    def test_same_source_fifo_is_clean(self):
        # One cell's own PUTs to one destination ride the same T-net
        # channel and are delivered in order: never a race.
        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, victim, src, count=8, recv_flag=flag)
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            yield from ctx.barrier()

        assert check(program, 2).clean


class TestPutGet:
    def test_unordered_get_races_with_put(self):
        def program(ctx):
            victim = ctx.alloc(16)
            scratch = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, victim, scratch, count=8, recv_flag=flag)
            if ctx.pe == 2:
                ctx.get(0, victim, scratch, count=8, recv_flag=flag)
                yield from ctx.flag_wait(flag, 1)
            yield from ctx.barrier()

        assert check(program, 3).codes() == {"RACE-PUT-GET"}

    def test_get_after_covered_put_is_clean(self):
        def program(ctx):
            victim = ctx.alloc(16)
            scratch = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, victim, scratch, count=8, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 1)
            yield from ctx.barrier()
            if ctx.pe == 2:
                ctx.get(0, victim, scratch, count=8, recv_flag=flag)
                yield from ctx.flag_wait(flag, 1)
            yield from ctx.barrier()

        assert check(program, 3).clean


class TestAckIdiom:
    def test_finish_puts_completes_acked_puts(self):
        # PUT with ack=True + finish_puts: the zero-byte GET on the same
        # channel plus the ack-flag wait proves delivery — a later
        # writer does not race.
        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, victim, src, count=8, ack=True)
                yield from ctx.finish_puts()
            yield from ctx.barrier()
            if ctx.pe == 2:
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            yield from ctx.barrier()

        assert check(program, 3).clean


class TestRemoteWord:
    def test_shared_word_traffic_is_synchronous(self):
        # REMOTE_STORE/LOAD retire at issue; barrier-separated phases
        # are therefore ordered and clean.
        def program(ctx):
            cell = ctx.alloc(4)
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.remote_store_word(0, cell, 0, 42.0)
            yield from ctx.barrier()
            if ctx.pe == 0:
                assert ctx.remote_load_word(0, cell, 0) == 42.0
            yield from ctx.barrier()

        machine = Machine(MachineConfig(
            num_cells=2, memory_per_cell=1 << 20, sanitize=True))
        machine.run(program)
        hb = build_happens_before(machine.trace)
        assert not find_races(hb, extract_accesses(hb))

    def test_shared_memory_traffic_carries_footprints(self):
        # SharedMemory LOAD/STORE are the same hardware remote accesses
        # as remote_load_word / remote_store_word, footprint included.
        def program(ctx):
            cell = ctx.alloc(4, dtype=np.float32)
            shm = SharedMemory(ctx)
            yield from ctx.barrier()
            if ctx.pe == 1:
                shm.store_element(0, cell, 2, 7.0)
                assert shm.load_element(0, cell, 2) == 7.0
            yield from ctx.barrier()
            return cell.element_addr(2)

        machine = Machine(MachineConfig(
            num_cells=2, memory_per_cell=1 << 20, sanitize=True))
        addr = machine.run(program)[1]
        words = [ev for ev in machine.trace.events_for(1)
                 if ev.kind.name in ("REMOTE_STORE", "REMOTE_LOAD")]
        assert [ev.kind.name for ev in words] == ["REMOTE_STORE",
                                                  "REMOTE_LOAD"]
        for ev in words:
            assert (ev.raddr, ev.rchunk, ev.rcount, ev.rstep) == \
                (addr, 4, 1, 4)


class TestDeterminism:
    def test_report_is_stable_across_runs(self):
        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe in (1, 2, 3):
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            yield from ctx.barrier()

        first = [d.to_dict() for d in check(program, 4).diagnostics]
        second = [d.to_dict() for d in check(program, 4).diagnostics]
        assert first == second
        assert len(first) == 3  # all writer pairs reported
