"""Cells boot from one image (``boot_cells``): DRAM carved out of
anonymous mappings ("banks"), page tables filled from one template per
DRAM size.

The oracle is a cell built on its own by ``HardwareCell.build``, with a
buffer and tables nobody else ever saw.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.faults.chaos import memory_digest, trace_digest
from repro.hardware import memory as memory_module
from repro.hardware.cell import DEFAULT_MEMORY_BYTES, HardwareCell, boot_cells
from repro.hardware.mmu import PAGE_4K, PAGE_256K
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.network.tnet import TNet
from repro.network.topology import TorusTopology

#: 16 MB (sixteen cells to a bank) and a size with a 4 KB tail.
SIZES = (DEFAULT_MEMORY_BYTES, PAGE_256K + 3 * PAGE_4K)
#: More than one bank of 16 MB cells, the last one not full.
CELLS = 20


def one_at_a_time(count, tnet, memory_bytes=DEFAULT_MEMORY_BYTES):
    return [HardwareCell.build(pe, tnet, memory_bytes)
            for pe in range(count)]


def tables(cell):
    mmu = cell.mc.mmu
    return mmu._table_4k, mmu._table_256k, mmu._fine_grained


def edges(cell):
    """The first and last page of a cell's DRAM (reading all of it would
    make every page of it resident)."""
    size = cell.memory.size_bytes
    return (cell.memory.read(0, PAGE_4K),
            cell.memory.read(size - PAGE_4K, PAGE_4K))


def neighbours(ctx, words):
    """Every cell PUTs to its right neighbour (flagged, acknowledged),
    remote-stores to its left one and writes the top of its DRAM."""
    n = ctx.num_cells
    src = ctx.alloc(words)
    dst = ctx.alloc(words)
    flag = ctx.alloc_flag()
    src.data[:] = ctx.pe + 1
    top = ctx.machine.alloc_private(ctx.pe, 64)
    top.data[:] = ctx.pe % 251
    yield from ctx.barrier()
    ctx.put((ctx.pe + 1) % n, dst, src, recv_flag=flag)
    yield from ctx.flag_wait(flag, 1)
    ctx.remote_store_word((ctx.pe - 1) % n, dst, words - 1, ctx.pe + 0.5)
    yield from ctx.barrier()
    return float(dst.data.sum())


@pytest.mark.parametrize("network", [TNet], ids=["tnet"])
@pytest.mark.parametrize("size", SIZES)
def test_booted_cells_equal_cells_built_one_at_a_time(size, network):
    def cells(build):
        return build(CELLS, network(TorusTopology.for_cells(CELLS)), size)

    for booted, alone in zip(cells(boot_cells), cells(one_at_a_time)):
        assert booted.state() == alone.state()
        assert tables(booted) == tables(alone)
        assert booted.memory.size_bytes == alone.memory.size_bytes == size
        assert booted.memory.buffer.shape == alone.memory.buffer.shape
        assert edges(booted) == edges(alone)


@pytest.mark.parametrize("size", SIZES)
def test_a_run_leaves_the_machine_an_alone_built_one_is_left_in(
        size, monkeypatch):
    def run():
        machine = Machine(MachineConfig(num_cells=CELLS,
                                        memory_per_cell=size, shards=1))
        return machine, machine.run(neighbours, 24)

    booted, results = run()
    monkeypatch.setattr("repro.machine.machine.boot_cells", one_at_a_time)
    alone, expected = run()
    assert results == expected
    assert trace_digest(booted.trace) == trace_digest(alone.trace)
    assert memory_digest(booted) == memory_digest(alone)
    for mine, theirs in zip(booted.hw_cells, alone.hw_cells):
        assert mine.state() == theirs.state()
        assert tables(mine) == tables(theirs)


class TestNoAliasing:
    K = 5                   # cells 4 and 6 share its bank; 15 | 16 do not

    def untouched(self, cell, size):
        fresh = HardwareCell.build(
            cell.cell_id, TNet(TorusTopology.for_cells(CELLS)), size)
        assert tables(cell) == tables(fresh)
        assert edges(cell) == (bytes(PAGE_4K), bytes(PAGE_4K))

    @pytest.mark.parametrize("size", SIZES)
    def test_page_tables_and_dram_of_one_cell_are_its_own(self, size):
        cells = Machine(MachineConfig(num_cells=CELLS, memory_per_cell=size,
                                      shards=1)).hw_cells
        cell = cells[self.K]
        mmu = cell.mc.mmu
        mmu.map_page(0, 7 * PAGE_4K, writable=False)
        mmu.map_range(PAGE_256K, 0, 2 * PAGE_4K)
        mmu.unmap_page(0, size=PAGE_256K)
        mmu.unmap_page(PAGE_256K + 2 * PAGE_4K)
        cell.memory.write(size - 1, b"\xff")
        cell.memory.write(0, b"\xff")
        assert cell.memory.read(size - 1, 1) == b"\xff"
        for other in (cells[self.K - 1], cells[self.K + 1], cells[15],
                      cells[16]):
            self.untouched(other, size)
        # Nor on a machine built afterwards: the template and the banks
        # of the next boot are not this machine's.
        later = Machine(MachineConfig(num_cells=CELLS, memory_per_cell=size,
                                      shards=1)).hw_cells
        for other in later[self.K - 1:self.K + 2]:
            self.untouched(other, size)

    def test_every_cell_has_a_buffer_of_its_own_inside_a_bank(self):
        buffers = memory_module.zeroed_dram(CELLS, DEFAULT_MEMORY_BYTES)
        per_bank = memory_module.BANK_BYTES // DEFAULT_MEMORY_BYTES
        starts = [buf.__array_interface__["data"][0] for buf in buffers]
        assert len(set(starts)) == CELLS
        for pe, (start, buf) in enumerate(zip(starts, buffers)):
            assert buf.shape == (DEFAULT_MEMORY_BYTES,) and buf.flags.writeable
            first = pe - pe % per_bank          # first cell of pe's bank
            assert start - starts[first] == \
                (pe - first) * DEFAULT_MEMORY_BYTES
        assert len({id(buf.base) for buf in buffers}) == 2      # two banks


def test_the_library_leaves_malloc_alone():
    assert not hasattr(memory_module, "pin_mmap_threshold")
    for source in Path(repro.__file__).parent.rglob("*.py"):
        assert "mallopt" not in source.read_text(encoding="utf-8"), source


def test_wide_machines_in_a_row_without_mallopt_and_a_fork():
    """README hazard 2, without the remedy: 16 MB buffers freed one by
    one raise glibc's mmap threshold, the next machine's come from the
    arena, and ``calloc`` memsets 16 GB.  Banks are mapped directly, so
    they are demand-zero every time."""
    script = textwrap.dedent("""
        import gc, json, os, resource
        from repro import Machine

        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        Machine(4)                          # imports and first-use set-up
        builds = []
        for _ in range(3):
            before = faults()
            machine = Machine(1024)
            builds.append(faults() - before)
            del machine
            gc.collect()
        # A live wide machine must not stop the process from forking
        # (merged into one 16 GiB mapping, its banks would).
        machine = Machine(1024)
        child = os.fork()
        if child == 0:
            os._exit(0)
        assert os.waitpid(child, 0)[1] == 0
        # Not ru_maxrss: across exec it keeps the peak of whoever forked.
        with open("/proc/self/status") as status:
            peak_kb = next(int(line.split()[1]) for line in status
                           if line.startswith("VmHWM:"))
        print(json.dumps({"faults": builds, "rss_mb": peak_kb / 1024}))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    env.pop("MALLOC_MMAP_THRESHOLD_", None)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["rss_mb"] < 300, report
    first, _, third = report["faults"]
    assert third <= first, report
