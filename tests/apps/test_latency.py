"""RingShift walks laps; the hop-per-iteration program it replaced is
kept here as the oracle for what a run records."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.latency import ring_shift_program
from repro.faults.chaos import memory_digest, trace_digest
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine


def hop_loop_program(ctx, *, hops):
    """Every cell iterates over every hop and acts on its own."""
    n = ctx.num_cells
    token = ctx.alloc(1)
    out = ctx.alloc(1)
    flag = ctx.alloc_flag()
    waits = 0
    yield from ctx.barrier()
    nxt = (ctx.pe - 1) % n
    for h in range(hops):
        if h % n == (n - ctx.pe) % n:  # the token is here on hop h
            if h > 0:
                waits += 1
                yield from ctx.flag_wait(flag, waits)
            out.data[0] = float(h)
            ctx.put(nxt, token, out, recv_flag=flag)
    yield from ctx.barrier()
    return waits


def run(program, cells, hops, **config):
    machine = Machine(MachineConfig(
        num_cells=cells, memory_per_cell=1 << 21, **config))
    return machine, machine.run(program, hops=hops)


@given(cells=st.integers(1, 12), hops=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_lap_loop_records_what_the_hop_loop_recorded(cells, hops):
    want, want_results = run(hop_loop_program, cells, hops)
    got, got_results = run(ring_shift_program, cells, hops)
    assert got_results == want_results
    assert trace_digest(got.trace) == trace_digest(want.trace)
    assert memory_digest(got) == memory_digest(want)


@given(cells=st.integers(1, 12), hops=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_every_cell_passes_one_site_per_lap(cells, hops):
    # Armed so that sites are counted, at a period no run reaches: the
    # gate's parking rule needs the same count on every cell.
    machine, _ = run(ring_shift_program, cells, hops,
                     checkpoint_every=1 << 30)
    assert machine._ckpt_counts == [-(-hops // cells)] * cells
