"""Latency microbenchmarks: ping-pong and ring shift.

Section 5 of the paper characterizes the PUT interface with latency
microbenchmarks before the application study: a message bounces between
two cells (round-trip latency, Figure 6) or circulates around the torus.
These are the functional-machine twins of those experiments — they are
also the workloads that stress the SPMD *scheduler* rather than the
data path, because at any moment exactly one cell can make progress and
everyone else is blocked.  ``benchmarks/e2e``'s ``sync_chain`` and
``wide_machine`` workloads run the ring shift to time the scheduler;
its traces are PUT/FLAG_WAIT chains, the densest replay input per byte
moved.

``ping_pong`` bounces one word between cell 0 and the highest cell;
``ring_shift`` passes a token *down* the ring (cell ``i`` forwards to
``i - 1``), the direction that defeats the ascending-pe scheduler sweep
(an upward chain pipelines inside a single pass and never blocks).

Both programs cost the host per trace event: a cell iterates over the
bounces or hops it takes part in, never over the whole run's.
"""

from __future__ import annotations

from repro.apps.base import AppRun, execute
from repro.machine.config import MachineConfig

PAPER_PES = 64
DEFAULT_PES = 64
#: Round trips (ping-pong) / hops (ring) per run.
PAPER_ITERS = 1024
DEFAULT_ITERS = 512


def ping_pong_program(ctx, *, iters: int = DEFAULT_ITERS):
    """Bounce one word between cell 0 and the last cell ``iters`` times.

    Every other cell participates only in the enclosing barriers, as in
    the paper's latency runs (the machine is otherwise idle).
    """
    n = ctx.num_cells
    last = n - 1
    word = ctx.alloc(1)
    out = ctx.alloc(1)
    flag = ctx.alloc_flag()
    yield from ctx.barrier()
    if ctx.pe == 0 and n > 1:
        for i in range(iters):
            out.data[0] = float(i)
            ctx.put(last, word, out, recv_flag=flag)
            yield from ctx.flag_wait(flag, i + 1)
    elif ctx.pe == last and n > 1:
        for i in range(iters):
            yield from ctx.flag_wait(flag, i + 1)
            out.data[0] = -float(i)
            ctx.put(0, word, out, recv_flag=flag)
    yield from ctx.barrier()
    return float(word.data[0])


def ring_shift_program(ctx, *, hops: int = DEFAULT_ITERS):
    """Pass a token down the ring (cell ``i`` to ``i - 1``) for ``hops``.

    Cell 0 starts the token; each holder forwards it to the cell below
    (wrapping at 0), so consecutive hops always point *down* the pe
    order and every hop blocks the rest of the machine.

    The token is at cell ``pe`` on hops ``(n - pe) % n + lap * n``, so a
    cell walks *laps*: one iteration, and one checkpoint site, per trip
    of the token round the ring.  Every cell passes ``ceil(hops / n)``
    sites whatever ``hops % n`` is; on the last lap only the cells the
    token still reaches hold a hop.
    """
    n = ctx.num_cells
    token = ctx.alloc(1)
    out = ctx.alloc(1)
    flag = ctx.alloc_flag()
    st = ctx.ckpt_state(lap=0, waits=0)
    if st.fresh:
        yield from ctx.barrier()
    nxt = (ctx.pe - 1) % n
    mine = (n - ctx.pe) % n
    for lap in range(st.lap, -(-hops // n)):
        h = lap * n + mine  # the token is here on hop h
        if h < hops:
            if h > 0:
                st.waits += 1
                yield from ctx.flag_wait(flag, st.waits)
            out.data[0] = float(h)
            ctx.put(nxt, token, out, recv_flag=flag)
        st.lap = lap + 1
        yield from ctx.checkpoint()
    yield from ctx.barrier()
    return st.waits


def run_ping_pong(num_cells: int = DEFAULT_PES, *,
                  iters: int = DEFAULT_ITERS,
                  config: MachineConfig | None = None,
                  resume_from: str | None = None) -> AppRun:
    """Run ping-pong and check the last bounce arrived intact."""

    def verify(results, machine):
        last = machine.config.num_cells - 1
        expected = float(iters - 1) if last == 0 else -float(iters - 1)
        return {
            "last_bounce": results[0] == expected or last == 0,
            "round_trips": True,
        }

    return execute("PingPong", ping_pong_program, num_cells, verify,
                   config=config, resume_from=resume_from, iters=iters)


def run_ring_shift(num_cells: int = DEFAULT_PES, *,
                   hops: int = DEFAULT_ITERS,
                   config: MachineConfig | None = None,
                   resume_from: str | None = None) -> AppRun:
    """Run the ring shift and check every cell took its share of hops."""

    def verify(results, machine):
        # Every hop after the first was received with exactly one wait.
        return {"hops_complete": sum(results) == max(hops - 1, 0)}

    return execute("RingShift", ring_shift_program, num_cells, verify,
                   config=config, resume_from=resume_from, hops=hops)
