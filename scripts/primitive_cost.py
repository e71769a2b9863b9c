#!/usr/bin/env python
"""Host cost of the functional machine's primitives, by message size.

What one ``put`` / ``get`` / ``ack_get`` / satisfied ``flag_wait`` /
``barrier`` costs *the host* (microseconds of wall clock, minimum over
``--repeats`` batches of ``--batch`` operations, taken inside the cell
program so the scheduler and the machine build are outside the timed
region), in the manner of the per-primitive latency tables of the
OpenSHMEM-on-Epiphany paper.  The simulated cost of the same PUT on the
AP1000+ (Figure 7: sender CPU and time to the receive-flag update, over
``--distance`` hops) is printed in its own ``sim_us`` columns; the two
clock domains never share a column.  Under every ``host_us`` row a
``calls`` row gives the profiled calls, builtins included and counted
per code object as ``tests/machine/test_message_cost.py`` counts them,
that one more such operation makes: a count, exact on every host.
The ``batch`` row gives both per element of a ``transfer_batch`` of
64 one-element (8-byte) PUTs, and of GETs, in the ``put`` and ``get``
columns: what the VPP runtime pays per message without stride.  The
``halo`` row gives both per batch of one halo exchange as TOMCATV
without stride issues it at n = 65: 65 8-byte PUTs, each with its
acknowledging GET, and 65 GETs, interleaved.  ``--max-put-calls N``
exits 1 when the 8-byte ``put`` count exceeds N, and
``--max-batch-calls N`` when the ``halo`` count does (CI passes that
test's ``PUT_CALLS_CEILING`` and ``BATCH_CALLS_CEILING``).

    python scripts/primitive_cost.py [--json FILE] [--max-put-calls N]
        [--max-batch-calls N]

(``PYTHONPATH`` set to another checkout's ``src`` measures that commit.)
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (8, 4096, 160_000)
#: Payload sizes of the stride rows: one column of a two-column float64
#: matrix on both sides (8-byte items, 16 bytes apart), the canonical
#: stride of section 2.2.  8 bytes would be one item: no stride.
STRIDE_SIZES = SIZES[1:]
#: Elements of one batch of the ``batch`` row.
BATCH_ELEMENTS = 64
#: Mesh rows of the ``halo`` row's exchange: a PUT and a GET per row.
HALO_ROWS = 65


def keep_best(best: dict[str, float], name: str, start: float,
              batch: int) -> None:
    """Seconds per operation of the batch begun at ``start``, kept under
    ``name`` when it is the lowest so far."""
    each = (time.perf_counter() - start) / batch
    best[name] = min(best.get(name, each), each)


def stride_program(ctx, size: int, batch: int, repeats: int):
    """Cell 0 times batches of ``put_stride`` / ``get_stride`` against
    cell 1 (reported in the ``put`` and ``get`` columns)."""
    from repro.core.stride import column_of

    src = ctx.alloc((size // 8, 2))
    dst = ctx.alloc((size // 8, 2))
    flag = ctx.alloc_flag()
    offset, column = column_of(src.data, 1)
    best: dict[str, float] = {}
    if ctx.pe == 0:
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(batch):
                ctx.put_stride(1, dst, src, column, column,
                               dest_offset=offset, src_offset=offset)
            keep_best(best, "put", start, batch)
            start = time.perf_counter()
            for _ in range(batch):
                ctx.get_stride(1, src, dst, column, column,
                               remote_offset=offset, local_offset=offset,
                               recv_flag=flag)
            keep_best(best, "get", start, batch)
    yield from ctx.barrier()
    return best


def batch_program(ctx, batch: int, repeats: int):
    """Cell 0 times batches of ``transfer_batch`` runs of
    :data:`BATCH_ELEMENTS` 8-byte PUTs, then GETs, against cell 1
    (reported per element in the ``put`` and ``get`` columns)."""
    src = ctx.alloc(BATCH_ELEMENTS)
    dst = ctx.alloc(BATCH_ELEMENTS)
    flag = ctx.alloc_flag()
    offsets = np.arange(BATCH_ELEMENTS)
    best: dict[str, float] = {}
    if ctx.pe == 0:
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(batch):
                ctx.transfer_batch(1, dst, src, False, offsets, offsets)
            keep_best(best, "put", start, batch * BATCH_ELEMENTS)
            start = time.perf_counter()
            for _ in range(batch):
                ctx.transfer_batch(1, src, dst, True, offsets, offsets,
                                   recv_flag=flag)
            keep_best(best, "get", start, batch * BATCH_ELEMENTS)
    yield from ctx.barrier()
    return best


def halo_arrays(ctx):
    """The arguments of one halo exchange toward cell 1, as
    ``tests/machine/test_message_cost.py``'s ``halo_burst`` issues it:
    each row's last owned column PUT into the neighbour's left halo
    column, acknowledged at once, then its first owned column fetched
    into this cell's right halo column; and the receive flag."""
    cols = 4
    block = ctx.alloc((HALO_ROWS, cols))
    flag = ctx.alloc_flag()
    halo = np.arange(HALO_ROWS) * cols
    gets = np.tile([False, True], HALO_ROWS)
    remote = np.column_stack((halo, halo + 1)).ravel()
    local = np.column_stack((halo + cols - 2, halo + cols - 1)).ravel()
    return (block, block, gets, remote, local), flag


def halo_program(ctx, batch: int, repeats: int):
    """Cell 0 times batches of halo exchanges against cell 1 (reported
    per exchange)."""
    arrays, flag = halo_arrays(ctx)
    best: dict[str, float] = {}
    if ctx.pe == 0:
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(batch):
                ctx.transfer_batch(1, *arrays, recv_flag=flag, ack=True)
            keep_best(best, "halo", start, batch)
    yield from ctx.barrier()
    return best


def counted_halo(ctx, count: int):
    """``count`` halo exchanges, as :func:`halo_program` issues them."""
    arrays, flag = halo_arrays(ctx)
    if ctx.pe == 0:
        for _ in range(count):
            ctx.transfer_batch(1, *arrays, recv_flag=flag, ack=True)
    yield from ctx.barrier()


def program(ctx, size: int, batch: int, repeats: int):
    """Cell 0 times batches of each primitive against cell 1; the other
    cells only take part in the barriers."""
    src = ctx.alloc(size, np.uint8)
    dst = ctx.alloc(size, np.uint8)
    flag = ctx.alloc_flag()
    peer = 1
    best: dict[str, float] = {}

    def timed(name: str, start: float) -> None:
        keep_best(best, name, start, batch)

    for _ in range(repeats):
        if ctx.pe == 0:
            start = time.perf_counter()
            for _ in range(batch):
                ctx.put(peer, dst, src)
            timed("put", start)
            start = time.perf_counter()
            for _ in range(batch):
                ctx.get(peer, src, dst, recv_flag=flag)
            timed("get", start)
            start = time.perf_counter()
            for _ in range(batch):
                ctx.ack_get(peer)
            timed("ack_get", start)
            # Every GET reply has landed (the pump runs to quiescence at
            # issue), so these waits are already satisfied: the cost of
            # the check, not of blocking.
            target = ctx.flag_read(flag)
            start = time.perf_counter()
            for _ in range(batch):
                yield from ctx.flag_wait(flag, target)
            timed("flag_wait", start)
        start = time.perf_counter()
        for _ in range(batch):
            yield from ctx.barrier()
        timed("barrier", start)
    return best


def counted_program(ctx, size: int, name: str, count: int):
    """``count`` operations of the primitive ``name``, as :func:`program`
    issues them."""
    src = ctx.alloc(size, np.uint8)
    dst = ctx.alloc(size, np.uint8)
    flag = ctx.alloc_flag()
    if name == "barrier":
        for _ in range(count):
            yield from ctx.barrier()
    elif ctx.pe == 0:
        ctx.get(1, src, dst, recv_flag=flag)
        for _ in range(count):
            if name == "put":
                ctx.put(1, dst, src)
            elif name == "get":
                ctx.get(1, src, dst, recv_flag=flag)
            elif name == "ack_get":
                ctx.ack_get(1)
            else:
                yield from ctx.flag_wait(flag, 1)
    yield from ctx.barrier()


def counted_batch(ctx, name: str, count: int):
    """``count`` batches of ``name`` ("put" or "get"), as
    :func:`batch_program` issues them."""
    src = ctx.alloc(BATCH_ELEMENTS)
    dst = ctx.alloc(BATCH_ELEMENTS)
    flag = ctx.alloc_flag()
    offsets = np.arange(BATCH_ELEMENTS)
    if ctx.pe == 0:
        for _ in range(count):
            if name == "put":
                ctx.transfer_batch(1, dst, src, False, offsets, offsets)
            else:
                ctx.transfer_batch(1, src, dst, True, offsets, offsets,
                                   recv_flag=flag)
    yield from ctx.barrier()


def calls_per_operation(cells: int, program, *args, per: int = 1) -> float:
    """Profiled calls that one more operation of ``program(ctx, *args,
    count)`` costs, divided by the ``per`` messages it sends: the
    difference of two runs, so machine build and set-up drop out."""
    from repro import Machine, MachineConfig

    def total(count: int) -> int:
        machine = Machine(MachineConfig(num_cells=cells))
        profile = cProfile.Profile()
        profile.runcall(machine.run, program, *args, count)
        return sum(entry.callcount for entry in profile.getstats())

    return (total(48) - total(16)) / (32 * per)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", type=int, default=4)
    parser.add_argument("--batch", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--distance", type=int, default=4,
                        help="hops of the simulated Figure 7 PUT")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the table as JSON to FILE")
    parser.add_argument("--max-put-calls", type=float, metavar="N",
                        help="exit 1 if one more 8-byte put costs more "
                        "than N profiled calls")
    parser.add_argument("--max-batch-calls", type=float, metavar="N",
                        help="exit 1 if one more halo exchange costs more "
                        "than N profiled calls")
    args = parser.parse_args()

    if importlib.util.find_spec("repro") is None:
        # Not installed and no PYTHONPATH provides it: this checkout's.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro import Machine, MachineConfig
    from repro.mlsim.params import preset
    from repro.mlsim.put_model import put_timeline

    plus = preset("ap1000+")
    names = ("put", "get", "ack_get", "flag_wait", "barrier")
    print(f"{args.cells} cells, min of {args.repeats} batches of "
          f"{args.batch}; host_us = host wall clock per operation, "
          f"sim_us = simulated AP1000+ PUT (Figure 7, {args.distance} hops); "
          "'st' rows: put_stride / get_stride of 8-byte items 16 apart; "
          f"'batch': per element of a {BATCH_ELEMENTS}-element "
          f"transfer_batch; 'halo': per exchange of {HALO_ROWS} PUT/GET "
          "pairs with inline acks, one transfer_batch")
    print(f"{'bytes':>10} " + " ".join(f"{n + ' host_us':>17}" for n in names)
          + f" {'put send_cpu sim_us':>20} {'put recv_flag sim_us':>21}")
    # The process's first machine reads about 1 us high in every column
    # (flag_wait and barrier included, which run no size-dependent
    # code), so it is not one of the rows.
    Machine(MachineConfig(num_cells=args.cells)).run(
        program, SIZES[0], args.batch, max(1, args.repeats // 5))
    rows = []
    for size in SIZES:
        machine = Machine(MachineConfig(num_cells=args.cells))
        best = machine.run(program, size, args.batch, args.repeats)[0]
        line = put_timeline(plus, size, args.distance)
        calls = {n: calls_per_operation(args.cells, counted_program, size, n)
                 for n in names}
        print(f"{size:>10} "
              + " ".join(f"{best[n] * 1e6:>17.2f}" for n in names)
              + f" {line.send_cpu:>20.2f} {line.recv_flag_at:>21.2f}")
        print(f"{'calls':>10} "
              + " ".join(f"{calls[n]:>17.1f}" for n in names))
        rows.append({
            "bytes": size,
            "host_us": {n: round(best[n] * 1e6, 3) for n in names},
            "calls": calls,
            "sim_us": {"put_send_cpu": line.send_cpu,
                       "put_recv_flag": line.recv_flag_at}})
    # The strided DMA path (one gather, one scatter per transfer), at
    # a tenth of the batches: its 160 000-byte row moves 20 000 items.
    for size in STRIDE_SIZES:
        machine = Machine(MachineConfig(num_cells=args.cells))
        best = machine.run(stride_program, size, args.batch,
                           max(1, args.repeats // 10))[0]
        print(f"{str(size) + ' st':>10} "
              + " ".join(f"{best[n] * 1e6:>17.2f}" if n in best
                         else f"{'-':>17}" for n in names))
        rows.append({
            "bytes": size, "stride": True,
            "host_us": {n: round(v * 1e6, 3) for n, v in best.items()}})
    # One-element transfers issued as batches, per element; the arrays
    # are float64, so the size is 8.
    machine = Machine(MachineConfig(num_cells=args.cells))
    best = machine.run(batch_program, args.batch,
                       max(1, args.repeats // 10))[0]
    calls = {n: calls_per_operation(args.cells, counted_batch, n,
                                    per=BATCH_ELEMENTS) for n in best}
    print(f"{'8 batch':>10} "
          + " ".join(f"{best[n] * 1e6:>17.2f}" if n in best
                     else f"{'-':>17}" for n in names))
    print(f"{'calls':>10} "
          + " ".join(f"{calls[n]:>17.1f}" if n in calls
                     else f"{'-':>17}" for n in names))
    rows.append({
        "bytes": 8, "batch": BATCH_ELEMENTS,
        "host_us": {n: round(v * 1e6, 3) for n, v in best.items()},
        "calls": calls})
    # One halo exchange per batch: its host time and calls.
    machine = Machine(MachineConfig(num_cells=args.cells))
    halo = machine.run(halo_program, args.batch,
                       max(1, args.repeats // 10))[0]["halo"]
    halo_calls = calls_per_operation(args.cells, counted_halo)
    print(f"{'halo':>10} {halo * 1e6:>17.2f}")
    print(f"{'calls':>10} {halo_calls:>17.1f}")
    rows.append({"halo": HALO_ROWS, "host_us": round(halo * 1e6, 3),
                 "calls": halo_calls})
    if args.json:
        document = {"cells": args.cells, "batch": args.batch,
                    "repeats": args.repeats, "distance": args.distance,
                    "rows": rows}
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(document, out, indent=2)
            out.write("\n")
    put_calls = rows[0]["calls"]["put"]
    if args.max_put_calls is not None and put_calls > args.max_put_calls:
        print(f"FAIL: an 8-byte put costs {put_calls:.1f} calls, more "
              f"than the ceiling of {args.max_put_calls:g}")
        return 1
    if args.max_batch_calls is not None and halo_calls > args.max_batch_calls:
        print(f"FAIL: a halo exchange costs {halo_calls:.1f} calls, more "
              f"than the ceiling of {args.max_batch_calls:g}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
