#!/usr/bin/env python3
"""List 1, executed: the VPP Fortran directive front-end.

Parses the paper's List 1 verbatim and runs it on the machine — once in
the contiguous form ``A(J)=B(J,K)`` and once in the stride form
``A(J)=B(K,J)`` that section 2.2 singles out ("stride data transfer is
required because local array A is continuous, but global array B is
stride").

Run:  python examples/vpp_directives.py
"""

import numpy as np

from repro import Machine, MachineConfig
from repro.lang.directives import execute_fragment, parse_fragment
from repro.lang.runtime import VPPRuntime
from repro.trace.events import EventKind

CELLS = 8
M = 33
K = 5

LIST1 = """
!XOCL SPREAD MOVE
      DO 200 J=1,M
        A(J)={SRC}
200   CONTINUE
!XOCL END SPREAD (X)
!XOCL MOVEWAIT (X)
"""


def program(ctx, source, use_stride=True):
    rt = VPPRuntime(ctx, use_stride=use_stride)
    # Fortran B(M, M) held transposed (Fortran is column-major).
    b = rt.global_array((M, M), dist_axis=0)
    for g in range(b.lo, b.hi):
        b.block.data[b.to_local(g), :M] = 1000 * g + np.arange(M)
    yield from ctx.barrier()
    a = ctx.alloc(M)
    fragment = parse_fragment(source)
    yield from execute_fragment(rt, fragment, arrays={"A": a, "B": b},
                                scalars={"M": M, "K": K})
    return a.data[:M].copy()


def run(form: str, use_stride: bool = True):
    machine = Machine(MachineConfig(num_cells=CELLS))
    source = LIST1.replace("{SRC}", form)
    results = machine.run(program, source, use_stride=use_stride)
    gets = machine.trace.count(EventKind.GET)
    stride_gets = sum(
        1 for pe in range(CELLS) for ev in machine.trace.events_for(pe)
        if ev.kind is EventKind.GET and ev.stride)
    return results[0], gets, stride_gets


def main() -> None:
    print("List 1 (paper, section 2.1):")
    print(LIST1.replace("{SRC}", "B(J,K)"))

    contiguous, gets_c, stride_c = run("B(J,K)")
    expected = 1000 * (K - 1) + np.arange(M)
    print(f"A(J)=B(J,K):  A == Fortran column K of B: "
          f"{np.array_equal(contiguous, expected)};  "
          f"{gets_c} GETs ({stride_c} strided)")

    strided, gets_s, stride_s = run("B(K,J)")
    expected = 1000 * np.arange(M) + (K - 1)
    print(f"A(J)=B(K,J):  A == Fortran row K of B:    "
          f"{np.array_equal(strided, expected)};  "
          f"{gets_s} GETs ({stride_s} strided)")

    _, gets_n, _ = run("B(K,J)", use_stride=False)
    print(f"A(J)=B(K,J) without stride hardware:      "
          f"{gets_n} GETs of 8 bytes each "
          f"({gets_n // max(gets_s, 1)}x the messages)")


if __name__ == "__main__":
    main()
