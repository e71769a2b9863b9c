#!/usr/bin/env python3
"""The paper's evaluation pipeline on one NAS kernel.

Runs CG — the paper's worst case — at a reduced size through the full
methodology: functional execution with numerical verification, trace
collection, MLSim replay under the three machine models, and the
Table 2 / Table 3 / Figure 8 outputs for this single application.

Run:  python examples/nas_breakdown.py          (about ten seconds)
      python examples/nas_breakdown.py --paper  (paper-scale CG)
"""

import sys

from repro.apps import cg
from repro.mlsim.simulator import simulate_models
from repro.trace.stats import format_table3_row

SEGMENTS = ("execution", "rtsys", "overhead", "idle")


def main() -> None:
    paper_scale = "--paper" in sys.argv
    if paper_scale:
        run = cg.run(num_cells=16, n=1400, outer=15, inner=25)
    else:
        run = cg.run(num_cells=8, n=420, outer=4, inner=10)

    print(f"CG functional run: verified={run.verified}")
    for name, value in run.checks.items():
        print(f"  {name}: {value}")
    zeta, residual = run.results[0]
    print(f"  eigenvalue estimate zeta = {zeta:.10f}, "
          f"final residual = {residual:.2e}")

    print("\nTable 3 row (per-PE operation counts):")
    print(format_table3_row("CG", run.statistics))

    print("\nMLSim replay:")
    cmp = simulate_models(run.trace)
    plus, fast = cmp.table2_row()
    print(f"  Table 2 speedups vs AP1000: AP1000+ {plus:.2f}, "
          f"software model {fast:.2f}   (paper: 4.78, 3.42)")

    print("\nFigure 8 bars (percent of the AP1000+ total):")
    for model, bar in cmp.figure8_bars().items():
        segments = "  ".join(f"{s}={bar[s]:6.1f}" for s in SEGMENTS)
        print(f"  {model:18s} total={bar['total']:7.1f}   {segments}")

    print("\n'CG is the worst case improvement and has high overhead, "
          "because large vector\n global summations dominate in its "
          "execution.'  (section 5.4)")


if __name__ == "__main__":
    main()
