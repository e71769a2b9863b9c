"""Parallel benchmark harness: run the (application x preset) grid,
cache functional traces, emit machine-readable ``BENCH_*.json``
artifacts, and compare them for regressions.

Typical use::

    from repro.bench.grid import bench_specs
    from repro.bench.runner import run_bench

    outcome = run_bench(bench_specs(), jobs=4, grid_name="bench")
    path = outcome.artifact.save("BENCH_now.json")
"""
