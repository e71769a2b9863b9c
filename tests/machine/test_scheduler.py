"""Wake-set loop vs the resume-counting round-robin sweep.

The wake-set loop must be invisible in every output: recorded traces
(event streams, seq numbers, groups), application results, and
statistics all byte-identical to the loop that steps every cell every
round.  These tests pin that on a communication-heavy app and on the
blocking-chain microbenchmark the wake-set loop exists to accelerate.
No option runs the resume-counting loop on a fault-free input, so the
oracle side substitutes it for ``Machine._run_batched``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.apps.workloads import workload
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine

CASES = {
    "RingShift": dict(num_cells=16, hops=64),
    "MatMul": dict(num_cells=9, n=27),
    "CG": dict(num_cells=4, n=40, outer=2, inner=3),
}


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("app", sorted(CASES))
    def test_traces_byte_identical(self, app, monkeypatch):
        batched = workload(app).runner(**CASES[app])
        monkeypatch.setattr(Machine, "_run_batched",
                            Machine._run_reference)
        reference = workload(app).runner(**CASES[app])
        assert batched.verified and reference.verified
        a = [repr(ev) for ev in batched.trace.all_events()]
        b = [repr(ev) for ev in reference.trace.all_events()]
        assert a == b
        assert batched.statistics == reference.statistics


class TestConfig:
    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv("REPRO_MACHINE_SHARDS", raising=False)
        machine = Machine(MachineConfig(num_cells=2))
        assert machine.config.shards == 1
        machine.run(lambda ctx: ctx.pe)
        assert machine.engine == {"loop": "wake-set", "fallback": None}

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE_SHARDS", "2")
        assert MachineConfig(num_cells=4).shards == 2
        assert MachineConfig(num_cells=4, shards=1).shards == 1

    def test_unknown_scheduler_rejected(self):
        # The engine is not a field: asking for one is a TypeError like
        # any unknown keyword, so nothing can disagree with ``shards``.
        with pytest.raises(TypeError, match="scheduler"):
            MachineConfig(num_cells=2, scheduler="batched")


def test_engine_knobs_do_not_grow_back():
    """The engine follows from the run.  A new ``REPRO_*`` variable, a
    place that builds the scalar MLSim engine (the test oracle, see
    ``tests/mlsim/reference_engine.py``), or an import from ``tests``
    is a new way to choose otherwise; it fails here, by file."""
    src = Path(repro.__file__).parent
    env_names: dict[str, set[str]] = {}
    scalar_builders = set()
    imports_tests = set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("REPRO_")
                    and node.value.isupper()):
                env_names.setdefault(node.value, set()).add(rel)
            elif isinstance(node, ast.Call) and "MLSimEngine" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                scalar_builders.add(rel)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names]
                           if isinstance(node, ast.Import)
                           else [node.module or ""])
                if any(m.split(".")[0] == "tests" for m in modules):
                    imports_tests.add(rel)
    assert (env_names, scalar_builders, imports_tests) == (
        {"REPRO_MACHINE_SHARDS": {"cli.py", "machine/config.py"},
         "REPRO_BENCH_ABORT_AFTER": {"bench/runner.py"}},
        set(), set())
