"""Wake-set loop vs the resume-counting round-robin sweep.

The wake-set loop must be invisible in every output: recorded traces
(event streams, seq numbers, groups), application results, and
statistics all byte-identical to the loop that steps every cell every
round.  These tests pin that on a communication-heavy app and on the
blocking-chain microbenchmark the wake-set loop exists to accelerate,
on a perfect machine and under fault plans (wire faults and kills).
The resume-counting loop is the oracle in ``reference_loop.py``,
substituted for ``Machine._run_batched``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.apps.workloads import workload
from repro.core.errors import CommTimeoutError
from repro.faults.plan import FaultPlan, KillSpec, smoke_plans
from repro.faults.chaos import memory_digest, results_digest, trace_digest
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine

from .reference_loop import run_reference

CASES = {
    "RingShift": dict(num_cells=16, hops=64),
    "MatMul": dict(num_cells=9, n=27),
    "CG": dict(num_cells=4, n=40, outer=2, inner=3),
}


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("app", sorted(CASES))
    def test_traces_byte_identical(self, app, monkeypatch):
        batched = workload(app).runner(**CASES[app])
        monkeypatch.setattr(Machine, "_run_batched", run_reference)
        reference = workload(app).runner(**CASES[app])
        assert batched.verified and reference.verified
        a = [repr(ev) for ev in batched.trace.all_events()]
        b = [repr(ev) for ev in reference.trace.all_events()]
        assert a == b
        assert batched.statistics == reference.statistics


def outcome(app, plan):
    """Everything a faulted run leaves behind, digested."""
    run = workload(app).runner(config=MachineConfig(fault_plan=plan),
                               **CASES[app])
    tnet = run.machine.tnet
    return (run.verified, trace_digest(run.trace),
            results_digest(run.results), memory_digest(run.machine),
            list(tnet.schedule), tnet.stats.state())


@pytest.mark.parametrize("plan", smoke_plans(), ids=lambda p: p.name)
@pytest.mark.parametrize("app", sorted(CASES))
def test_fault_plans_match_the_oracle(app, plan, monkeypatch):
    wake_set = outcome(app, plan)
    monkeypatch.setattr(Machine, "_run_batched", run_reference)
    assert outcome(app, plan) == wake_set
    assert wake_set[0]


def collective_program(ctx):
    yield from ctx.barrier()
    total = yield from ctx.gop(float(ctx.pe), "sum")
    yield from ctx.barrier()
    return total


def kill_outcome(kill, degrade):
    plan = FaultPlan(name="kill", seed=1, degrade=degrade, kills=(kill,))
    machine = Machine(MachineConfig(num_cells=4, fault_plan=plan,
                                    memory_per_cell=1 << 21))
    try:
        out = machine.run(collective_program)
    except CommTimeoutError as err:
        out = str(err)
    return out, machine.killed, trace_digest(machine.trace)


@pytest.mark.parametrize("degrade", [True, False],
                         ids=["degrade", "timeout"])
@pytest.mark.parametrize("at_event", [0, 1, 2, 3, 4])
def test_kills_match_the_oracle(at_event, degrade, monkeypatch):
    """A kill at every row of a barrier / gop / barrier program: the
    same survivors, returns or timeout report, and trace."""
    kill = KillSpec(pe=2, at_event=at_event)
    wake_set = kill_outcome(kill, degrade)
    monkeypatch.setattr(Machine, "_run_batched", run_reference)
    assert kill_outcome(kill, degrade) == wake_set
    assert wake_set[1] == ({2} if at_event < 3 else set())


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


#: Names of the resume-counting loop and what only it could serve.
RETIRED = {"_run_reference", "_resumes", "_stalls", "_stall_remaining",
           "StallSpec", "watchdog_passes", "resume-counting"}


def test_engine_knobs_do_not_grow_back():
    """The engine follows from the run.  A new ``REPRO_*`` variable, a
    place that builds the scalar MLSim engine (the test oracle, see
    ``tests/mlsim/reference_engine.py``), a second scheduler loop on
    ``Machine`` or a name of the resume-counting one (the oracle in
    ``reference_loop.py``), or an import from ``tests`` is a new way to
    choose otherwise; it fails here, by file.  (The plan loader's table
    of retired keys may spell them, to refuse them by name.)"""
    src = Path(repro.__file__).parent
    env_names: dict[str, set[str]] = {}
    scalar_builders = set()
    imports_tests = set()
    retired: dict[str, set[str]] = {}
    run_loops = set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "arg", None))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            if name in RETIRED or (isinstance(node, ast.Constant)
                                   and node.value == "resume-counting"):
                retired.setdefault(name or node.value, set()).add(rel)
            if isinstance(node, ast.ClassDef) and node.name == "Machine":
                run_loops = {item.name for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and item.name.startswith("_run")}
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
    assert (env_names, scalar_builders, imports_tests, retired) == (
        {"REPRO_MACHINE_SHARDS": {"machine/config.py"}},
        set(), set(), {})
    assert run_loops == {"_run_batched"}
