"""A run is configured by its ``MachineConfig`` alone.

Every run setting reaches a machine as a config field, through
``workload(...).run(config=...)``.  No module keeps an ambient switch
(the trace stream sink aside: it holds an open file its caller must
close) and nothing writes the process environment, so a recording, and
a snapshot taken during one, is reproducible from the config it states.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.apps.workloads import workload
from repro.check.runner import trace_is_annotated
from repro.ckpt.snapshot import config_document, load_snapshot
from repro.core.errors import CheckpointInterrupt, TraceBufferOverflowError
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig

SRC = Path(repro.__file__).parent

PLAN = FaultPlan(name="drop", seed=3, drop_rate=0.05)

#: Environment mutators: ``os.environ.<name>(...)`` and ``os.<name>``.
_ENV_METHODS = {"update", "pop", "popitem", "setdefault", "clear"}
_ENV_CALLS = {"putenv", "unsetenv"}


def _is_environ(node: ast.AST) -> bool:
    return getattr(node, "attr", None) == "environ" or (
        getattr(node, "id", None) == "environ")


def test_no_ambient_switch_and_no_environment_write():
    context_vars: set[str] = set()
    env_writes: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "ContextVar" in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None)):
                context_vars.add(rel)
            writes = (
                isinstance(node, ast.Subscript) and _is_environ(node.value)
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and ((node.func.attr in _ENV_METHODS
                      and _is_environ(node.func.value))
                     or node.func.attr in _ENV_CALLS))
            if writes:
                env_writes.add(rel)
    assert context_vars == {"trace/buffer.py"}
    assert env_writes == set()


def _run(**settings):
    return workload("MatMul").run(num_cells=4, n=16,
                                  config=MachineConfig(**settings))


@pytest.fixture(scope="module")
def default_run():
    return _run()


#: setting -> (config fields, given a scratch directory; what the run
#: shows of it, given the run and the directory).
VISIBLE = {
    "sanitize": (lambda tmp: {"sanitize": True},
                 lambda run, tmp: trace_is_annotated(run.trace)),
    "observe": (lambda tmp: {"observe": True},
                lambda run, tmp: run.machine.obs is not None),
    "fault_plan": (lambda tmp: {"fault_plan": PLAN},
                   lambda run, tmp: type(run.machine.tnet).__name__
                   == "FaultyTNet"),
    "checkpoint_every+dir": (
        lambda tmp: {"checkpoint_every": 1, "checkpoint_dir": str(tmp)},
        lambda run, tmp: run.machine.ckpt_seq > 1 and len(
            list(tmp.glob("ckpt_*"))) == run.machine.ckpt_seq),
}


@pytest.mark.parametrize("setting", sorted(VISIBLE))
def test_setting_reaches_the_machine(setting, default_run, tmp_path):
    fields, shows = VISIBLE[setting]
    assert shows(_run(**fields(tmp_path)), tmp_path)
    assert not shows(default_run, tmp_path)


@pytest.mark.parametrize(("fields", "raised"), [
    ({"trace_capacity": 5}, TraceBufferOverflowError),
    ({"checkpoint_at_site": 1, "stop_after_checkpoint": True},
     CheckpointInterrupt),
], ids=["trace_capacity", "at_site+stop"])
def test_setting_stops_the_run(fields, raised):
    with pytest.raises(raised):
        _run(**fields)


def test_snapshot_header_is_the_config_it_was_given(tmp_path):
    config = MachineConfig(num_cells=4, sanitize=True, fault_plan=PLAN,
                           trace_capacity=54321, checkpoint_every=1,
                           checkpoint_dir=str(tmp_path))
    workload("MatMul").run(num_cells=4, n=16, config=config)
    header = load_snapshot(tmp_path).header
    assert header["config"] == json.loads(json.dumps(
        config_document(config)))
