"""Start-up loads only what a run uses.

Every test here runs a fresh interpreter: ``sys.modules`` of the test
process has seen every layer long ago.  The unit of work is the one a
benchmark child times (``benchmarks/e2e/child.py``): record, cache put
and get, decode, replay under the three presets.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules a perfect machine's record -> cache -> replay never needs: the
#: process pools of the grid runner and the sharded engine, the bench
#: artifact schema, checkpoint capture, the fault layer, the checker,
#: foreign-trace ingest, the report generator and the Perfetto export.
NOT_ON_THE_UNIT_PATH = (
    "multiprocessing", "concurrent.futures", "subprocess", "socket",
    "logging", "repro.bench.runner", "repro.bench.schema",
    "repro.ckpt.snapshot", "repro.faults.injector",
    "repro.faults.transport", "repro.check", "repro.ingest",
    "repro.analysis", "repro.obs.export",
)

#: The benchmark child's imports, as it makes them.
CHILD_IMPORTS = """
import numpy
from repro.apps.workloads import workload
from repro.bench.cache import TraceCache, load_cached_columns
from repro.faults.chaos import memory_digest, trace_digest
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import preset
from repro.trace.io import load_trace, save_columns_npz, save_trace_v2
"""

UNIT = CHILD_IMPORTS + """
import json, sys, tempfile
from pathlib import Path

def loaded(names):
    return [name for name in names if name in sys.modules]

config = {"num_cells": 8, "hops": 16}
with tempfile.TemporaryDirectory() as scratch:
    cache = TraceCache(Path(scratch))
    run = workload("RingShift").runner(**config)
    digests = trace_digest(run.trace), memory_digest(run.machine)
    cache.put("RingShift", config, run, 0.0)
    columns = load_cached_columns(cache.get("RingShift", config).trace_path)
    for name in ("ap1000", "ap1000-fast", "ap1000+"):
        replay_columns(columns, preset(name), collect_metrics=True)
unit = loaded(NAMES)

from repro.faults.plan import applied, smoke_plans
with applied(smoke_plans()[0]):
    workload("RingShift").runner(**config)
print(json.dumps({"unit": unit, "faulted": loaded(NAMES)}))
"""

#: Imports every module under ``src/repro`` alone: ``repro.*`` is purged
#: from ``sys.modules`` before each, so no earlier import hides a cycle
#: or a missing import.
EACH_ALONE = """
import importlib, json, sys
failed = {}
for name in MODULES:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(failed))
"""


def _python(pycache: Path, source: str, **names: object) -> object:
    """Run ``source`` in a fresh interpreter with ``names`` bound; the
    JSON it prints last.  Bytecode is cached under ``pycache``, so a
    module re-imported costs its execution, not its compilation."""
    prelude = "".join(f"{key} = {value!r}\n" for key, value in names.items())
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(pycache))
    done = subprocess.run([sys.executable, "-c", prelude + source],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _modules() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_unit_loads_no_layer_it_does_not_use(tmp_path):
    seen = _python(tmp_path, UNIT, NAMES=NOT_ON_THE_UNIT_PATH)
    assert seen["unit"] == []
    # A plan loads the fault layer where it is needed, and only then.
    assert {"repro.faults.injector", "repro.faults.transport"} <= set(
        seen["faulted"])


def test_cli_import_is_light(tmp_path):
    loaded = _python(
        tmp_path, "import json, sys\nimport repro.cli\n"
        "print(json.dumps([n for n in NAMES if n in sys.modules]))",
        NAMES=NOT_ON_THE_UNIT_PATH)
    assert loaded == []


def test_every_module_imports_on_its_own(tmp_path):
    modules = _modules()
    assert "repro.cli" in modules and "repro.machine.machine" in modules
    assert _python(tmp_path, EACH_ALONE, MODULES=modules) == {}
