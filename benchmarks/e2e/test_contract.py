"""The benchmark keeps its contract: `pytest benchmarks/e2e`.

Not part of tier-1 (`testpaths = tests`); run with `PYTHONPATH=src`
because `benchmarks/conftest.py` imports `repro`.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
from child import SPECS  # noqa: E402  (what the workloads really run)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args: str, script: Path = HERE / "run.py",
        ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=300)


def test_contract_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert len(CONTRACT["workloads"]) == 5
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in CONTRACT["end_to_end"])


def test_workload_reasons_name_the_sizes_that_run():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(SPECS)
    for workload in CONTRACT["workloads"]:
        spec = SPECS[workload["name"]]
        assert f"{spec.cells} cells" in workload["why"]
        sizes = [v for v in spec.params.values() if type(v) is int]
        if spec.loops > 1:
            sizes.append(f"{spec.loops} x")
        for size in sizes:
            assert re.search(rf"\b{size}\b", workload["why"]), (
                workload["name"], size)


def test_quick_run_prints_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    done = run("--quick", "--trace", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {w["name"] for w in CONTRACT["workloads"]}
    for name, result in doc["workloads"].items():
        assert result["checks"]["failed"] == 0, result["checks"]["failures"]
        for kind in ("end_to_end", "per_layer"):
            for metric in CONTRACT[kind]:
                assert metric["name"] in result[kind], (name, metric["name"])
                assert metric["name"] in done.stdout
                assert result[kind][metric["name"]]["unit"] == metric["unit"]
        for metric in CONTRACT["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["value"] > 0
        shares = sum(m["value"] for key, m in result["per_layer"].items()
                     if key.endswith(".self_share"))
        assert shares == pytest.approx(1.0, abs=0.01)
        assert not result["dropped"]
    # The sharded recording equals the serial one (a failed check if
    # not) and reports, on the one workload that is probed.
    probed = [name for name, result in doc["workloads"].items()
              if "machine.shard_wall_over_serial" in result["per_layer"]]
    assert probed == ["wide_machine"]
    assert doc["provenance"]["nproc"] >= 1


def test_one_workload_ends_with_the_result_line():
    done = run("--workload", "bulk_transfer", "--quick", "--seed", "3",
               "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def checkout(tmp_path: Path, *, with_source: bool) -> Path:
    """A copy of the benchmark's files, laid out as in the repository."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in ("run.py", "child.py", "expected.json"):
        shutil.copy(HERE / name, bench / name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_source:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return bench


def test_wrong_pin_is_a_failed_check_not_an_exception(tmp_path):
    bench = checkout(tmp_path, with_source=True)
    pins = json.loads((bench / "expected.json").read_text())
    pins["bulk_transfer"]["trace_digest"] = "0" * 64
    (bench / "expected.json").write_text(json.dumps(pins))
    done = run("--workload", "bulk_transfer", "--seed", "0", "--seconds",
               "1", script=bench / "run.py")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1
    assert "trace_digest" in done.stdout


def test_without_the_simulator_it_fails_and_prints_no_result(tmp_path):
    bench = checkout(tmp_path, with_source=False)
    done = run("--workload", "bulk_transfer", "--seed", "1", "--seconds",
               "1", "--trace", "0", script=bench / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_compare_is_direction_aware(tmp_path):
    def doc(wall: float, rate: float) -> dict:
        result = {"end_to_end": {
            m["name"]: {"value": 1.0} for m in CONTRACT["end_to_end"]},
            "checks": {"failed": 0}}
        result["end_to_end"]["wall_norm"]["value"] = wall
        result["end_to_end"]["events_per_s_norm"]["value"] = rate
        return {"workloads": {"sync_chain": result}}

    paths = {}
    for key, content in (("base", doc(1.0, 100.0)),
                         ("faster", doc(0.5, 200.0)),
                         ("slower", doc(1.5, 100.0)),
                         ("fewer", doc(1.0, 60.0))):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(content))
    assert run("--compare", str(paths["base"]),
               str(paths["faster"])).returncode == 0
    for worse in ("slower", "fewer"):
        done = run("--compare", str(paths["base"]), str(paths[worse]))
        assert done.returncode == 1
        assert "EXCEEDED" in done.stdout
    # A baseline of 0 has no share to take: reported, not divided by.
    paths["zero"] = tmp_path / "zero.json"
    paths["zero"].write_text(json.dumps(doc(0.0, 100.0)))
    done = run("--compare", str(paths["zero"]), str(paths["base"]))
    assert done.returncode == 1 and "missing or 0" in done.stdout


def test_a_budget_must_be_positive():
    done = run("--workload", "bulk_transfer", "--seconds", "0")
    assert done.returncode == 2 and "positive" in done.stderr
