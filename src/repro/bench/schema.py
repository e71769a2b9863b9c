"""Machine-readable benchmark artifact (``BENCH_<timestamp>.json``).

One artifact captures a whole sweep: per-application simulated metrics
under every parameter preset (the Table 2 / Figure 8 numbers), Table 3
trace statistics, functional-verification outcomes, real wall-clock
timings per stage, and environment metadata.

The artifact splits into a deterministic half and a measured half:

* ``results`` — simulated metrics only.  These depend on the trace and
  the parameter file, never on the host, so serial and parallel runs of
  the same grid produce *byte-identical* ``results`` sections
  (:func:`results_bytes` canonicalizes them for comparison).
* ``run`` / ``timings`` / ``environment`` — wall-clock measurements and
  provenance, different on every run.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.core.errors import ConfigurationError
from repro.mlsim.breakdown import MLSimResult

SCHEMA_NAME = "repro-bench-v1"


def _validate_check_schema(app: str, check: dict[str, Any] | None) -> None:
    """Refuse embedded check reports from an unknown (future) format.

    A ``results[].check`` block whose ``schema`` this code base does not
    recognize must fail loudly — silently comparing reports whose fields
    may have changed meaning would let regressions through.  Blocks with
    no ``schema`` at all predate versioning and are accepted as legacy.
    """
    if check is None:
        return
    # Deferred import: repro.check imports repro.bench at package init.
    from repro.check.diagnostics import KNOWN_CHECK_SCHEMAS

    blocks = [("check", check)]
    static = check.get("static")
    if isinstance(static, dict):
        blocks.append(("check.static", static))
    for label, block in blocks:
        version = block.get("schema")
        if version is None:
            continue
        if version not in KNOWN_CHECK_SCHEMAS:
            raise ConfigurationError(
                f"results[{app!r}].{label} carries unknown schema "
                f"{version!r}; this code understands "
                f"{sorted(KNOWN_CHECK_SCHEMAS)} — refusing to guess at "
                f"its field semantics"
            )


def _validate_metrics_schema(
        app: str, metrics: dict[str, Any] | None) -> None:
    """Refuse embedded observability documents from an unknown format.

    Mirrors :func:`_validate_check_schema` for the ``results[].metrics``
    block: the ``machine`` telemetry harvest and each per-preset
    ``replay`` document carry a ``schema`` stamp
    (``repro-obs-machine-v1`` / ``repro-obs-replay-v1``); an
    unrecognized stamp fails loudly at artifact load so ``repro bench
    compare`` never diffs fields it cannot interpret.  Blocks without a
    stamp predate versioning and pass as legacy.
    """
    if metrics is None:
        return
    from repro.obs.registry import KNOWN_OBS_SCHEMAS

    blocks: list[tuple[str, Any]] = [
        ("metrics.machine", metrics.get("machine"))]
    replay = metrics.get("replay")
    if isinstance(replay, dict):
        blocks.extend((f"metrics.replay[{preset!r}]", doc)
                      for preset, doc in replay.items())
    for label, block in blocks:
        if not isinstance(block, dict):
            continue
        version = block.get("schema")
        if version is None:
            continue
        if version not in KNOWN_OBS_SCHEMAS:
            raise ConfigurationError(
                f"results[{app!r}].{label} carries unknown schema "
                f"{version!r}; this code understands "
                f"{sorted(KNOWN_OBS_SCHEMAS)} — refusing to guess at "
                f"its field semantics"
            )


@dataclass(frozen=True)
class PresetMetrics:
    """Simulated metrics of one (application, preset) replay."""

    elapsed_us: float
    mean_execution_us: float
    mean_rtsys_us: float
    mean_overhead_us: float
    mean_idle_us: float
    messages: int
    bytes_on_wire: int

    @classmethod
    def from_result(cls, result: MLSimResult) -> "PresetMetrics":
        return cls(
            elapsed_us=result.elapsed_us,
            mean_execution_us=result.mean_execution,
            mean_rtsys_us=result.mean_rtsys,
            mean_overhead_us=result.mean_overhead,
            mean_idle_us=result.mean_idle,
            messages=result.messages,
            bytes_on_wire=result.bytes_on_wire,
        )


@dataclass(frozen=True)
class AppResult:
    """Deterministic outcome of one application row of the grid."""

    app: str
    config: dict[str, Any]
    verified: bool
    checks: dict[str, Any]
    statistics: dict[str, Any]
    total_events: int
    presets: dict[str, PresetMetrics]
    #: Table 2 numbers: ``ap1000.elapsed / preset.elapsed`` for every
    #: replayed preset (present only when "ap1000" is in the grid).
    speedups_vs_ap1000: dict[str, float] = field(default_factory=dict)
    #: ``repro.check`` report over this row's trace (``--check`` runs
    #: only); deterministic, so it lives in the results section.
    check: dict[str, Any] | None = None
    #: Observability block (repro.obs): ``machine`` holds the functional
    #: machine's telemetry harvest, ``replay`` one replay metric document
    #: per preset.  Deterministic, so it gates in ``repro bench compare``.
    metrics: dict[str, Any] | None = None


def app_result_from_dict(name: str, a: dict[str, Any]) -> AppResult:
    """Rehydrate one artifact ``results`` row, validating any embedded
    check block."""
    _validate_check_schema(name, a.get("check"))
    _validate_metrics_schema(name, a.get("metrics"))
    return AppResult(
        app=a["app"],
        config=a["config"],
        verified=a["verified"],
        checks=a["checks"],
        statistics=a["statistics"],
        total_events=a["total_events"],
        presets={
            p: PresetMetrics(**m) for p, m in a["presets"].items()
        },
        speedups_vs_ap1000=a.get("speedups_vs_ap1000", {}),
        check=a.get("check"),
        metrics=a.get("metrics"),
    )


@dataclass(frozen=True)
class AppTimings:
    """Real wall-clock cost of one application row."""

    functional_s: float
    cache_hit: bool
    replay_s: dict[str, float]


@dataclass
class BenchArtifact:
    """Everything one ``repro bench run`` produced."""

    grid: str
    preset_names: list[str]
    app_order: list[str]
    apps: dict[str, AppResult]
    timings: dict[str, AppTimings]
    environment: dict[str, Any]
    run: dict[str, Any]
    created_utc: str = ""
    schema: str = SCHEMA_NAME

    def __post_init__(self) -> None:
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat()

    @property
    def all_verified(self) -> bool:
        return all(a.verified for a in self.apps.values())

    def results(self) -> dict[str, Any]:
        """The deterministic section (simulated metrics only)."""
        return {
            "preset_names": list(self.preset_names),
            "app_order": list(self.app_order),
            "apps": {name: asdict(a) for name, a in self.apps.items()},
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "created_utc": self.created_utc,
            "grid": self.grid,
            "environment": self.environment,
            "run": self.run,
            "results": self.results(),
            "timings": {name: asdict(t) for name, t in self.timings.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchArtifact":
        if data.get("schema") != SCHEMA_NAME:
            raise ConfigurationError(
                f"unrecognized benchmark artifact schema "
                f"{data.get('schema')!r} (expected {SCHEMA_NAME!r})"
            )
        results = data["results"]
        apps = {
            name: app_result_from_dict(name, a)
            for name, a in results["apps"].items()
        }
        timings = {
            name: AppTimings(**t)
            for name, t in data.get("timings", {}).items()
        }
        return cls(
            grid=data["grid"],
            preset_names=list(results["preset_names"]),
            app_order=list(results["app_order"]),
            apps=apps,
            timings=timings,
            environment=data.get("environment", {}),
            run=data.get("run", {}),
            created_utc=data.get("created_utc", ""),
        )

    def save(self, path: str | Path) -> Path:
        """Write the artifact atomically (temp file + ``os.replace``) so
        a run killed mid-save never leaves a torn ``BENCH_*.json``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            self.to_dict(), indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BenchArtifact":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def results_bytes(artifact: BenchArtifact) -> bytes:
    """Canonical encoding of the deterministic section.

    Serial and parallel runs of the same grid at the same code version
    must produce identical bytes here — the runner's contract.
    """
    return json.dumps(artifact.results(), sort_keys=True).encode()


def artifact_filename(now: datetime | None = None) -> str:
    """``BENCH_<UTC timestamp>.json``."""
    now = now or datetime.now(timezone.utc)
    return f"BENCH_{now.strftime('%Y%m%dT%H%M%SZ')}.json"
