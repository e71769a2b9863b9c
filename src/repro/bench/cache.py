"""On-disk cache of functional-run traces.

A functional run is the expensive half of the paper's methodology
(minutes of pure-Python SPMD simulation); the MLSim replay is cheap.
The cache stores each recorded trace once, keyed by a content hash of
``(app, config, code version)``, so a sweep re-run — or a replay under a
new parameter file — skips the functional stage entirely.  The code
version is a digest of every ``repro`` source file, so any change to the
simulator, runtime, or applications invalidates every entry.

Layout: ``<root>/<key>/meta.json`` (provenance, verification checks,
Table 3 statistics) plus ``<root>/<key>/trace.jsonl`` (the recorded
trace in the ``repro.trace.io`` v2 format: a JSON header line and the
column block the replay stage maps as it is; entries in the older
encodings still load via format sniffing).  Two files, nothing beside
them.

Crash safety: entries are staged in a temporary directory inside the
cache root and published with one ``os.replace``, so a run killed
mid-write never leaves a half-entry behind a valid key.  ``get``
additionally loads what it is about to serve (parseable meta, and the
trace through every check of :func:`repro.trace.io.load_trace`: torn,
short or mis-sized block, columns that disagree with the header) and
moves anything corrupt — e.g. written by a pre-atomic cache and then
killed — into ``<root>/.quarantine/<key>`` with the loader's message,
instead of serving it, so the sweep falls back to a fresh functional
run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Any

import repro
from repro.obs.observer import machine_metrics
from repro.trace.buffer import TraceBuffer
from repro.core.errors import ReproError
from repro.trace.io import load_trace, load_trace_columns, save_trace
from repro.trace.stats import AppStatistics

META_NAME = "meta.json"
TRACE_NAME = "trace.jsonl"
#: Corrupt entries are moved here (under their original key) rather
#: than deleted, so a damaged cache can still be inspected post-mortem.
QUARANTINE_NAME = ".quarantine"
#: Replay columns of a cached trace: the trace file is those columns.
load_cached_columns = load_trace_columns

#: Default cache location, shared by `repro bench` and the pytest
#: benchmark harness.
DEFAULT_CACHE_DIR = Path("benchmarks") / ".trace_cache"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every Python source file in the ``repro`` package.

    Any edit to the machine, runtime, MLSim, or an application changes
    the recorded traces, so it must invalidate the cache.
    """
    pkg_root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg_root.rglob("*.py")):
        digest.update(str(path.relative_to(pkg_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def jsonify(value: Any) -> Any:
    """Coerce a value into plain JSON types (tuples become lists, numpy
    scalars become Python scalars)."""
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def cache_key(app: str, config: dict[str, Any], version: str) -> str:
    """Content hash identifying one functional run."""
    payload = json.dumps(
        {"app": app, "config": jsonify(config), "code": version},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@dataclass
class CachedRun:
    """A functional run restored from (or just written to) the cache.

    Duck-types the slice of :class:`repro.apps.base.AppRun` that the
    analysis layer consumes: ``name``, ``verified``, ``checks``,
    ``statistics``, and ``trace`` (loaded lazily from disk).
    """

    name: str
    config: dict[str, Any]
    verified: bool
    checks: dict[str, Any]
    statistics: AppStatistics
    total_events: int
    functional_wall_s: float
    cache_hit: bool
    trace_path: Path
    #: Telemetry harvested from the functional machine at record time
    #: (``repro.obs.observer.machine_metrics``); deterministic, so it is
    #: safe to serve from cache into the artifact's results section.
    machine_metrics: dict[str, Any] = field(default_factory=dict)
    _trace: TraceBuffer | None = None

    @property
    def trace(self) -> TraceBuffer:
        if self._trace is None:
            self._trace = load_trace(self.trace_path)
        return self._trace


def _cached_run(meta: dict[str, Any], trace_path: Path) -> CachedRun:
    """The cache hit an entry's meta describes."""
    return CachedRun(
        name=meta["app"],
        config=meta["config"],
        verified=meta["verified"],
        checks=meta["checks"],
        statistics=AppStatistics(**meta["statistics"]),
        total_events=meta["total_events"],
        functional_wall_s=meta["functional_wall_s"],
        cache_hit=True,
        trace_path=trace_path,
        machine_metrics=meta.get("machine_metrics", {}),
    )


class TraceCache:
    """Content-addressed store of recorded traces."""

    def __init__(self, root: str | Path, version: str | None = None):
        self.root = Path(root)
        self.version = version if version is not None else code_version()

    def key(self, app: str, config: dict[str, Any]) -> str:
        return cache_key(app, config, self.version)

    def entry_dir(self, app: str, config: dict[str, Any]) -> Path:
        return self.root / self.key(app, config)

    def get(self, app: str, config: dict[str, Any]) -> CachedRun | None:
        """The cached run for ``(app, config)`` at the current code
        version, or None.

        A present-but-corrupt entry (a trace ``load_trace`` refuses,
        damaged meta) is quarantined and treated as a miss.
        """
        entry = self.entry_dir(app, config)
        meta_path = entry / META_NAME
        trace_path = entry / TRACE_NAME
        if not (meta_path.exists() and trace_path.exists()):
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            load_trace(trace_path)      # maps and checks; builds no event
            return _cached_run(meta, trace_path)
        except (OSError, ValueError, KeyError, TypeError,
                ReproError) as exc:
            self.quarantine(entry, reason=f"{type(exc).__name__}: {exc}")
            return None

    def entries(self) -> list[CachedRun]:
        """Every published entry at this code version, oldest first,
        read from its meta alone (the trace is neither loaded nor
        checked, and an unreadable meta is skipped, not quarantined:
        a live campaign may be writing the cache)."""
        found: list[tuple[str, CachedRun]] = []
        for meta_path in self.root.glob(f"[!.]*/{META_NAME}"):
            with contextlib.suppress(OSError, ValueError, KeyError,
                                     TypeError):
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta["code_version"] == self.version:
                    found.append((meta["created_utc"], _cached_run(
                        meta, meta_path.with_name(TRACE_NAME))))
        return [record for _, record in sorted(found, key=lambda f: f[0])]

    def quarantine(self, entry: Path, *, reason: str) -> Path:
        """Move a corrupt entry under ``.quarantine/`` for post-mortem
        inspection; returns the new location."""
        qdir = self.root / QUARANTINE_NAME
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / entry.name
        if target.exists():
            shutil.rmtree(target)
        os.replace(entry, target)
        (target / "QUARANTINED.txt").write_text(
            reason + "\n", encoding="utf-8")
        return target

    def put(
        self,
        app: str,
        config: dict[str, Any],
        run,
        functional_wall_s: float,
    ) -> CachedRun:
        """Store a completed functional run (an ``AppRun``); returns the
        cache-backed record.

        The entry is staged in a temp directory inside the cache root
        and published with a single ``os.replace``: a crash mid-write
        leaves an inert ``.staging-*`` directory, never a torn entry.
        """
        entry = self.entry_dir(app, config)
        self.root.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(dir=self.root, prefix=".staging-"))
        stats = run.statistics
        machine = getattr(run, "machine", None)
        telemetry = (
            jsonify(machine_metrics(machine)) if machine is not None else {}
        )
        meta = {
            "app": app,
            "config": jsonify(config),
            "code_version": self.version,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "verified": bool(run.verified),
            "checks": jsonify(run.checks),
            "statistics": asdict(stats),
            "total_events": run.trace.total_events,
            "functional_wall_s": functional_wall_s,
            "machine_metrics": telemetry,
        }
        try:
            save_trace(run.trace, staging / TRACE_NAME)
            (staging / META_NAME).write_text(
                json.dumps(meta, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            if entry.exists():
                shutil.rmtree(entry)
            os.replace(staging, entry)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return CachedRun(
            name=app,
            config=meta["config"],
            verified=meta["verified"],
            checks=meta["checks"],
            statistics=stats,
            total_events=meta["total_events"],
            functional_wall_s=functional_wall_s,
            cache_hit=False,
            trace_path=entry / TRACE_NAME,
            machine_metrics=telemetry,
        )
