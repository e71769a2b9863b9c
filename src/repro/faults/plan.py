"""Fault plans: declarative, seed-reproducible failure schedules.

A :class:`FaultPlan` describes *everything* that will go wrong during one
run — wire fault rates, cell kills, queue-pressure overrides —
plus the recovery budget the reliable transport may spend tolerating it.
All randomness flows from ``plan.seed`` through one ``random.Random``
held by the injector, so a failing run replays byte-for-byte from its
plan alone.

A plan reaches a machine through its config —
``MachineConfig(fault_plan=plan)``, or
``workload(app).run(config=MachineConfig(fault_plan=plan))`` for an
application entry point.  JSON round-tripping
(:meth:`FaultPlan.to_dict` / :meth:`from_dict`) backs the ``repro chaos
--plan file.json`` CLI.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

from repro.core.errors import ConfigurationError
from repro.core.state import Stateful


@dataclass(frozen=True)
class KillSpec:
    """Kill cell ``pe`` once it has recorded ``at_event`` trace rows of
    its own: the probe that would record the next row kills it instead.
    0 kills it before its program takes its first step.

    The schedule is in the trace's terms, the one thing every scheduler
    and every replay of a run agrees on, not in how often the host
    happened to resume the cell's program."""

    pe: int
    at_event: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.pe, int) and isinstance(self.at_event, int)
                and self.at_event >= 0):
            raise ConfigurationError(
                f"kill {self}: pe must be an int and at_event an int "
                ">= 0")


#: Plan keys that no longer exist, and what to write instead.
_RETIRED = {
    "stalls": "a stalled program's MSC+ kept running, so a stall could "
              "delay no ack, retransmit or delivery; drop the key",
    "watchdog_passes": "the scheduler detects a hang exactly; drop the "
                       "key",
    "kills[].at_resume": "use 'kills[].at_event', the trace rows the "
                         "cell records before it dies",
}


def _refuse_retired(keys: Iterable[str]) -> None:
    for key in keys:
        if key in _RETIRED:
            raise ConfigurationError(
                f"fault plan key {key!r} is retired: {_RETIRED[key]}")


def _kill_from_dict(entry: Any) -> KillSpec:
    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"fault plan kills entry {entry!r} is not an object")
    _refuse_retired(f"kills[].{key}" for key in entry)
    try:
        return KillSpec(**entry)
    except TypeError as exc:  # an unknown or a missing key, by name
        raise ConfigurationError(
            f"fault plan kills entry {entry!r}: {exc}") from None


@dataclass(frozen=True)
class FaultPlan:
    """One complete, replayable failure schedule."""

    name: str = "custom"
    seed: int = 0
    # --- wire faults (per transmitted frame, including retransmissions) --
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    #: A delayed frame is held for 1..delay_max_rounds drain rounds.
    delay_max_rounds: int = 4
    # --- cell faults -----------------------------------------------------
    kills: tuple[KillSpec, ...] = ()
    #: With degradation on, collectives shrink around killed cells and
    #: frames to them are discarded; off, communication with a killed
    #: cell exhausts its retries into a CommTimeoutError.
    degrade: bool = False
    # --- queue pressure (None keeps the hardware defaults) ---------------
    queue_capacity_words: int | None = None
    spill_buffer_words: int | None = None
    max_spill_buffers: int | None = None
    # --- recovery budget -------------------------------------------------
    #: Quiescent pump rounds before the transport retransmits everything
    #: still unacknowledged.
    timeout_rounds: int = 3
    #: Retransmissions per frame before giving up with CommTimeoutError.
    max_retries: int = 16

    def __post_init__(self) -> None:
        for rate_name in ("drop_rate", "dup_rate", "corrupt_rate",
                          "delay_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault plan {self.name!r}: {rate_name} must be in "
                    f"[0, 1], got {rate}")
        if self.delay_max_rounds < 1:
            raise ConfigurationError(
                f"fault plan {self.name!r}: delay_max_rounds must be >= 1")
        if self.timeout_rounds < 1 or self.max_retries < 1:
            raise ConfigurationError(
                f"fault plan {self.name!r}: recovery budget must allow at "
                "least one timeout round and one retry")

    @property
    def wire_faults(self) -> bool:
        """True when any per-frame fault rate is non-zero."""
        return bool(self.drop_rate or self.dup_rate or self.corrupt_rate
                    or self.delay_rate)

    def killed_at(self, pe: int) -> int | None:
        """The rows cell ``pe`` records before it dies (the earliest of
        its kills), or None when the plan never kills it."""
        rows = [k.at_event for k in self.kills if k.pe == pe]
        return min(rows) if rows else None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out["kills"] = [asdict(k) for k in self.kills]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        _refuse_retired(data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"fault plan has unknown keys {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["kills"] = tuple(
            _kill_from_dict(k) for k in data.get("kills", ()))
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | Path) -> list["FaultPlan"]:
        """Read one plan or a list of plans from a JSON file."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(data, dict):
            data = [data]
        return [cls.from_dict(entry) for entry in data]


@dataclass
class FaultStats(Stateful):
    """What a plan did to one run: counters shared by the injector and
    the reliable transport.  Here, not beside them, because a perfect
    machine reports the same ledger, all zero, without loading either."""

    frames_sent: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    delayed: int = 0
    blackholed: int = 0
    # transport side
    retries: int = 0
    timeouts: int = 0
    acks_sent: int = 0
    nacks_sent: int = 0
    dup_discarded: int = 0
    corrupt_discarded: int = 0
    reordered: int = 0
    degraded_discards: int = 0


# ----------------------------------------------------------------------
# Built-in plan sets
# ----------------------------------------------------------------------

def smoke_plans(seed: int = 1994) -> tuple[FaultPlan, ...]:
    """The small CI sweep: every wire-fault class at >= 1% rates."""
    return (
        FaultPlan(name="drop", seed=seed, drop_rate=0.02),
        FaultPlan(name="storm", seed=seed + 1, drop_rate=0.01,
                  dup_rate=0.02, corrupt_rate=0.01, delay_rate=0.05),
    )


def full_plans(seed: int = 1994) -> tuple[FaultPlan, ...]:
    """The default ``repro chaos`` sweep: each fault class isolated,
    then combined, then combined under queue pressure."""
    return (
        FaultPlan(name="drop", seed=seed, drop_rate=0.03),
        FaultPlan(name="dup", seed=seed + 1, dup_rate=0.05),
        FaultPlan(name="corrupt", seed=seed + 2, corrupt_rate=0.03),
        FaultPlan(name="delay", seed=seed + 3, delay_rate=0.10,
                  delay_max_rounds=6),
        FaultPlan(name="storm", seed=seed + 4, drop_rate=0.02,
                  dup_rate=0.02, corrupt_rate=0.02, delay_rate=0.05),
        FaultPlan(name="squeeze", seed=seed + 5, drop_rate=0.01,
                  delay_rate=0.05, queue_capacity_words=16),
    )
