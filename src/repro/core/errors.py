"""Exception hierarchy for the AP1000+ reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  The sub-hierarchy mirrors
the machine's own fault model: address/protection faults detected by the
MC's MMU, queue capacity faults handled by the MSC+, synchronization
failures (deadlock) detected by the functional scheduler, and trace-buffer
overflow, which the paper itself hit ("MLSim simulated the first 10
iterations because of trace buffer limitations").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A machine, application, or simulator was configured inconsistently.

    ``fields`` names the settings at fault when the error is about
    particular ones (``MachineConfig`` fields, or a workload's
    ``workload`` / ``num_cells`` / ``params``), so a front end can name
    its own option for each."""

    def __init__(self, message: str = "", *,
                 fields: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.fields = fields


class AddressError(ReproError):
    """An address is outside any mapped region (detected by the MMU)."""


class PageFaultError(AddressError):
    """A logical address missed the page table: the hardware raises a
    program interrupt and, for in-flight remote messages, the MSC+ pulls
    the remainder of the message from the network (paper section 4.1)."""


class ProtectionError(AddressError):
    """An access violated a page's protection bits."""


class QueueOverflowError(ReproError):
    """A command queue overflowed and no spill buffer could absorb it."""


class CommunicationError(ReproError):
    """A malformed or unroutable message was issued."""


class CommTimeoutError(CommunicationError):
    """Reliable delivery gave up: a frame exhausted its retry budget or a
    watchdog expired while cells were blocked on communication.

    Raised only when fault injection (:mod:`repro.faults`) is active; the
    message carries a structured diagnosis (retry counts, killed cells,
    and the blocked-cell dump of ``Machine._deadlock_report``) so a hang
    under injected faults is never silent."""


class DeadlockError(ReproError):
    """All runnable cells are blocked and no condition can make progress."""


class CheckpointInterrupt(ReproError):
    """A run stopped deliberately right after capturing a snapshot.

    Raised by the functional machine when its checkpoint policy asked to
    stop after the next capture (SIGTERM-triggered final checkpoints,
    ``repro chaos --recover`` kill points).  Carries the snapshot path
    so the caller can print the exact resume command."""

    def __init__(self, message: str, *, snapshot_path: str | None = None
                 ) -> None:
        super().__init__(message)
        self.snapshot_path = snapshot_path


class TraceBufferOverflowError(ReproError):
    """The bounded trace buffer filled up, as on the real AP1000 probes."""


class IngestError(ReproError):
    """A foreign trace could not be translated into the canonical event
    stream (:mod:`repro.ingest`).

    Structured: ``source`` names the offending file and ``line`` the
    1-based record it was parsing (0 when the problem is global, e.g.
    an unmatched receive discovered at end of stream), so ``repro
    ingest`` can point at the exact foreign record without a traceback.
    """

    def __init__(self, message: str, *, source: str | None = None,
                 line: int = 0) -> None:
        where = ""
        if source is not None:
            where = f"{source}:{line}: " if line else f"{source}: "
        super().__init__(where + message)
        self.source = source
        self.line = line


class SimulationError(ReproError):
    """MLSim reached an inconsistent state while replaying a trace."""
