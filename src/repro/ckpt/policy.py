"""The signal-safe checkpoint interrupt flag.

Every other checkpoint setting (cadence, one-shot site, directory,
stop after a capture) is a :class:`~repro.machine.config.MachineConfig`
field.  This one is not, because it is set by a signal handler, which
has no machine to hand it to: a plain :class:`threading.Event` lets the
handler request "checkpoint at the next gate and stop" without touching
interpreter state mid-simulation.  The machine polls it only at
checkpoint sites and only when a checkpoint directory is configured.
"""

from __future__ import annotations

import threading

_INTERRUPT = threading.Event()


def request_interrupt() -> None:
    """Ask the running machine to checkpoint at its next gate and stop.

    Safe to call from a signal handler.  Has no effect on machines
    without a checkpoint directory (there is nowhere to write the
    snapshot, so the run simply continues).
    """

    _INTERRUPT.set()


def clear_interrupt() -> None:
    """Reset the interrupt flag (start of a run / after honouring it)."""

    _INTERRUPT.clear()


def interrupt_requested() -> bool:
    """True if :func:`request_interrupt` fired since the last clear."""

    return _INTERRUPT.is_set()
