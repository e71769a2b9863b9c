"""Communication-completion models.

Detecting the completion of a ``readRemote`` is easy — the reply data
returns and updates the flag.  Detecting ``writeRemote`` completion needs
an acknowledgment; the paper's runtime combines acknowledgment counting
with barrier synchronization, "common in data parallel programming, so we
call this the *Ack & Barrier* model" (section 2.2).

The AP1000+ does not acknowledge PUTs directly in hardware.  Instead the
program issues a GET to remote address 0 *after* the PUT; because the
T-net routes statically and delivers in order per (source, destination)
pair, the GET reply cannot overtake the PUT, so its arrival proves the PUT
has been received (section 4.1).  :class:`AckTracker` packages that idiom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.flags import Flag
from repro.core.state import Stateful


class AckPolicy:
    """How many PUTs are acknowledged (the section 5.4 design space)."""

    EVERY_PUT = "every-put"      # current VPP Fortran runtime behaviour
    LAST_PER_DEST = "last-per-dest"  # the planned improvement
    NONE = "none"                # rely on barrier-only synchronization

    ALL = (EVERY_PUT, LAST_PER_DEST, NONE)


@dataclass
class AckTracker(Stateful):
    """Books outstanding PUT acknowledgments for one cell.

    The tracker is policy-agnostic bookkeeping: callers record each PUT
    with :meth:`record_put`, then ask which destinations still need an
    acknowledging GET under a given policy with :meth:`destinations_to_ack`.
    The acknowledge flag is incremented by each GET reply, and
    :meth:`expected_acks` is the flag value proving all of them returned.
    """

    _wiring = frozenset({"ack_flag", "policy"})

    ack_flag: Flag
    policy: str = AckPolicy.EVERY_PUT
    _puts_per_dest: dict[int, int] = field(default_factory=dict)
    _acks_issued: int = 0

    def __post_init__(self) -> None:
        if self.policy not in AckPolicy.ALL:
            raise ValueError(
                f"unknown ack policy {self.policy!r}; "
                f"choose from {AckPolicy.ALL}")

    def record_put(self, dest: int) -> bool:
        """Record a PUT to ``dest``; returns True if it needs an immediate
        acknowledging GET (EVERY_PUT policy)."""
        self._puts_per_dest[dest] = self._puts_per_dest.get(dest, 0) + 1
        if self.policy == AckPolicy.EVERY_PUT:
            self._acks_issued += 1
            return True
        return False

    def destinations_to_ack(self) -> list[int]:
        """Destinations needing one final acknowledging GET at phase end.

        Under LAST_PER_DEST, "no PUT operations except the last PUT for
        every destination cell need acknowledgment"; under EVERY_PUT all
        acks were issued inline; under NONE nothing is acked.
        """
        if self.policy != AckPolicy.LAST_PER_DEST:
            return []
        dests = sorted(d for d, n in self._puts_per_dest.items() if n > 0)
        self._acks_issued += len(dests)
        return dests

    @property
    def expected_acks(self) -> int:
        """Flag value that proves every issued acknowledge has returned."""
        return self._acks_issued

    def reset_phase(self) -> None:
        """Forget per-destination counts at a barrier (phase boundary)."""
        self._puts_per_dest.clear()
