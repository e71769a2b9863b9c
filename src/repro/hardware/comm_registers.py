"""Communication registers with present bits (section 4.4).

Each MC carries 128 4-byte registers allocated in *shared* memory space, so
any cell can write another cell's registers with a plain remote store.
Every register has a present bit (p-bit): a store sets it, a load clears
it, and a load that finds the p-bit clear makes the processor retry in
hardware instead of software-polling.  The AP1000+ builds fast software
barriers and scalar global reductions out of these registers.

The functional model exposes a non-blocking ``try_load`` (returns ``None``
when empty) so the cooperative scheduler of :mod:`repro.machine` can turn
"hardware retry" into a block-until-present condition, plus counters for
how many retries the hardware would have performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import AddressError
from repro.core.state import Stateful

NUM_REGISTERS = 128
REGISTER_BYTES = 4


@dataclass
class CommRegisterFile(Stateful):
    """One cell's 128-register communication register file."""

    num_registers: int = NUM_REGISTERS
    _values: list[int] = field(init=False)
    _present: list[bool] = field(init=False)
    stores: int = 0
    loads: int = 0
    retries: int = 0

    def __post_init__(self) -> None:
        self._values = [0] * self.num_registers
        self._present = [False] * self.num_registers

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_registers:
            raise AddressError(
                f"communication register {index} out of range "
                f"(file has {self.num_registers})"
            )

    def store(self, index: int, value: int) -> None:
        """Store a word and set the p-bit."""
        self._check(index)
        self._values[index] = value % (1 << (8 * REGISTER_BYTES))
        self._present[index] = True
        self.stores += 1

    def try_load(self, index: int) -> int | None:
        """Load a word if present (clearing the p-bit), else None.

        A ``None`` corresponds to one hardware retry cycle on the real
        machine; callers that busy-wait should call this until it yields a
        value, and the ``retries`` counter records the spin count.
        """
        self._check(index)
        if not self._present[index]:
            self.retries += 1
            return None
        self._present[index] = False
        self.loads += 1
        return self._values[index]

    def peek(self, index: int) -> tuple[int, bool]:
        """Inspect (value, p-bit) without disturbing them (debug/tests)."""
        self._check(index)
        return self._values[index], self._present[index]

    def is_present(self, index: int) -> bool:
        self._check(index)
        return self._present[index]

    def store_pair(self, index: int, low: int, high: int) -> None:
        """8-byte store: registers can be accessed in 4- or 8-byte blocks."""
        self._check(index + 1)
        self.store(index, low)
        self.store(index + 1, high)

    def try_load_pair(self, index: int) -> tuple[int, int] | None:
        """8-byte load; succeeds only when both p-bits are set."""
        self._check(index + 1)
        if not (self._present[index] and self._present[index + 1]):
            self.retries += 1
            return None
        low = self.try_load(index)
        high = self.try_load(index + 1)
        assert low is not None and high is not None
        return low, high
