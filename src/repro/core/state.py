"""What a part's state is, said once: by the part's own attributes.

A checkpoint, its restore and a shard worker's hand-back all need "the
mutable state of this queue / DMA engine / TLB / network".  A part that
inherits :class:`Stateful` answers with everything in ``vars(self)``
except the names it declares as ``_wiring``: references to other parts,
callbacks, the DRAM buffer, the page tables a fresh machine rebuilds.
A blacklist, so a counter added to a class is captured without anyone
remembering to list it.  A container a part creates only at its first
use (a queue's deque, say) is ``None`` until then and named in the
class's ``_lazy`` with its type: its state is that empty container
either way.

Nothing on a run path calls these methods: ``state()`` copies
containers, which is the price of a snapshot that stays valid while the
machine runs on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any, ClassVar

#: Immutable values: most of what a part holds, shared as they are.
_ATOMS = frozenset({int, bool, float, str, bytes, tuple, type(None)})


def _copied(value: Any) -> Any:
    """``value`` with parts replaced by their state and plain containers
    copied; what the containers hold (packets, commands) is shared."""
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is list or kind is deque:
        return kind(map(_copied, value))
    if kind is dict:
        return {key: _copied(item) for key, item in value.items()}
    if kind is set:
        return set(value)
    return value.state() if isinstance(value, Stateful) else value


class Stateful:
    """Mixin: generic ``state()`` / ``load_state()`` over ``vars(self)``."""

    #: Attribute names that are not state (see the module docstring).
    _wiring: ClassVar[frozenset[str]] = frozenset()
    #: Containers made at first use: attribute name -> the type whose
    #: empty instance an unmade (``None``) one saves as.
    _lazy: ClassVar[dict[str, Callable[[], Any]]] = {}

    def state(self) -> dict[str, Any]:
        """A picklable copy of every non-wiring attribute, nested parts
        as their own ``state()``."""
        wiring, lazy = self._wiring, self._lazy
        return {name: (lazy[name]() if value is None and name in lazy
                       else _copied(value))
                for name, value in vars(self).items() if name not in wiring}

    def load_state(self, saved: dict[str, Any]) -> None:
        """Take over a :meth:`state` of the same class.

        Nested parts load in place, because other parts hold references
        to them (``msc.cache is cell.cache``, the faulty B-net counts
        into the T-net's ``FaultStats``); containers are replaced by a
        copy, so one saved state can be loaded more than once.
        """
        mine = vars(self)
        for name, value in saved.items():
            current = mine.get(name)
            if isinstance(current, Stateful):
                current.load_state(value)
            else:
                mine[name] = _copied(value)
