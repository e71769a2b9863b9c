"""Two-dimensional torus topology of the T-net.

The AP1000+ connects 4 to 1024 cells with a two-dimensional torus network
(T-net) that uses *static* dimension-order routing: a message first travels
along the x ring to the destination column, then along the y ring to the
destination row.  Static routing implies that messages between any fixed
(source, destination) pair traverse the same path and are delivered in
order — a property the paper exploits to use a GET issued after a PUT as
the PUT's acknowledgment (section 4.1, "Acknowledge packet").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.errors import ConfigurationError


def _ring_hops(src: int, dst: int, size: int) -> int:
    """Minimal hop count between two positions on a ring of ``size``."""
    forward = (dst - src) % size
    return min(forward, size - forward)


def _ring_path(src: int, dst: int, size: int) -> list[int]:
    """Positions visited (excluding ``src``) along the shorter ring arc.

    Ties between the two arcs are broken toward the forward (+1) direction,
    matching a deterministic static router.
    """
    forward = (dst - src) % size
    backward = size - forward
    if forward == 0:
        return []
    step = 1 if forward <= backward else -1
    hops = min(forward, backward)
    return [(src + step * i) % size for i in range(1, hops + 1)]


@dataclass(frozen=True)
class TorusTopology:
    """A ``width`` x ``height`` torus with dimension-order (x-then-y) routing.

    Cell IDs are assigned in row-major order: cell ``i`` sits at column
    ``i % width`` and row ``i // width``.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"torus dimensions must be positive, got "
                f"{self.width}x{self.height}"
            )

    @classmethod
    def for_cells(cls, num_cells: int) -> "TorusTopology":
        """Build the squarest torus that holds exactly ``num_cells`` cells.

        The AP1000+ ships in configurations of 4..1024 cells; we accept any
        positive cell count and pick the factorization w*h = n with w >= h
        and w - h minimal, as the physical cabinets did for supported sizes.
        """
        if num_cells < 1:
            raise ConfigurationError(
                f"need at least one cell, got {num_cells}")
        best: tuple[int, int] | None = None
        h = 1
        while h * h <= num_cells:
            if num_cells % h == 0:
                best = (num_cells // h, h)
            h += 1
        assert best is not None  # h=1 always divides
        return cls(width=best[0], height=best[1])

    @functools.cached_property
    def num_cells(self) -> int:
        return self.width * self.height

    def coordinates(self, cell_id: int) -> tuple[int, int]:
        """Return the (x, y) torus coordinates of ``cell_id``."""
        self._check_cell(cell_id)
        return cell_id % self.width, cell_id // self.width

    def cell_at(self, x: int, y: int) -> int:
        """Return the cell ID at torus coordinates (x, y), with wrap-around."""
        return (y % self.height) * self.width + (x % self.width)

    def distance(self, src: int, dst: int) -> int:
        """Hop count between two cells under dimension-order torus routing."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return _ring_hops(sx, dx, self.width) + _ring_hops(sy, dy, self.height)

    def route(self, src: int, dst: int) -> list[int]:
        """The ordered list of cells a message visits from src to dst.

        Includes ``dst`` (when different from ``src``), excludes ``src``.
        Dimension order: resolve x first, then y.
        """
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        path = [self.cell_at(x, sy) for x in _ring_path(sx, dx, self.width)]
        path += [self.cell_at(dx, y) for y in _ring_path(sy, dy, self.height)]
        return path

    def neighbors(self, cell_id: int) -> list[int]:
        """The (up to four) distinct torus neighbours of a cell."""
        x, y = self.coordinates(cell_id)
        raw = [
            self.cell_at(x + 1, y),
            self.cell_at(x - 1, y),
            self.cell_at(x, y + 1),
            self.cell_at(x, y - 1),
        ]
        seen: list[int] = []
        for cell in raw:
            if cell != cell_id and cell not in seen:
                seen.append(cell)
        return seen

    def _check_cell(self, cell_id: int) -> None:
        if not 0 <= cell_id < self.num_cells:
            raise ConfigurationError(
                f"cell id {cell_id} out of range for "
                f"{self.num_cells}-cell torus"
            )
