"""The VPP Fortran run-time system.

"The translator translates a VPP Fortran program into FORTRAN77
sequential code with run-time system calls for each processing element
... The translator inserts an index calculation code which converts
global addresses to local addresses.  It also inserts communication
library calls for accessing remote data" (section 2.1).

This module is that run-time system: collective data movement
(SPREAD MOVE and OVERLAP FIX) implemented over the PUT/GET interface,
MOVEWAIT completion (the Ack & Barrier model), and run-time cost
accounting — every call charges ``rtsys`` work proportional to the
address calculations and per-message bookkeeping it performs, which is
what the "Run-time system" bucket of Figure 8 measures.

The ``use_stride`` switch selects between hardware stride transfers and
element-by-element transfers; TOMCATV with/without stride (section 5.4)
is exactly this switch.  Element by element, a move hands its run of
one-element commands to the cell as one batch
(:meth:`~repro.machine.program.CellContext.transfer_batch`): the
simulated machine still sees, records and charges every message.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.stride import ElementStride
from repro.lang.global_array import GlobalArray

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.program import CellContext, Group, LocalArray

#: Run-time cost model (microseconds of base-SPARC work).  Calibrated so
#: the "Run-time system" bars of Figure 8 appear at roughly the paper's
#: magnitudes (2-3% for CG/FT/SP, more for TOMCATV, dominated by the
#: per-message address calculations in the no-stride case).
RT_CALL_US = 60.0      # per runtime library call (partition lookup,
                       # stride-pattern discovery)
RT_PER_MSG_US = 12.0   # per communication operation generated
                       # (global-to-local address conversion)


def _halo_offsets(nrows: int, width: int, alloc_cols: int) -> np.ndarray:
    """Flat offsets, row by row, of the ``width`` leading columns of an
    ``nrows x alloc_cols`` block: a halo's elements, from its first."""
    return (np.arange(nrows)[:, None] * alloc_cols
            + np.arange(width)).ravel()


class VPPRuntime:
    """Per-cell instance of the run-time system."""

    def __init__(self, ctx: "CellContext", *, use_stride: bool = True,
                 call_us: float = RT_CALL_US,
                 per_msg_us: float = RT_PER_MSG_US) -> None:
        self.ctx = ctx
        self.use_stride = use_stride
        self.call_us = call_us
        self.per_msg_us = per_msg_us
        #: Receive flag counting completed readRemote/GET replies.
        self.move_flag = ctx.alloc_flag()
        self._gets_expected = 0

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def _charge(self, messages: int) -> None:
        """Charge run-time system work for one library call that generated
        ``messages`` communication operations."""
        self.ctx.rtsys(self.call_us + self.per_msg_us * messages)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def global_array(self, shape, dtype=np.float64, *, dist_axis: int = 0,
                     overlap: int = 0) -> GlobalArray:
        """Declare a block-distributed global array (index partition)."""
        return GlobalArray(self.ctx, shape, dtype, dist_axis=dist_axis,
                           overlap=overlap)

    # ------------------------------------------------------------------
    # SPREAD MOVE — collective inter-array assignment (List 1)
    # ------------------------------------------------------------------

    def spread_move_row(self, dest: "LocalArray", src: GlobalArray,
                        row: int) -> None:
        """``A(:) = B(row, :)`` with B row-distributed: every cell gathers
        one full row from its owner.  Contiguous, so a single GET."""
        self._require_2d_axis0(src)
        ncols = src.shape[1]
        if dest.size < ncols:
            raise ConfigurationError(
                f"destination holds {dest.size} elements, row has {ncols}")
        owner = src.owner(row)
        if owner == self.ctx.pe:
            self._charge(0)
            local_row = src.block.data[src.to_local(row), :ncols]
            dest.data.reshape(-1)[:ncols] = local_row
            return
        self._charge(1)
        self.ctx.get(owner, src.block, dest, count=ncols,
                     remote_offset=src.flat_index_on(owner, row, 0),
                     recv_flag=self.move_flag)
        self._gets_expected += 1

    def spread_move_col(self, dest: "LocalArray", src: GlobalArray,
                        col: int) -> None:
        """``A(:) = B(:, col)`` with B row-distributed: the column is
        spread across every cell's block, one element per row — the
        stride case of List 1 ("if loop index J is the 2nd dimension in
        global array B like B(K,J), stride data transfer is required").

        With hardware stride support, one GETS per owner; without it,
        one GET per element.
        """
        self._require_2d_axis0(src)
        nrows = src.shape[0]
        if dest.size < nrows:
            raise ConfigurationError(
                f"destination holds {dest.size} elements, column has {nrows}")
        alloc_cols = src.block.shape[1]
        messages = 0
        for part in range(self.ctx.num_cells):
            lo, hi = src.dist.part_range(part)
            count = hi - lo
            if count == 0:
                continue
            if part == self.ctx.pe:
                dest.data.reshape(-1)[lo:hi] = src.block.data[
                    src.overlap:src.overlap + count, col]
                continue
            base = src.flat_index_on(part, lo, col)
            if self.use_stride:
                self.ctx.get_stride(
                    part, src.block, dest,
                    ElementStride(1, count, alloc_cols),
                    ElementStride(count, 1, count),
                    remote_offset=base, local_offset=lo,
                    recv_flag=self.move_flag)
                self._gets_expected += 1
                messages += 1
            else:
                rows = np.arange(count)
                self.ctx.transfer_batch(
                    part, src.block, dest, True, base + rows * alloc_cols,
                    lo + rows, recv_flag=self.move_flag)
                self._gets_expected += count
                messages += count
        self._charge(messages)

    def spread_move_block(self, dest: "LocalArray", src: GlobalArray,
                          g_start: int, count: int, *,
                          dest_offset: int = 0) -> None:
        """``A(d:d+count) = B(g:g+count)`` for a 1-D global array: gather a
        global range that may span several owners (one GET per owner)."""
        if len(src.shape) != 1:
            raise ConfigurationError("spread_move_block needs a 1-D array")
        if g_start < 0 or g_start + count > src.shape[0]:
            raise ConfigurationError("global range out of bounds")
        messages = 0
        g = g_start
        while g < g_start + count:
            part = src.owner(g)
            lo, hi = src.dist.part_range(part)
            take = min(hi, g_start + count) - g
            off = dest_offset + (g - g_start)
            if part == self.ctx.pe:
                dest.data.reshape(-1)[off:off + take] = src.block.data[
                    src.to_local(g):src.to_local(g) + take]
            else:
                self.ctx.get(part, src.block, dest, count=take,
                             remote_offset=src.flat_index_on(part, g),
                             local_offset=off, recv_flag=self.move_flag)
                self._gets_expected += 1
                messages += 1
            g += take
        self._charge(messages)

    def write_move_block(self, src_local: "LocalArray", dest: GlobalArray,
                         g_start: int, count: int, *,
                         src_offset: int = 0) -> None:
        """``B(g:g+count) = A(s:s+count)`` for a 1-D global array: scatter
        a local range into the (possibly several) owning cells with
        acknowledged PUTs."""
        if len(dest.shape) != 1:
            raise ConfigurationError("write_move_block needs a 1-D array")
        if g_start < 0 or g_start + count > dest.shape[0]:
            raise ConfigurationError("global range out of bounds")
        messages = 0
        g = g_start
        while g < g_start + count:
            part = dest.owner(g)
            lo, hi = dest.dist.part_range(part)
            take = min(hi, g_start + count) - g
            off = src_offset + (g - g_start)
            if part == self.ctx.pe:
                dest.block.data[dest.to_local(g):dest.to_local(g) + take] = \
                    src_local.data.reshape(-1)[off:off + take]
            else:
                self.ctx.put(part, dest.block, src_local, count=take,
                             dest_offset=dest.flat_index_on(part, g),
                             src_offset=off, ack=True)
                messages += 1
            g += take
        self._charge(messages)

    # ------------------------------------------------------------------
    # OVERLAP FIX — refresh the overlap areas (Figure 2)
    # ------------------------------------------------------------------

    def overlap_fix(self, g: GlobalArray) -> None:
        """Send this cell's boundary data into the neighbours' overlap
        areas.  Along axis 0 the boundary rows are contiguous; along
        axis 1 the boundary columns are strided — "stride data transfer
        is necessary if the overlap area is allocated along the 2nd
        dimension" (section 2.2)."""
        if g.overlap == 0:
            raise ConfigurationError(
                "overlap_fix on an array declared without an overlap area")
        width = g.overlap
        pe = self.ctx.pe
        messages = 0
        left = pe - 1 if g.lo > 0 else None
        right = pe + 1 if g.hi < g.shape[g.dist_axis] else None
        if g.local_extent == 0:
            self._charge(0)
            return
        if len(g.shape) == 1 or g.dist_axis == 0:
            row_elems = 1 if len(g.shape) == 1 else g.block.shape[1]
            if left is not None:
                # My first `width` owned rows land in left's upper halo.
                self.ctx.put(left, g.block, g.block,
                             count=width * row_elems,
                             dest_offset=self._halo_offset(g, left, g.lo),
                             src_offset=g.to_local(g.lo) * row_elems,
                             ack=True)
                messages += 1
            if right is not None:
                start = g.hi - width
                self.ctx.put(right, g.block, g.block,
                             count=width * row_elems,
                             dest_offset=self._halo_offset(g, right, start),
                             src_offset=g.to_local(start) * row_elems,
                             ack=True)
                messages += 1
        else:
            messages += self._overlap_fix_columns(g, left, right, width)
        self._charge(messages)

    def _halo_offset(self, g: GlobalArray, part: int, g_index: int) -> int:
        """Flat offset of (row/col ``g_index``, element 0) in ``part``'s
        block — lands inside that part's overlap area."""
        if len(g.shape) == 1:
            return g._to_local_on(part, g_index)
        if g.dist_axis == 0:
            return g._to_local_on(part, g_index) * g.block.shape[1]
        return g._to_local_on(part, g_index)

    def _overlap_fix_columns(self, g: GlobalArray, left: int | None,
                             right: int | None, width: int) -> int:
        """Column-distributed overlap exchange: strided or element-wise."""
        nrows = g.block.shape[0]
        alloc_cols = g.block.shape[1]
        messages = 0
        sides = []
        if left is not None:
            sides.append((left, g.lo))
        if right is not None:
            sides.append((right, g.hi - width))
        for neighbour, col_start in sides:
            src_off = g.to_local(col_start)
            dst_off = g._to_local_on(neighbour, col_start)
            if self.use_stride:
                stride = ElementStride(width, nrows, alloc_cols)
                self.ctx.put_stride(neighbour, g.block, g.block,
                                    stride, stride,
                                    dest_offset=dst_off, src_offset=src_off,
                                    ack=True)
                messages += 1
            else:
                halo = _halo_offsets(nrows, width, alloc_cols)
                self.ctx.transfer_batch(neighbour, g.block, g.block, False,
                                        halo + dst_off, halo + src_off,
                                        ack=True)
                messages += len(halo)
        return messages

    def overlap_fix_mixed(self, g: GlobalArray) -> None:
        """Overlap exchange handled pairwise with the right neighbour:
        PUT my last owned boundary into its overlap area, GET its first
        owned boundary into mine.  Produces the balanced PUTS/GETS mix of
        Table 3's TOMCATV row (an equally valid runtime strategy — each
        boundary still moves exactly once)."""
        if g.overlap == 0:
            raise ConfigurationError(
                "overlap_fix_mixed on an array without an overlap area")
        if len(g.shape) != 2 or g.dist_axis != 1:
            raise ConfigurationError(
                "overlap_fix_mixed implements the Figure 2 layout: a 2-D "
                "array distributed along axis 1")
        width = g.overlap
        right = self.ctx.pe + 1 if g.hi < g.shape[1] else None
        if right is None or g.local_extent == 0:
            self._charge(0)
            return
        nrows = g.block.shape[0]
        alloc_cols = g.block.shape[1]
        messages = 0
        # PUT my last `width` owned columns into right's left halo.
        put_src = g.to_local(g.hi - width)
        put_dst = g._to_local_on(right, g.hi - width)
        # GET right's first `width` owned columns into my right halo.
        get_src = g._to_local_on(right, g.hi)
        get_dst = g.to_local(g.hi)
        if self.use_stride:
            stride = ElementStride(width, nrows, alloc_cols)
            self.ctx.put_stride(right, g.block, g.block, stride, stride,
                                dest_offset=put_dst, src_offset=put_src,
                                ack=True)
            self.ctx.get_stride(right, g.block, g.block, stride, stride,
                                remote_offset=get_src, local_offset=get_dst,
                                recv_flag=self.move_flag)
            self._gets_expected += 1
            messages += 2
        else:
            # Element by element, each PUT followed by its GET.
            halo = _halo_offsets(nrows, width, alloc_cols)
            self.ctx.transfer_batch(
                right, g.block, g.block, np.tile([False, True], len(halo)),
                np.column_stack((halo + put_dst, halo + get_src)).ravel(),
                np.column_stack((halo + put_src, halo + get_dst)).ravel(),
                recv_flag=self.move_flag, ack=True)
            self._gets_expected += len(halo)
            messages += 2 * len(halo)
        self._charge(messages)

    # ------------------------------------------------------------------
    # MOVEWAIT — completion of outstanding collective moves
    # ------------------------------------------------------------------

    def movewait(self) -> Iterator[None]:
        """Complete all outstanding SPREAD MOVE / OVERLAP FIX traffic:
        wait for GET replies, collect PUT acknowledgments, and barrier —
        the Ack & Barrier model of section 2.2."""
        self._charge(0)
        yield from self.ctx.flag_wait(self.move_flag, self._gets_expected)
        yield from self.ctx.finish_puts()
        yield from self.ctx.barrier()

    # ------------------------------------------------------------------
    # Global reductions (run-time library wrappers)
    # ------------------------------------------------------------------

    def gop(self, value: float, op: str = "sum",
            group: "Group | None" = None) -> Iterator[None]:
        """Scalar global reduction through the run-time library."""
        self._charge(0)
        result = yield from self.ctx.gop(value, op, group)
        return result

    def vgop(self, vector: np.ndarray, op: str = "sum",
             group: "Group | None" = None) -> Iterator[None]:
        """Vector global reduction through the run-time library."""
        self._charge(0)
        result = yield from self.ctx.vgop(vector, op, group)
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _require_2d_axis0(src: GlobalArray) -> None:
        if len(src.shape) != 2 or src.dist_axis != 0:
            raise ConfigurationError(
                "this SPREAD MOVE form needs a 2-D array distributed "
                "along axis 0")
