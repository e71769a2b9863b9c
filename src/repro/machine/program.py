"""The per-cell programming interface of the functional machine.

An application is an SPMD *program*: a generator function
``program(ctx, **params)`` executed once per cell, where ``ctx`` is this
module's :class:`CellContext`.  Non-blocking operations (PUT, GET, SEND,
computation charging) are plain method calls whose functional effect —
bytes moving between cell memories, flags incrementing — happens
immediately.  Blocking operations (flag waits, RECEIVE, barriers,
reductions, communication-register loads) are generator methods used with
``yield from``; each ``yield`` returns control to the scheduler until the
condition can be satisfied by another cell's progress.

Every operation is recorded as one fixed-width trace row (appended by
:meth:`~repro.trace.buffer.TraceBuffer.append`, no event object built),
so running a program produces both a *numerical result* (testable
against a sequential reference) and a *trace* (consumed by MLSim for
timing).

The interface is stated here once.  What a program runs on — the
functional machine (the static analyzer, :mod:`repro.check.comm`, runs
its programs there too) or a sharded worker
(:mod:`repro.machine.sharded`) — differs only below a seam of private
methods a back end may override: ``_record`` (record one row; an
attribute bound per context, so a back end rebinds it),
``_issue`` (hand a PUT/GET command to the hardware), ``_post`` (hand a
two-sided message to the transport), ``_creg_store`` /
``_creg_try_load``; flag words live in the cell's MC, and remote words,
collectives and the table of what each cell is blocked on go through
the machine (:class:`~repro.machine.machine.Machine`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.core.completion import AckTracker
from repro.core.errors import CommunicationError, ConfigurationError
from repro.core.flags import MAX_FLAGS_PER_PE, Flag
from repro.core.state import Stateful
from repro.core.stride import ElementStride
from repro.hardware.mc import NO_FLAG
from repro.hardware.msc import Command, CommandKind
from repro.machine.config import SPARC_US_PER_FLOP
from repro.network.packet import Packet, StrideSpec
from repro.trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

#: The range values of a footprint side that moves no bytes.
_NO_SIDE = (-1, 0, 0, 0)


@dataclass(frozen=True)
class Group:
    """A synchronization group: a subset of cells with a stable rank order.

    ``members`` is ascending without repeats (``make_group`` sorts), so
    membership and rank are a bisection, not a scan: every barrier
    arrival asks, and the world group is as wide as the machine.
    """

    gid: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def rank_of(self, pe: int) -> int:
        if pe not in self:
            raise CommunicationError(
                f"cell {pe} is not a member of group {self.gid}")
        return bisect_left(self.members, pe)

    def __contains__(self, pe: int) -> bool:
        members = self.members
        rank = bisect_left(members, pe)
        return rank < len(members) and members[rank] == pe


class LocalArray:
    """A numpy array carved out of a cell's simulated DRAM.

    ``data`` is a live view into the cell's memory buffer, so PUT/GET DMA
    (which moves raw bytes through :class:`~repro.hardware.memory.CellMemory`)
    and numpy computation see the same storage.  ``addr`` is the logical
    base address used in communication commands.
    """

    __slots__ = ("data", "addr", "size", "itemsize")

    def __init__(self, data: np.ndarray, addr: int) -> None:
        self.data = data
        self.addr = addr
        # Fixed for the life of the view, and read several times by
        # every PUT/GET that names the array.
        self.size = data.size
        self.itemsize = data.dtype.itemsize

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def element_addr(self, offset_elements: int) -> int:
        """Logical address of element ``offset_elements`` (flat order)."""
        if not 0 <= offset_elements <= self.size:
            raise ConfigurationError(
                f"element offset {offset_elements} outside array of "
                f"{self.size} elements")
        return self.addr + offset_elements * self.itemsize

    def __getitem__(self, key):
        return self.data[key]

    def __setitem__(self, key, value) -> None:
        self.data[key] = value

    def __len__(self) -> int:
        return len(self.data)


class WriteThroughArray:
    """A remote array bound through write-through pages (section 4.2).

    ``data`` is the local page copy viewed with the array's dtype; reads
    through it are plain local loads (no communication event — that is
    the mechanism's whole point).  :meth:`write` updates the copy *and*
    writes through to the home cell.  Coherence is software-managed: the
    copy only changes when the owner of this handle writes through it or
    calls ``ctx.wt_refresh``.
    """

    __slots__ = ("ctx", "home", "array", "copy", "span_base", "data")

    def __init__(self, ctx: "CellContext", home: int, array: "LocalArray",
                 copy: "LocalArray", span_base: int) -> None:
        self.ctx = ctx
        self.home = home
        self.array = array
        self.copy = copy
        self.span_base = span_base
        offset = array.addr - span_base
        raw = copy.data[offset:offset + array.nbytes]
        self.data = raw.view(array.dtype).reshape(array.shape)

    def read(self, offset: int):
        """Read one element — a remote access replaced by a local one."""
        table = self.ctx._wt_table
        assert table is not None
        table.note_local_read()
        return self.data.reshape(-1)[offset]

    def write(self, offset: int, value) -> None:
        """Write one element through to the home cell."""
        table = self.ctx._wt_table
        assert table is not None
        self.data.reshape(-1)[offset] = value
        self.ctx.remote_store_word(self.home, self.array, offset, value)
        table.note_write_through()


class CkptState:
    """A cell program's checkpointable loop state (a picklable bag).

    Cell programs are generators, and generator frames cannot be
    serialized — so a checkpointable program keeps everything that must
    survive a restart in one of these instead of in locals.  Obtained
    from :meth:`CellContext.ckpt_state`: on a fresh run the bag carries
    the caller's defaults and ``fresh`` is True; on a restored run it
    carries the captured values and ``fresh`` is False, so the program
    can skip its prologue's *traced* work (allocations still happen —
    they must, to rebuild the address map — but initialization traffic
    and initial barriers are guarded by ``if st.fresh:``).
    """

    def __init__(self, fresh: bool, fields: dict) -> None:
        self.fresh = fresh
        self.__dict__.update(fields)

    def capture(self) -> dict:
        """The picklable field dict (``fresh`` excluded)."""
        state = dict(self.__dict__)
        state.pop("fresh", None)
        return state


class CellContext(Stateful):
    """The programming interface one cell's program sees.

    Its ``state()`` is what a checkpoint carries per cell.  What the
    re-run prologue rebuilds (the flag allocator, page bindings, the
    loop-state bag) is wiring: restoring it would allocate flags twice."""

    _wiring = frozenset({"machine", "pe", "hw", "ring", "ack_flag",
                         "_wt_flag", "_next_flag", "_wt_table", "_ckpt_st",
                         "_record"})

    def __init__(self, machine: "Machine", pe: int) -> None:
        self.machine = machine
        self.pe = pe
        self.hw = machine.hw_cells[pe]
        self.ring = machine.rings[pe]
        # Every cell's first flag (slot 0) is its acknowledge flag, the
        # implicit flag the Ack & Barrier model counts GET replies on.
        self.ack_flag = Flag(0, pe)
        self.acks = AckTracker(self.ack_flag, policy=machine.ack_policy)
        # Write-through page state.  The fetch flag is allocated eagerly
        # (slot 1 on every cell) so that cells which never bind pages stay
        # in symmetric-allocation lockstep with cells that do.
        self._wt_flag = Flag(1, pe)
        self._next_flag = 2
        self._wt_table = None
        self._wt_fetches = 0
        #: Checkpointable loop state registered via :meth:`ckpt_state`;
        #: None marks the program as not checkpointable.
        self._ckpt_st: CkptState | None = None
        #: The seam that records one row, called as
        #: :meth:`TraceBuffer.append <repro.trace.buffer.TraceBuffer.append>`
        #: is; it returns the row's ``seq``.  Here it *is* the machine
        #: trace's ``append``, so a probe costs one call.
        self._record = machine.trace.append
        #: Rows this cell has recorded, counted only while a fault plan
        #: dooms it (``repro.machine.machine._doom``); 0 elsewhere.
        self._rows = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return self.machine.config.num_cells

    @property
    def world(self) -> Group:
        return self.machine.world_group

    def _trace(self, kind: EventKind, **fields) -> int:
        """Record a row of this cell's: the convenience of the rarer
        events (transfers, waits, barriers and computation pass theirs
        positionally)."""
        return self._record(kind, self.pe, **fields)

    # ------------------------------------------------------------------
    # Memory and flags
    # ------------------------------------------------------------------

    def alloc(self, shape, dtype=np.float64) -> LocalArray:
        """Allocate an array in this cell's DRAM.

        SPMD programs that allocate in the same order on every cell get
        *symmetric* arrays: the same logical address everywhere, which is
        what PUT/GET commands target on remote cells.
        """
        return self.machine.alloc_array(self.pe, shape, dtype)

    def alloc_flag(self) -> Flag:
        """Allocate the next symmetric flag slot.

        Flags start at zero because cell memory is zeroed at machine
        construction.  Allocation deliberately does *not* write the flag:
        a peer that runs ahead may already have PUT to this cell and
        incremented the flag before this cell reaches its own allocation
        point — exactly as on real SPMD hardware, where flags live in
        zero-initialized storage and are never "initialized" at use time.
        """
        if self._next_flag >= MAX_FLAGS_PER_PE:
            raise ConfigurationError("flag area exhausted")
        flag = Flag(self._next_flag, self.pe)
        self._next_flag += 1
        return flag

    def flag_read(self, flag: Flag) -> int:
        return self.hw.mc.read_flag(flag.addr)

    def flag_clear(self, flag: Flag) -> None:
        self.hw.mc.write_flag(flag.addr, 0)

    # ------------------------------------------------------------------
    # Computation charging
    # ------------------------------------------------------------------

    def compute(self, work_us: float) -> None:
        """Charge ``work_us`` microseconds of base-SPARC computation."""
        if work_us < 0:
            raise ConfigurationError("work must be non-negative")
        if work_us:
            self._record(EventKind.COMPUTE, self.pe, work=float(work_us))

    def compute_flops(self, flops: float) -> None:
        """Charge computation by floating-point operation count."""
        self.compute(flops * SPARC_US_PER_FLOP)

    def rtsys(self, work_us: float) -> None:
        """Charge run-time system work (address calculation and the like)."""
        if work_us < 0:
            raise ConfigurationError("work must be non-negative")
        if work_us:
            self._record(EventKind.RTSYS, self.pe, work=float(work_us))

    def phase(self, label: str) -> None:
        """Label the start of a program phase (e.g. one solver iteration).

        Costs zero simulated time; the label shows up in timeline exports
        (:mod:`repro.obs`) so traces viewed in Perfetto can be navigated
        by application structure.
        """
        self._trace(EventKind.PHASE,
                    flag=self.machine.trace.phase_id(str(label)))

    # ------------------------------------------------------------------
    # PUT / GET (the paper's interface, array-level)
    # ------------------------------------------------------------------

    @staticmethod
    def _footprint(command: Command) -> tuple | None:
        """The command's byte footprints as a row's range values.

        Taken only under the sanitizer (``repro check`` / opt-in
        config): the remote side is the scatter of a PUT or the gather
        of a GET, the local side the other half.  A zero-byte side
        carries none, and a transfer with neither (the acknowledge
        idiom) no ranges at all.
        """
        if command.kind is CommandKind.PUT:
            rspec, lspec = command.recv_stride, command.send_stride
        else:
            rspec, lspec = command.send_stride, command.recv_stride
        if not (rspec.total_bytes or lspec.total_bytes):
            return None
        remote = ((command.raddr, rspec.item_size, rspec.count, rspec.skip)
                  if rspec.total_bytes else _NO_SIDE)
        local = ((command.laddr, lspec.item_size, lspec.count, lspec.skip)
                 if lspec.total_bytes else _NO_SIDE)
        return remote + local

    def _issue(self, command: Command) -> None:
        self.hw.msc.send(command)
        self.machine.settle()

    def _transfer(self, kind: CommandKind, node: int, raddr: int,
                  laddr: int, send_stride: StrideSpec,
                  recv_stride: StrideSpec, send_flag: Flag | None = None,
                  recv_flag: Flag | None = None, *, stride: bool = False,
                  ack: bool = False, is_ack: bool = False) -> None:
        """The one front end of every PUT and GET, whatever spelled it
        (the array-level methods below, ``repro.core.api``, the
        acknowledge idiom, write-through refresh): build the command,
        trace it with its flag ids, stamp the sanitizer's footprint,
        issue it, apply the acknowledge policy.

        Both flags of a GET live on the requesting cell; a PUT's receive
        flag is the destination's instance.
        """
        pe = self.pe
        put = kind is CommandKind.PUT
        command = Command(
            kind, node, raddr, laddr, send_stride, recv_stride,
            send_flag.addr if send_flag is not None else NO_FLAG,
            recv_flag.addr if recv_flag is not None else NO_FLAG)
        # kind, pe, partner, size, stride, the two flag ids, is_ack
        self._record(
            EventKind.PUT if put else EventKind.GET, pe, node,
            send_stride.total_bytes, stride,
            send_flag.id_on(pe) if send_flag else 0,
            recv_flag.id_on(node if put else pe) if recv_flag else 0,
            is_ack, ranges=(self._footprint(command)
                            if self.machine.sanitize else None))
        self._issue(command)
        if ack and self.acks.record_put(node):
            self.ack_get(node)

    def put(self, dst: int, dest: LocalArray, src: LocalArray, *,
            count: int | None = None, dest_offset: int = 0,
            src_offset: int = 0, send_flag: Flag | None = None,
            recv_flag: Flag | None = None, ack: bool = False) -> None:
        """PUT ``count`` elements of ``src`` into ``dest`` on cell ``dst``.

        ``dest`` is this cell's handle of a *symmetric* array — the write
        lands at the same logical address in the destination cell.  The
        send flag is incremented here when the send DMA completes; the
        receive flag is incremented on ``dst`` when its receive DMA
        completes (combined flag update, section 4.1).  With ``ack=True``
        the acknowledge policy decides whether a GET-to-address-0 follows
        immediately.
        """
        if count is None:
            count = src.size - src_offset
        self._check_transfer(dest, src, dest_offset, src_offset, count)
        spec = StrideSpec.contiguous(count * src.itemsize)
        self._transfer(CommandKind.PUT, dst, dest.element_addr(dest_offset),
                       src.element_addr(src_offset), spec, spec,
                       send_flag, recv_flag, ack=ack)

    def put_stride(self, dst: int, dest: LocalArray, src: LocalArray,
                   send_stride: ElementStride, recv_stride: ElementStride, *,
                   dest_offset: int = 0, src_offset: int = 0,
                   send_flag: Flag | None = None,
                   recv_flag: Flag | None = None, ack: bool = False) -> None:
        """PUT with one-dimensional stride gather/scatter (Figure 3).

        Strides are given in *elements*; the hardware sees bytes.  The
        total element counts on both sides must agree.
        """
        if send_stride.total_elements != recv_stride.total_elements:
            raise CommunicationError(
                f"stride element counts disagree: send moves "
                f"{send_stride.total_elements}, recv expects "
                f"{recv_stride.total_elements}")
        self._transfer(CommandKind.PUT, dst, dest.element_addr(dest_offset),
                       src.element_addr(src_offset),
                       send_stride.to_bytes(src.itemsize),
                       recv_stride.to_bytes(dest.itemsize),
                       send_flag, recv_flag, stride=True, ack=ack)

    def get(self, src_pe: int, remote: LocalArray, local: LocalArray, *,
            count: int | None = None, remote_offset: int = 0,
            local_offset: int = 0, send_flag: Flag | None = None,
            recv_flag: Flag | None = None) -> None:
        """GET ``count`` elements from ``remote`` on ``src_pe`` into
        ``local``.

        Both flags live on the requesting cell: the send flag counts the
        request leaving, the receive flag counts the reply data landing.
        """
        if count is None:
            count = local.size - local_offset
        self._check_transfer(local, remote, local_offset, remote_offset, count)
        spec = StrideSpec.contiguous(count * local.itemsize)
        self._transfer(CommandKind.GET, src_pe,
                       remote.element_addr(remote_offset),
                       local.element_addr(local_offset), spec, spec,
                       send_flag, recv_flag)

    def get_stride(self, src_pe: int, remote: LocalArray, local: LocalArray,
                   remote_stride: ElementStride,
                   local_stride: ElementStride, *,
                   remote_offset: int = 0, local_offset: int = 0,
                   send_flag: Flag | None = None,
                   recv_flag: Flag | None = None) -> None:
        """GET with stride gather on the remote side and stride scatter
        locally."""
        if remote_stride.total_elements != local_stride.total_elements:
            raise CommunicationError(
                f"stride element counts disagree: remote provides "
                f"{remote_stride.total_elements}, local expects "
                f"{local_stride.total_elements}")
        self._transfer(CommandKind.GET, src_pe,
                       remote.element_addr(remote_offset),
                       local.element_addr(local_offset),
                       remote_stride.to_bytes(remote.itemsize),
                       local_stride.to_bytes(local.itemsize),
                       send_flag, recv_flag, stride=True)

    def transfer_batch(self, node: int, remote: LocalArray,
                       local: LocalArray, gets, remote_offsets,
                       local_offsets, *, recv_flag: Flag | None = None,
                       ack: bool = False) -> None:
        """Issue a run of one-element PUTs and GETs to and from ``node``.

        Command ``i`` moves element ``remote_offsets[i]`` of ``remote``
        on ``node`` and element ``local_offsets[i]`` of ``local`` here:
        a GET into ``local`` with ``recv_flag`` where ``gets[i]`` (a
        bool, or one per command), a PUT into ``remote`` with ``ack``
        otherwise, in the order given — what :meth:`get` and :meth:`put`
        with ``count=1`` issue one by one, and record, move and count
        exactly as they would (:mod:`repro.machine.batch`).  A run that
        would raise does so at the same command.
        """
        remote_offsets = np.asarray(remote_offsets, np.int64)
        local_offsets = np.asarray(local_offsets, np.int64)
        if remote_offsets.ndim != 1 or \
                remote_offsets.shape != local_offsets.shape:
            raise CommunicationError(
                "a batch needs one remote and one local offset per command")
        gets = np.broadcast_to(np.asarray(gets, bool), remote_offsets.shape)
        if not len(gets):
            return
        from repro.machine.batch import issue_batch

        if issue_batch(self, node, remote, local, gets, remote_offsets,
                       local_offsets, recv_flag, ack) is None:
            return
        for get, theirs, ours in zip(gets.tolist(), remote_offsets.tolist(),
                                     local_offsets.tolist()):
            if get:
                self.get(node, remote, local, count=1, remote_offset=theirs,
                         local_offset=ours, recv_flag=recv_flag)
            else:
                self.put(node, remote, local, count=1, dest_offset=theirs,
                         src_offset=ours, ack=ack)

    def _check_transfer(self, dest: LocalArray, src: LocalArray,
                        dest_offset: int, src_offset: int, count: int) -> None:
        if count < 0:
            raise CommunicationError("negative transfer count")
        if dest.itemsize != src.itemsize:
            raise CommunicationError(
                f"transfer between arrays of different item sizes "
                f"({src.itemsize} vs {dest.itemsize})")
        if src_offset + count > src.size or dest_offset + count > dest.size:
            raise CommunicationError("transfer exceeds array bounds")

    # ------------------------------------------------------------------
    # Acknowledge idiom and completion
    # ------------------------------------------------------------------

    def ack_get(self, dst: int) -> None:
        """Issue the acknowledging GET to remote address 0 (section 4.1).

        The reply copies nothing; it only increments this cell's
        acknowledge flag, and — because the T-net delivers in order per
        (source, destination) pair — proves every earlier PUT to ``dst``
        has been received.
        """
        nothing = StrideSpec.contiguous(0)
        self._transfer(CommandKind.GET, dst, 0, 0, nothing, nothing,
                       None, self.ack_flag, is_ack=True)

    def finish_puts(self) -> Iterator[None]:
        """Complete the Ack side of the Ack & Barrier model.

        Issues any deferred per-destination acknowledging GETs (under the
        LAST_PER_DEST policy) and waits until every expected acknowledge
        has arrived.  Callers typically follow with :meth:`barrier`.
        """
        for dst in self.acks.destinations_to_ack():
            self.ack_get(dst)
        yield from self.flag_wait(self.ack_flag, self.acks.expected_acks)
        self.acks.reset_phase()

    def flag_wait(self, flag: Flag, target: int) -> Iterator[None]:
        """Block until ``flag``'s counter on this cell reaches ``target``."""
        pe = self.pe
        flag_id = flag.id_on(pe)
        addr = flag.addr
        self._record(EventKind.FLAG_WAIT, pe, flag=flag_id,
                     target=int(target))
        # Note the wait so a hang report (and the static analyzer's wedge
        # finding) can say which flag this cell is stuck on.
        blocked = self.machine.blocked
        blocked[pe] = ("flag_wait", flag_id, int(target), addr)
        read_flag = self.hw.mc.read_flag
        while read_flag(addr) < target:
            yield
        blocked.pop(pe, None)
        self.machine.note_progress()

    # ------------------------------------------------------------------
    # SEND / RECEIVE (two-sided model, section 4.3)
    # ------------------------------------------------------------------

    def _post(self, dst: int, payload: bytes, context: int) -> Packet:
        """Hand one two-sided message to the transport; the returned
        packet carries the serial SEND and RECEIVE events match on."""
        return self.hw.msc.send_message(dst, payload, context=context)

    def send(self, dst: int, data: np.ndarray | bytes, *,
             context: int = 0) -> None:
        """Blocking SEND into the destination cell's ring buffer."""
        payload = (data.tobytes() if isinstance(data, np.ndarray)
                   else bytes(data))
        packet = self._post(dst, payload, context)
        self._trace(EventKind.SEND, partner=dst, size=len(payload),
                    msg_id=packet.serial)
        self.machine.pump()

    def recv(self, src: int | None = None, context: int | None = None,
             in_place: bool = False) -> Iterator[None]:
        """RECEIVE: block until a matching message is in the ring buffer.

        Returns the :class:`~repro.network.packet.Packet`; with
        ``in_place`` the message is consumed directly out of the ring
        (no user-area copy — the vector-reduction path of section 4.5).
        """
        taker = self.ring.consume_in_place if in_place else self.ring.receive
        blocked = self.machine.blocked
        while True:
            packet = taker(src=src, context=context)
            if packet is not None:
                break
            blocked[self.pe] = ("recv", src, context)
            yield
        blocked.pop(self.pe, None)
        self.machine.note_progress()
        self._trace(EventKind.RECV, partner=packet.src,
                    size=packet.payload_bytes, msg_id=packet.serial)
        return packet

    def recv_array(self, dtype, src: int | None = None,
                   context: int | None = None) -> Iterator[None]:
        """RECEIVE and decode the payload as a numpy array."""
        packet = yield from self.recv(src=src, context=context)
        return np.frombuffer(packet.data or b"", dtype=dtype).copy()

    # ------------------------------------------------------------------
    # Barrier and global reductions
    # ------------------------------------------------------------------

    def make_group(self, members) -> Group:
        """Register (or look up) a synchronization group."""
        key = tuple(sorted(set(int(m) for m in members)))
        gid = self.machine.trace.groups.intern(key)
        return Group(gid=gid, members=key)

    def barrier(self, group: Group | None = None) -> Iterator[None]:
        """Barrier-synchronize with the group (default: all cells).

        The all-cells barrier rides the S-net in hardware; group barriers
        run in software over communication registers — MLSim charges them
        differently, the functional semantics are the same.
        """
        grp = group or self.world
        self._record(EventKind.BARRIER, self.pe, group=grp.gid,
                     group_size=grp.size)
        machine = self.machine
        generation = machine.barrier_arrive(grp, self.pe)
        while not machine.barrier_passed(grp.gid, generation):
            machine.blocked[self.pe] = ("barrier", grp.gid, grp.members)
            yield
        machine.blocked.pop(self.pe, None)
        machine.note_progress()

    def gop(self, value: float, op: str = "sum",
            group: Group | None = None) -> Iterator[None]:
        """Scalar global reduction; every member receives the result."""
        grp = group or self.world
        self._trace(EventKind.GOP, group=grp.gid, group_size=grp.size, size=8)
        result = yield from self.machine.reduce(grp, self.pe, float(value), op)
        return result

    def vgop(self, vector: np.ndarray, op: str = "sum",
             group: Group | None = None) -> Iterator[None]:
        """Vector global reduction (element-wise); returns a new array.

        On the AP1000+ this runs over ring buffers with SEND/RECEIVE
        (section 4.5); the probe records it as one "V Gop" event with the
        vector size, as the paper's Table 3 does.
        """
        grp = group or self.world
        self._trace(EventKind.VGOP, group=grp.gid, group_size=grp.size,
                    size=int(vector.nbytes))
        result = yield from self.machine.reduce(
            grp, self.pe, np.array(vector, copy=True), op)
        return np.array(result, copy=True)

    # ------------------------------------------------------------------
    # Distributed shared memory and communication registers
    # ------------------------------------------------------------------

    def _remote_store(self, dst: int, raddr: int, raw: bytes) -> None:
        """Hardware remote STORE of ``raw`` to ``raddr`` on ``dst``."""
        self._trace_word(EventKind.REMOTE_STORE, dst, raddr, len(raw))
        self.machine.remote_store(self.pe, dst, raddr, raw)

    def _remote_load(self, src_pe: int, raddr: int, size: int) -> bytes:
        """Hardware remote LOAD of ``size`` bytes at ``raddr`` on
        ``src_pe`` (the processor stalls until the reply)."""
        self._trace_word(EventKind.REMOTE_LOAD, src_pe, raddr, size)
        return self.machine.remote_load(self.pe, src_pe, raddr, size)

    def _trace_word(self, kind: EventKind, partner: int, raddr: int,
                    size: int) -> None:
        self._record(kind, self.pe, partner, size, ranges=(
            (raddr, size, 1, max(size, 1)) + _NO_SIDE
            if self.machine.sanitize else None))

    def remote_store_word(self, dst: int, array: LocalArray,
                          offset: int, value: float) -> None:
        """Non-blocking remote STORE of one element into ``dst``'s instance
        of a symmetric array (hardware-generated, section 4.2)."""
        self._remote_store(dst, array.element_addr(offset),
                           np.array([value], dtype=array.dtype).tobytes())

    def remote_load_word(self, src_pe: int, array: LocalArray,
                         offset: int) -> float:
        """Blocking remote LOAD of one element from ``src_pe``."""
        raw = self._remote_load(src_pe, array.element_addr(offset),
                                array.itemsize)
        return np.frombuffer(raw, dtype=array.dtype)[0]

    def _creg_store(self, dst: int, index: int, value: int) -> None:
        self.machine.hw_cells[dst].mc.registers.store(index, value)
        self.machine.wake(dst)

    def _creg_try_load(self, index: int) -> int | None:
        return self.hw.mc.registers.try_load(index)

    def creg_store(self, dst: int, index: int, value: int) -> None:
        """Store into a communication register on ``dst`` (remote store to
        shared space; sets the register's p-bit)."""
        self._trace(EventKind.CREG_STORE, partner=dst, size=4)
        self._creg_store(dst, index, value)
        self.machine.note_progress()

    def creg_load(self, index: int) -> Iterator[None]:
        """Load from an own communication register, blocking until its
        p-bit is set (hardware retry, section 4.4)."""
        self._trace(EventKind.CREG_LOAD, partner=self.pe, size=4)
        blocked = self.machine.blocked
        while True:
            value = self._creg_try_load(index)
            if value is not None:
                break
            blocked[self.pe] = ("creg_load", index)
            yield
        blocked.pop(self.pe, None)
        self.machine.note_progress()
        return value

    # ------------------------------------------------------------------
    # Write-through pages (section 4.2)
    # ------------------------------------------------------------------

    def wt_bind(self, home: int, array: LocalArray) -> Iterator[None]:
        """Bind ``home``'s instance of a symmetric array into local
        write-through pages and fetch the initial copy.

        Returns a :class:`WriteThroughArray`: reads are local (no
        communication event at all — the replaced remote access), writes
        go through to the home cell, and :meth:`wt_refresh` revalidates
        the copy after a synchronization point.
        """
        from repro.hardware.wtpage import WT_PAGE_BYTES, WriteThroughPageTable

        if self._wt_table is None:
            self._wt_table = WriteThroughPageTable()
        table = self._wt_table
        span_base = array.addr - array.addr % WT_PAGE_BYTES
        span_end = -(-(array.addr + array.nbytes) // WT_PAGE_BYTES) \
            * WT_PAGE_BYTES
        span = span_end - span_base
        copy = self.machine.alloc_private(self.pe, span, align=WT_PAGE_BYTES)
        for off in range(0, span, WT_PAGE_BYTES):
            table.bind(home, span_base + off, copy.addr + off)
        handle = WriteThroughArray(ctx=self, home=home, array=array,
                                   copy=copy, span_base=span_base)
        yield from self.wt_refresh(handle, initial=True)
        return handle

    def wt_refresh(self, handle: "WriteThroughArray", *,
                   initial: bool = False) -> Iterator[None]:
        """Re-fetch the bound pages from the home cell (software
        coherence: call after a barrier when the home data may have
        changed)."""
        assert self._wt_table is not None and self._wt_flag is not None
        spec = StrideSpec.contiguous(handle.copy.nbytes)
        self._transfer(CommandKind.GET, handle.home, handle.span_base,
                       handle.copy.addr, spec, spec, None, self._wt_flag)
        self._wt_fetches += 1
        yield from self.flag_wait(self._wt_flag, self._wt_fetches)
        if not initial:
            self._wt_table.note_refresh()

    # ------------------------------------------------------------------
    # Checkpoint sites (repro.ckpt)
    # ------------------------------------------------------------------

    def ckpt_state(self, **defaults) -> CkptState:
        """Declare this program's checkpointable loop state.

        Call once, before the main loop, naming every variable that must
        survive a restart with its fresh-run initial value.  On a fresh
        run the returned bag holds exactly those defaults and ``fresh``
        is True; on a run restored from a snapshot it holds the captured
        values (plus defaults for any field added since the capture) and
        ``fresh`` is False.
        """
        saved = None
        restore = self.machine._restore_states
        if restore is not None:
            saved = restore.get(self.pe)
        fields = dict(defaults)
        if saved is not None:
            fields.update(saved)
        st = CkptState(fresh=saved is None, fields=fields)
        self._ckpt_st = st
        return st

    def checkpoint(self, *, barrier: bool = False,
                   group: Group | None = None) -> Iterable[None]:
        """A cooperative checkpoint site (the gate of :mod:`repro.ckpt`).

        Place at the *end* of each main-loop iteration, after the bag
        from :meth:`ckpt_state` has been advanced past the work just
        done — a snapshot captured here then resumes at the next
        iteration without repeating (or losing) any traced work.  With
        ``barrier=True`` the site subsumes the loop's trailing barrier,
        so cell programs pay nothing extra for being checkpointable.

        While the machine's gate is disarmed (no ``checkpoint_every``,
        no ambient policy, no checkpoint directory an interrupt could
        land a snapshot in) a barrier-less site is this one test and an
        empty ``yield from``: no generator, no counter, trace-invisible.
        The test runs on every call, so a gate armed mid-run still parks
        each cell at its next site.  Armed, each cell parks at its
        threshold-th site until every live cell has arrived and the
        machine captures.
        """
        m = self.machine
        if (not barrier and m.checkpoint_dir is None
                and m._ckpt_threshold is None and not m._ckpt_oneshot):
            return ()
        return self._checkpoint_site(barrier, group)

    def _checkpoint_site(self, barrier: bool,
                         group: Group | None) -> Iterator[None]:
        if barrier:
            yield from self.barrier(group)
        m = self.machine
        m._ckpt_poll_interrupt()
        if not m._ckpt_enabled():
            return
        m._ckpt_counts[self.pe] += 1
        if not m._ckpt_armed_for(self.pe):
            return
        m._gate_parked.add(self.pe)
        try:
            while m._ckpt_armed_for(self.pe):
                yield
        finally:
            m._gate_parked.discard(self.pe)
        m.note_progress()
