"""The scalar MLSim engine: the oracle ``replay_columns`` is held to.

One object per event, one method per event kind, every cost a
:mod:`repro.mlsim.put_model` call: slow, obviously the rule set of
``docs/TIMING_MODEL.md``, and until PR 24 ``repro.mlsim.engine`` — the
engine behind timelines and link contention.  The production engine
(:mod:`repro.mlsim.engine_soa`) does both now, and
``test_soa_equivalence.py`` holds it to this file bit for bit: results,
metric documents, span / flow / instant / phase logs and contended
arrivals, on real workloads and on generated traces.  Nothing under
``src/`` imports it (``tests/machine/test_scheduler.py`` checks).

Each PE walks its own trace, accumulating time into the four buckets of
section 5.3; a PE that reaches a wait it cannot satisfy yet *parks*, and
the PE whose progress satisfies the condition wakes it.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from repro.core.errors import SimulationError
from repro.machine.config import SPARC_US_PER_FLOP
from repro.mlsim.breakdown import MLSimResult, PEBreakdown
from repro.mlsim.params import MLSimParams
from repro.mlsim import put_model as pm
from repro.network.topology import TorusTopology
from repro.obs.registry import REPLAY_SCHEMA, Histogram
from repro.trace.buffer import TraceBuffer
from repro.mlsim.timeline import Flow, Instant, PhaseMark, Span
from repro.trace.events import EventKind, TraceEvent
from tests.trace.views import events_for


class ReferenceTimeline:
    """The log as row objects, in the order the engine made them."""

    def __init__(self, num_pes: int) -> None:
        self.num_pes = num_pes
        self._spans: list[list[Span]] = [[] for _ in range(num_pes)]
        self.flows: list[Flow] = []
        self.instants: list[Instant] = []
        self.phase_marks: list[PhaseMark] = []

    def add(self, span: Span) -> None:
        if span.duration > 0:
            self._spans[span.pe].append(span)

    def spans_for(self, pe: int) -> list[Span]:
        return self._spans[pe]


class _MetricsAccum:
    """Replay-side metric accumulation (repro.obs).

    Per-link busy time follows the same store-and-forward convention as
    :meth:`MLSimEngine._contended_arrival`: a message's wire time is
    charged to every physical link on its dimension-order route, an
    upper bound that exposes hot links.
    """

    def __init__(self, num_pes: int) -> None:
        self.flag_wait = Histogram()
        self.barrier_wait = Histogram()
        self.dma_busy = [0.0] * num_pes
        self.link_busy: dict[tuple[int, int], float] = {}
        self.link_bytes: dict[tuple[int, int], int] = {}
        self.link_frames: dict[tuple[int, int], int] = {}
        self.instants = {"RETRY": 0, "TIMEOUT": 0, "SPILL": 0}


@dataclass
class _PEState:
    pe: int
    events: list[TraceEvent]
    cursor: int = 0
    clock: float = 0.0
    buckets: PEBreakdown = field(default_factory=PEBreakdown)
    pending_theft: float = 0.0
    attempted: bool = False  # current event already charged its prolog

    @property
    def finished(self) -> bool:
        return self.cursor >= len(self.events)


class MLSimEngine:
    """Replays one trace under one parameter set."""

    def __init__(self, trace: TraceBuffer, params: MLSimParams,
                 topology: TorusTopology | None = None, *,
                 link_contention: bool = False,
                 record_timeline: bool = False,
                 collect_metrics: bool = False) -> None:
        if topology is None:
            topology = TorusTopology.for_cells(trace.num_pes)
        if topology.num_cells != trace.num_pes:
            raise SimulationError(
                f"topology has {topology.num_cells} cells but trace has "
                f"{trace.num_pes} PEs")
        self.trace = trace
        self.p = params
        self.topology = topology
        #: Optional extension beyond the paper's MLSim (which models the
        #: network with delay parameters only): serialize messages that
        #: share a physical T-net link.  Approximate — see
        #: :meth:`_contended_arrival`.
        self.link_contention = link_contention
        self._link_free: dict[tuple[int, int], float] = {}
        self._route_cache: dict[tuple[int, int], tuple] = {}
        #: Optional span log (see repro.mlsim.timeline).
        self.timeline = None
        if record_timeline:
            self.timeline = ReferenceTimeline(trace.num_pes)
        #: Optional replay metric accumulation (repro.obs).
        self.collect = _MetricsAccum(trace.num_pes) if collect_metrics \
            else None
        self.pes = [_PEState(pe, events_for(trace, pe))
                    for pe in range(trace.num_pes)]
        # --- shared registries -----------------------------------------
        self._flag_times: dict[int, list[float]] = {}
        self._flag_waiters: dict[int, list[tuple[int, int]]] = {}
        self._barrier_gen: dict[tuple[int, int], int] = {}   # (pe, gid)
        self._coll_gen: dict[tuple[int, int], int] = {}
        self._barrier_arrivals: dict[tuple[int, int], dict[int, float]] = {}
        self._barrier_release: dict[tuple[int, int], float] = {}
        self._coll_arrivals: dict[tuple[int, int], dict[int, float]] = {}
        self._coll_release: dict[tuple[int, int], float] = {}
        self._slot_waiters: dict[tuple, list[int]] = {}
        self._ring_arrival: dict[int, float] = {}
        self._ring_waiters: dict[int, int] = {}
        self._chan_last: dict[tuple[int, int], tuple[float, float]] = {}
        self._dist_cache: dict[tuple[int, int], int] = {}
        self._runnable: deque[int] = deque()
        self._queued: set[int] = set()
        self.messages = 0
        self.bytes_on_wire = 0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def run(self) -> MLSimResult:
        for pe in range(len(self.pes)):
            self._enqueue(pe)
        while self._runnable:
            pe = self._runnable.popleft()
            self._queued.discard(pe)
            self._advance(self.pes[pe])
        unfinished = [st.pe for st in self.pes if not st.finished]
        if unfinished:
            raise SimulationError(
                f"replay deadlock: PEs {unfinished[:16]} parked forever "
                "(trace and timing model disagree)")
        result = MLSimResult(
            model_name=self.p.name,
            per_pe=[st.buckets for st in self.pes],
            messages=self.messages,
            bytes_on_wire=self.bytes_on_wire,
        )
        for st in self.pes:
            st.buckets.clock = st.clock
        if self.collect is not None:
            self._charge_messages()
            result.metrics = self._metrics_dict()
        return result

    def _charge_messages(self) -> None:
        """DMA and link busy time, bytes and frames: what each message
        charges whatever the order of the replay, summed in trace-row
        order — PE by PE, each PE's events in order, a GET's request
        before its reply."""
        p = self.p
        dma_busy = self.collect.dma_busy
        for st in self.pes:
            for ev in st.events:
                if ev.kind not in (EventKind.PUT, EventKind.GET,
                                   EventKind.SEND):
                    continue
                dist = self._distance(st.pe, ev.partner)
                wire = pm.network_time(p, ev.size, dist)
                if ev.kind is EventKind.GET:
                    dma_busy[ev.partner] += pm.get_reply_service_time(
                        p, ev.size)
                    self._charge_links(st.pe, ev.partner,
                                       pm.network_time(p, 0, dist), 0)
                    self._charge_links(ev.partner, st.pe, wire, ev.size)
                else:
                    dma_busy[st.pe] += pm.dma_drain_time(p, ev.size)
                    self._charge_links(st.pe, ev.partner, wire, ev.size)

    def _metrics_dict(self) -> dict:
        """Render the accumulated replay metrics as a JSON document."""
        c = self.collect
        assert c is not None
        elapsed = max((st.clock for st in self.pes), default=0.0)
        links = {}
        for key in sorted(c.link_busy):
            busy = c.link_busy[key]
            links[f"{key[0]}->{key[1]}"] = {
                "busy_us": busy,
                "bytes": c.link_bytes[key],
                "frames": c.link_frames[key],
                "utilization": busy / elapsed if elapsed else 0.0,
            }
        dma_max = max(c.dma_busy, default=0.0)
        return {
            "schema": REPLAY_SCHEMA,
            "model": self.p.name,
            "elapsed_us": elapsed,
            "waits": {
                "flag_wait": c.flag_wait.to_dict(),
                "barrier_wait": c.barrier_wait.to_dict(),
            },
            "dma": {
                "busy_us": list(c.dma_busy),
                "busy_us_max": dma_max,
                "busy_fraction_max": dma_max / elapsed if elapsed else 0.0,
            },
            "links": links,
            "links_max_utilization": max(
                (v["utilization"] for v in links.values()), default=0.0),
            "robustness": dict(c.instants),
        }

    # ------------------------------------------------------------------
    # Scheduling plumbing
    # ------------------------------------------------------------------

    def _enqueue(self, pe: int) -> None:
        if pe not in self._queued:
            self._queued.add(pe)
            self._runnable.append(pe)

    def _advance(self, st: _PEState) -> None:
        while not st.finished:
            if not self._dispatch(st, st.events[st.cursor]):
                return  # parked; a waker will re-enqueue
            st.cursor += 1
            st.attempted = False

    def _distance(self, a: int, b: int) -> int:
        key = (a, b)
        hops = self._dist_cache.get(key)
        if hops is None:
            hops = self.topology.distance(a, b)
            self._dist_cache[key] = hops
        return hops

    # ------------------------------------------------------------------
    # Time accounting helpers
    # ------------------------------------------------------------------

    def _apply_theft(self, st: _PEState) -> None:
        if st.pending_theft:
            self._span(st, st.pending_theft, "overhead", "stolen-interrupt")
            st.clock += st.pending_theft
            st.buckets.overhead += st.pending_theft
            st.pending_theft = 0.0

    def _span(self, st: _PEState, duration: float, bucket: str,
              label: str | None = None) -> None:
        if self.timeline is not None and duration > 0:
            self.timeline.add(Span(
                pe=st.pe, start=st.clock, end=st.clock + duration,
                bucket=bucket,
                label=label or getattr(st, "current_label", "?")))

    def _busy(self, st: _PEState, duration: float, bucket: str) -> None:
        self._span(st, duration, bucket)
        st.clock += duration
        setattr(st.buckets, bucket, getattr(st.buckets, bucket) + duration)

    def _wait_until(self, st: _PEState, t: float) -> None:
        if t > st.clock:
            self._span(st, t - st.clock, "idle")
            st.buckets.idle += t - st.clock
            st.clock = t

    def _channel_arrival(self, src: int, dst: int, inject: float,
                         raw: float) -> float:
        """Clamp to per-channel FIFO order (static T-net routing).

        Ordering is by *injection* time.  Messages on one channel are
        usually discovered in injection order (a sender's trace is
        processed sequentially), and then each arrival is clamped behind
        the previous one.  A message discovered out of order — e.g. a GET
        reply, which is injected by the *target's* MSC+ the moment the
        request arrives, long before the target's own later sends are
        processed — was injected earlier than the current channel head
        and must NOT be clamped behind it.
        """
        key = (src, dst)
        if self.link_contention:
            raw = self._contended_arrival(src, dst, inject, raw)
        last_inject, last_arrival = self._chan_last.get(key, (-1.0, 0.0))
        if inject >= last_inject:
            arrival = max(raw, last_arrival)
            self._chan_last[key] = (inject, arrival)
        else:
            arrival = raw
        return arrival

    def _contended_arrival(self, src: int, dst: int, inject: float,
                           raw: float) -> float:
        """Serialize the message behind earlier traffic on shared links.

        Each physical link (an ordered pair of adjacent cells along the
        dimension-order route) is busy for the message's wire time; a
        message starting while any of its links is busy waits for the
        latest of them.  Approximation: contention is resolved in trace
        *processing* order, which is close to — but not exactly —
        global-time order; good enough to expose hot links, which is what
        the ablation quantifies.
        """
        if src == dst:
            return raw
        route = self._route_cache.get((src, dst))
        if route is None:
            route = tuple(self.topology.route(src, dst))
            self._route_cache[(src, dst)] = route
        wire = raw - inject   # prolog + per-hop delay + payload wire time
        busy = inject
        prev = src
        for node in route:
            busy = max(busy, self._link_free.get((prev, node), 0.0))
            prev = node
        start_delay = max(busy - inject, 0.0)
        arrival = raw + start_delay
        prev = src
        for node in route:
            self._link_free[(prev, node)] = inject + start_delay + wire
            prev = node
        return arrival

    def _charge_links(self, src: int, dst: int, wire_us: float,
                      nbytes: int) -> None:
        """Charge one message to every physical link on its route."""
        c = self.collect
        if c is None or src == dst:
            return
        route = self._route_cache.get((src, dst))
        if route is None:
            route = tuple(self.topology.route(src, dst))
            self._route_cache[(src, dst)] = route
        prev = src
        for node in route:
            key = (prev, node)
            c.link_busy[key] = c.link_busy.get(key, 0.0) + wire_us
            c.link_bytes[key] = c.link_bytes.get(key, 0) + nbytes
            c.link_frames[key] = c.link_frames.get(key, 0) + 1
            prev = node

    def _flow(self, src: int, depart: float, dst: int, arrival: float,
              kind: str, size: int) -> None:
        if self.timeline is not None:
            self.timeline.flows.append(Flow(
                src=src, depart=depart, dst=dst, arrival=arrival,
                kind=kind, size=size))

    def _record_flag(self, gid: int, t: float) -> None:
        if gid == 0:
            return
        times = self._flag_times.setdefault(gid, [])
        insort(times, t)
        waiters = self._flag_waiters.get(gid)
        if waiters:
            still = []
            for pe, target in waiters:
                if len(times) >= target:
                    self._enqueue(pe)
                else:
                    still.append((pe, target))
            self._flag_waiters[gid] = still

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, st: _PEState, ev: TraceEvent) -> bool:
        if self.timeline is not None:
            st.current_label = (f"{ev.kind.name}->{ev.partner}"
                                if ev.partner >= 0 else ev.kind.name)
        kind = ev.kind
        if kind is EventKind.COMPUTE:
            self._apply_theft(st)
            self._busy(st, ev.work * self.p.computation_factor, "execution")
            return True
        if kind is EventKind.RTSYS:
            self._apply_theft(st)
            self._busy(st, ev.work * self.p.computation_factor, "rtsys")
            return True
        if kind is EventKind.PUT:
            return self._do_put(st, ev)
        if kind is EventKind.GET:
            return self._do_get(st, ev)
        if kind is EventKind.FLAG_WAIT:
            return self._do_flag_wait(st, ev)
        if kind is EventKind.SEND:
            return self._do_send(st, ev)
        if kind is EventKind.RECV:
            return self._do_recv(st, ev)
        if kind is EventKind.BARRIER:
            return self._do_barrier(st, ev)
        if kind in (EventKind.GOP, EventKind.VGOP):
            return self._do_reduction(st, ev)
        if kind is EventKind.REMOTE_LOAD:
            self._apply_theft(st)
            self._busy(st, self.p.remote_access_time, "overhead")
            dist = self._distance(st.pe, ev.partner)
            round_trip = (pm.network_time(self.p, 0, dist)
                          + pm.get_reply_service_time(self.p, ev.size)
                          + pm.network_time(self.p, ev.size, dist))
            self._wait_until(st, st.clock + round_trip)
            self.messages += 2
            return True
        if kind is EventKind.REMOTE_STORE:
            self._apply_theft(st)
            self._busy(st, self.p.remote_access_time, "overhead")
            self.pes[ev.partner].pending_theft += pm.recv_cpu_theft(
                self.p, ev.size)
            self.messages += 1
            self.bytes_on_wire += ev.size
            return True
        if kind in (EventKind.CREG_STORE, EventKind.CREG_LOAD):
            self._apply_theft(st)
            self._busy(st, self.p.creg_access_time, "overhead")
            return True
        if kind in (EventKind.RETRY, EventKind.TIMEOUT, EventKind.SPILL):
            # Robustness bookkeeping from repro.faults: the link layer and
            # the queue spill hardware run concurrently with the processor,
            # so replay charges no time for them.
            if self.collect is not None:
                self.collect.instants[kind.name] += 1
            if self.timeline is not None:
                self.timeline.instants.append(Instant(
                    pe=st.pe, t=st.clock, name=kind.name))
            return True
        if kind is EventKind.PHASE:
            # User phase annotation (repro.obs): zero simulated time.
            if self.timeline is not None:
                self.timeline.phase_marks.append(PhaseMark(
                    pe=st.pe, t=st.clock,
                    label=self.trace.phase_label(ev.flag)))
            return True
        raise SimulationError(f"unknown trace event kind {kind}")

    # ------------------------------------------------------------------
    # PUT / GET
    # ------------------------------------------------------------------

    def _do_put(self, st: _PEState, ev: TraceEvent) -> bool:
        self._apply_theft(st)
        p = self.p
        self._busy(st, pm.put_send_cpu_time(p, ev.size), "overhead")
        depart = st.clock + pm.send_dma_setup_time(p)
        drain = pm.dma_drain_time(p, ev.size)
        if ev.send_flag:
            self._record_flag(
                ev.send_flag,
                depart + drain + pm.send_complete_to_flag_time(p))
        st.pending_theft += pm.send_complete_cpu_theft(p)
        dist = self._distance(st.pe, ev.partner)
        arrival = self._channel_arrival(
            st.pe, ev.partner, depart,
            depart + pm.network_time(p, ev.size, dist))
        if ev.recv_flag:
            self._record_flag(
                ev.recv_flag, arrival + pm.recv_flag_update_time(p, ev.size))
        self.pes[ev.partner].pending_theft += pm.recv_cpu_theft(p, ev.size)
        self._flow(st.pe, depart, ev.partner, arrival, "PUT", ev.size)
        self.messages += 1
        self.bytes_on_wire += ev.size
        return True

    def _do_get(self, st: _PEState, ev: TraceEvent) -> bool:
        self._apply_theft(st)
        p = self.p
        self._busy(st, pm.get_send_cpu_time(p, ev.size), "overhead")
        depart = st.clock + pm.send_dma_setup_time(p)
        if ev.send_flag:
            self._record_flag(
                ev.send_flag, depart + pm.send_complete_to_flag_time(p))
        dist = self._distance(st.pe, ev.partner)
        req_arrival = self._channel_arrival(
            st.pe, ev.partner, depart, depart + pm.network_time(p, 0, dist))
        reply_depart = req_arrival + pm.get_reply_service_time(p, ev.size)
        self.pes[ev.partner].pending_theft += pm.get_reply_cpu_theft(
            p, ev.size)
        reply_arrival = self._channel_arrival(
            ev.partner, st.pe, reply_depart,
            reply_depart + pm.network_time(p, ev.size, dist))
        if ev.recv_flag:
            self._record_flag(
                ev.recv_flag,
                reply_arrival + pm.recv_flag_update_time(p, ev.size))
        st.pending_theft += pm.recv_cpu_theft(p, ev.size)
        self._flow(st.pe, depart, ev.partner, req_arrival, "GET", 0)
        self._flow(ev.partner, reply_depart, st.pe, reply_arrival,
                   "GET-REPLY", ev.size)
        self.messages += 2
        self.bytes_on_wire += ev.size
        return True

    # ------------------------------------------------------------------
    # Waits
    # ------------------------------------------------------------------

    def _do_flag_wait(self, st: _PEState, ev: TraceEvent) -> bool:
        p = self.p
        if not st.attempted:
            self._apply_theft(st)
            self._busy(st, p.flag_check_prolog_time, "overhead")
            st.attempted = True
        target = ev.target
        if target <= 0:
            self._busy(st, p.flag_check_epilog_time, "overhead")
            return True
        times = self._flag_times.get(ev.flag, [])
        if len(times) < target:
            self._flag_waiters.setdefault(ev.flag, []).append((st.pe, target))
            return False
        if self.collect is not None:
            self.collect.flag_wait.observe(
                max(times[target - 1] - st.clock, 0.0))
        self._wait_until(st, times[target - 1])
        self._busy(st, p.flag_check_epilog_time, "overhead")
        return True

    # ------------------------------------------------------------------
    # SEND / RECEIVE
    # ------------------------------------------------------------------

    def _do_send(self, st: _PEState, ev: TraceEvent) -> bool:
        self._apply_theft(st)
        p = self.p
        self._busy(st, p.send_lib_time + pm.put_send_cpu_time(p, ev.size),
                   "overhead")
        depart = st.clock + pm.send_dma_setup_time(p)
        drain = pm.dma_drain_time(p, ev.size)
        # SEND is blocking: the library spins until the transfer leaves
        # the cell, and that wait counts as overhead (section 5.4, CG).
        blocked = depart + drain - st.clock
        if blocked > 0:
            self._busy(st, blocked, "overhead")
        dist = self._distance(st.pe, ev.partner)
        arrival = self._channel_arrival(
            st.pe, ev.partner, depart,
            depart + pm.network_time(p, ev.size, dist))
        ready = arrival + pm.recv_service_time(p, ev.size)
        self.pes[ev.partner].pending_theft += pm.recv_cpu_theft(p, ev.size)
        self._flow(st.pe, depart, ev.partner, arrival, "SEND", ev.size)
        self._ring_arrival[ev.msg_id] = ready
        waiter = self._ring_waiters.pop(ev.msg_id, None)
        if waiter is not None:
            self._enqueue(waiter)
        self.messages += 1
        self.bytes_on_wire += ev.size
        return True

    def _do_recv(self, st: _PEState, ev: TraceEvent) -> bool:
        p = self.p
        if not st.attempted:
            self._apply_theft(st)
            self._busy(st, p.recv_lib_time, "overhead")
            st.attempted = True
        ready = self._ring_arrival.get(ev.msg_id)
        if ready is None:
            self._ring_waiters[ev.msg_id] = st.pe
            return False
        self._wait_until(st, ready)
        self._busy(st, p.recv_copy_byte_time * ev.size, "overhead")
        return True

    # ------------------------------------------------------------------
    # Barrier and reductions
    # ------------------------------------------------------------------

    def _group_size(self, ev: TraceEvent) -> int:
        if ev.group_size:
            return ev.group_size
        assert self.trace.groups is not None
        return self.trace.groups.size(ev.group)

    def _do_barrier(self, st: _PEState, ev: TraceEvent) -> bool:
        p = self.p
        gid = ev.group
        size = self._group_size(ev)
        if not st.attempted:
            self._apply_theft(st)
            self._busy(st, p.barrier_lib_time, "overhead")
            gen = self._barrier_gen.get((st.pe, gid), 0)
            self._barrier_gen[(st.pe, gid)] = gen + 1
            slot = ("bar", gid, gen)
            arrivals = self._barrier_arrivals.setdefault((gid, gen), {})
            arrivals[st.pe] = st.clock
            st.attempted = True
            st.current_slot = slot  # type: ignore[attr-defined]
            if len(arrivals) == size:
                if gid == 0:
                    establish = p.barrier_net_time
                else:
                    # Software group barrier over communication registers.
                    rounds = math.ceil(math.log2(size)) if size > 1 else 0
                    establish = rounds * p.group_barrier_step_time
                release = max(arrivals.values()) + establish
                self._barrier_release[(gid, gen)] = release
                for waiter in self._slot_waiters.pop(slot, []):
                    self._enqueue(waiter)
        slot = st.current_slot  # type: ignore[attr-defined]
        _, gid, gen = slot
        release = self._barrier_release.get((gid, gen))
        if release is None:
            self._slot_waiters.setdefault(slot, []).append(st.pe)
            return False
        if self.collect is not None:
            self.collect.barrier_wait.observe(max(release - st.clock, 0.0))
        self._wait_until(st, release)
        return True

    def _reduction_duration(self, ev: TraceEvent,
                            size: int) -> tuple[float, float]:
        """(total duration, per-member CPU share) of one reduction."""
        p = self.p
        if ev.kind is EventKind.GOP:
            rounds = math.ceil(math.log2(size)) if size > 1 else 0
            duration = rounds * p.gop_step_time
            return duration, duration
        # VGOP: pipelined ring reduction over ring buffers with blocking
        # SEND/RECEIVE (section 4.5).  The vector streams around the ring
        # twice (reduce lap + result lap); per-stage library setup and hop
        # latency pay 2*(P-1) times on the critical path, but the vector's
        # wire time, the combining arithmetic, and (software model only)
        # the ring-buffer copy pipeline and pay roughly once each lap.
        nbytes = ev.size
        flops = nbytes / 8.0
        exec_us = flops * SPARC_US_PER_FLOP * p.computation_factor
        copy_us = 0.0 if p.hardware_put_get else p.recv_copy_byte_time * nbytes
        stage_setup = (p.send_lib_time + pm.put_send_cpu_time(p, 0)
                       + p.recv_lib_time)
        hop = pm.network_time(p, 0, 1)
        stages = 2 * max(size - 1, 0)
        wire = 2.0 * nbytes * p.put_msg_time
        duration = stages * (stage_setup + hop) + wire + exec_us + copy_us
        member_cpu = 2.0 * stage_setup + exec_us + copy_us
        return duration, member_cpu

    def _do_reduction(self, st: _PEState, ev: TraceEvent) -> bool:
        gid = ev.group
        size = self._group_size(ev)
        if not st.attempted:
            self._apply_theft(st)
            gen = self._coll_gen.get((st.pe, gid), 0)
            self._coll_gen[(st.pe, gid)] = gen + 1
            slot = ("red", gid, gen)
            arrivals = self._coll_arrivals.setdefault((gid, gen), {})
            arrivals[st.pe] = st.clock
            st.attempted = True
            st.current_slot = slot  # type: ignore[attr-defined]
            if len(arrivals) == size:
                duration, _cpu = self._reduction_duration(ev, size)
                release = max(arrivals.values()) + duration
                self._coll_release[(gid, gen)] = release
                for waiter in self._slot_waiters.pop(slot, []):
                    self._enqueue(waiter)
        slot = st.current_slot  # type: ignore[attr-defined]
        _, gid, gen = slot
        release = self._coll_release.get((gid, gen))
        if release is None:
            self._slot_waiters.setdefault(slot, []).append(st.pe)
            return False
        _duration, cpu_share = self._reduction_duration(ev, size)
        # The member is busy for its share of the reduction and idles for
        # the rest of the establishment window.
        self._busy(st, min(cpu_share, max(release - st.clock, 0.0)),
                   "overhead")
        self._wait_until(st, release)
        if ev.kind is EventKind.VGOP:
            self.messages += self._group_size(ev) - 1
            self.bytes_on_wire += ev.size * (self._group_size(ev) - 1)
        return True
