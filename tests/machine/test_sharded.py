"""Sharded multiprocess engine vs the serial wake-set loop.

The sharded engine must be invisible in every output — traces
(including sequence numbers, message serials, group and phase ids),
per-cell results, statistics, and memory digests byte-identical to a
serial run at every shard count — and must clean up every shared-
memory segment on every exit path.  Fault plans, armed checkpoint
gates and restores run serially, say so in ``machine.engine``, and
stay byte-identical.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import types

import pytest

from repro.apps.workloads import workload
from repro.ckpt.snapshot import resume_workload
from repro.core.errors import CommunicationError, DeadlockError
from repro.faults.chaos import (
    SMOKE_RECOVER_PARAMS,
    memory_digest,
    results_digest,
    run_under_plan,
    trace_digest,
)
from repro.faults.plan import FaultPlan
from repro.machine import sharded
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.shardmem import live_segment_names
from repro.network.packet import Packet, PacketKind
from repro.obs.observer import machine_metrics

from tests.programs import EVERY_OP, round_program

pytestmark = pytest.mark.skipif(
    not sharded.sharded_supported(),
    reason="platform lacks the fork start method")

#: Apps of the determinism matrix.  Cell counts are >= 7 so every
#: shard count below is valid, and the set covers pure compute (EP),
#: PUT + flag + barrier traffic (MatMul), and the all-blocking token
#: chain (RingShift).
CASES = {
    "EP": dict(num_cells=16, log2_pairs=10),
    "MatMul": dict(num_cells=9, n=27),
    "RingShift": dict(num_cells=16, hops=64),
}

SHARD_COUNTS = (1, 2, 4, 7)


def run_with(app, shards, monkeypatch):
    monkeypatch.setenv("REPRO_MACHINE_SHARDS", str(shards))
    return workload(app).runner(**CASES[app])


def strided(num_cells, shards):
    """Round-robin plan: cell ``pe`` lives on shard ``pe % shards``."""
    return [list(range(s, num_cells, shards)) for s in range(shards)]


class TestDeterminismMatrix:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("app", sorted(CASES))
    def test_byte_identical_at_every_shard_count(
            self, app, shards, monkeypatch):
        serial = run_with(app, 1, monkeypatch)
        shard = run_with(app, shards, monkeypatch)
        assert serial.verified and shard.verified
        # The shard count alone selects the engine (no silent fallback;
        # one shard is the serial wake-set loop) ...
        assert serial.machine.engine == {"loop": "wake-set",
                                         "fallback": None}
        if shards > 1:
            assert shard.machine.engine == {"loop": "sharded",
                                            "fallback": None}
            assert shard.machine.shard_report["shards"] == shards
        else:
            assert shard.machine.engine == serial.machine.engine
            assert not hasattr(shard.machine, "shard_report")
        # ... and the sharded engine is invisible in every output.
        assert trace_digest(serial.trace) == trace_digest(shard.trace)
        assert memory_digest(serial.machine) == \
            memory_digest(shard.machine)
        assert results_digest(serial.results) == \
            results_digest(shard.results)
        assert serial.statistics == shard.statistics

    @pytest.mark.parametrize(("app", "params"), [
        ("RingShift", dict(num_cells=8, hops=16)),
        ("MatMul", dict(num_cells=8, n=16))])
    def test_parent_holds_the_owning_workers_hardware(
            self, app, params, monkeypatch):
        # The hand-back is each owned cell's whole state(), not a
        # picked list of counters.  Flag increments are order-
        # independent and must match; TLB traffic depends on when a
        # shard drains a remote frame, so only its presence is claimed.
        monkeypatch.setenv("REPRO_MACHINE_SHARDS", "1")
        serial = workload(app).runner(**params).machine
        monkeypatch.setenv("REPRO_MACHINE_SHARDS", "2")
        shard = workload(app).runner(**params).machine
        assert shard.engine["loop"] == "sharded"
        assert machine_metrics(serial) == machine_metrics(shard)
        increments = [c.mc.flag_increments for c in serial.hw_cells]
        assert any(increments)
        assert [c.mc.flag_increments for c in shard.hw_cells] == increments
        for ours, theirs in zip(shard.hw_cells, serial.hw_cells):
            assert bool(ours.mc.mmu.walks) == bool(theirs.mc.mmu.walks)

    def test_strided_partitioner_same_bytes(self, monkeypatch):
        serial = run_with("MatMul", 1, monkeypatch)
        monkeypatch.setattr(sharded, "partition", strided)
        assert strided(7, 3) == [[0, 3, 6], [1, 4], [2, 5]]
        shard = run_with("MatMul", 3, monkeypatch)
        assert trace_digest(serial.trace) == trace_digest(shard.trace)
        assert serial.statistics == shard.statistics

    def test_small_odd_sized_rings_same_bytes(self, monkeypatch):
        # A ring size that is no multiple of 8 is rounded up, so every
        # mailbox window keeps its counters 8-byte aligned; a ring this
        # small also fills, which exercises the back-pressure path.
        serial = run_with("RingShift", 1, monkeypatch)
        monkeypatch.setattr(sharded, "DEFAULT_RING_BYTES", 1021)
        shard = run_with("RingShift", 4, monkeypatch)
        assert shard.machine.shard_report["shards"] == 4
        assert trace_digest(serial.trace) == trace_digest(shard.trace)
        assert memory_digest(serial.machine) == \
            memory_digest(shard.machine)


class TestInjectParity:
    """A packet a worker emulates across shards is accounted by the
    admission step a plugged ``TNet.inject`` uses, not by a copy."""

    def test_cross_and_intra_shard_traffic_count_alike(self, monkeypatch):
        # The same all-vocabulary rounds three ways: serial, contiguous
        # blocks (most partners share the shard) and round-robin (every
        # partner at distance 1 or 3 is on the other shard).
        def run(shards):
            machine = Machine(MachineConfig(
                num_cells=4, memory_per_cell=1 << 21, observe=True,
                shards=shards))
            return machine, machine.run(round_program, steps=EVERY_OP)

        serial, want = run(1)
        blocks, got_blocks = run(2)
        monkeypatch.setattr(sharded, "partition", strided)
        robin, got_robin = run(2)
        assert got_blocks == got_robin == want
        for shard in (blocks, robin):
            assert shard.engine["loop"] == "sharded"
            for name in ("injected_count", "delivered_count",
                         "_next_serial"):
                assert getattr(shard.tnet, name) == \
                    getattr(serial.tnet, name) > 0
            # SEND events carry the packet's serial as msg_id, and the
            # observer's link table is charged once per admitted packet.
            assert trace_digest(shard.trace) == trace_digest(serial.trace)
            assert machine_metrics(shard)["network"] == \
                machine_metrics(serial)["network"]

    def test_emulated_crossing_is_the_plugged_admission(self):
        def frames():
            return [Packet(kind=PacketKind.REMOTE_STORE_ACK, src=src,
                           dst=dst, payload_bytes=0)
                    for src, dst in [(0, 3), (2, 1), (0, 3), (3, 3)]]

        def counters(machine):
            tnet = machine.tnet
            return (tnet.injected_count, tnet.delivered_count,
                    tnet._next_serial, machine.obs.link_frames,
                    machine.obs.link_bytes)

        plugged, worker = (
            Machine(MachineConfig(num_cells=4, memory_per_cell=1 << 21,
                                  observe=True)) for _ in range(2))
        shard = types.SimpleNamespace(machine=worker)
        for ours, theirs in zip(frames(), frames()):
            plugged.tnet.inject(ours)
            sharded._ShardState.inject_parity(shard, theirs)
            assert ours.serial == theirs.serial >= 0
        assert counters(plugged) == counters(worker)
        assert counters(worker)[:3] == (4, 4, 4)
        # A refused packet is refused alike and draws no serial.
        for send in (plugged.tnet.inject,
                     lambda p: sharded._ShardState.inject_parity(shard, p)):
            stray = Packet(kind=PacketKind.PUT, src=0, dst=4,
                           payload_bytes=0)
            with pytest.raises(CommunicationError, match="outside"):
                send(stray)
            assert stray.serial == -1
        assert counters(plugged) == counters(worker)
        assert counters(worker)[:3] == (4, 4, 4)


class TestFallbacks:
    """Configurations the sharded engine refuses run serially, say why
    in ``machine.engine`` — and still produce the same bytes."""

    STORM = FaultPlan(name="storm", seed=2718, drop_rate=0.05,
                      dup_rate=0.05, corrupt_rate=0.05, delay_rate=0.1)

    def test_fault_plan_falls_back_byte_identically(self, monkeypatch):
        serial = run_under_plan("MatMul", self.STORM, cells=4)
        monkeypatch.setenv("REPRO_MACHINE_SHARDS", "2")
        shard = run_under_plan("MatMul", self.STORM, cells=4)
        assert shard.machine.engine == {"loop": "wake-set",
                                        "fallback": "fault plan"}
        assert not hasattr(shard.machine, "shard_report")
        assert trace_digest(serial.trace) == trace_digest(shard.trace)
        assert memory_digest(serial.machine) == \
            memory_digest(shard.machine)

    def test_armed_checkpoint_falls_back_byte_identically(self):
        serial, shard = (workload("MatMul").runner(
            config=MachineConfig(shards=shards, checkpoint_every=1),
            **CASES["MatMul"]) for shards in (1, 2))
        assert shard.machine.ckpt_seq > 0
        assert shard.machine.engine == {"loop": "wake-set",
                                        "fallback": "armed checkpoint"}
        assert trace_digest(serial.trace) == trace_digest(shard.trace)

    def test_checkpoint_resume_falls_back_byte_identically(
            self, tmp_path, monkeypatch):
        params = dict(SMOKE_RECOVER_PARAMS["MatMul"])
        cells = params.pop("num_cells")
        first = workload("MatMul").run(
            num_cells=cells, config=MachineConfig(
                checkpoint_every=1, checkpoint_dir=str(tmp_path)), **params)
        assert first.machine.ckpt_seq > 1
        snapshot = sorted(tmp_path.iterdir())[0]

        serial = resume_workload(snapshot)
        monkeypatch.setenv("REPRO_MACHINE_SHARDS", "2")
        shard = resume_workload(snapshot)
        assert serial.verified and shard.verified
        assert shard.machine.engine == {"loop": "wake-set",
                                        "fallback": "restored machine"}
        assert not hasattr(shard.machine, "shard_report")
        assert memory_digest(serial.machine) == \
            memory_digest(shard.machine)
        assert results_digest(serial.results) == \
            results_digest(shard.results)


def wildcard_recv(ctx):
    if ctx.pe == 1:
        ctx.send(0, 3.14)
    elif ctx.pe == 0:
        yield from ctx.recv()  # no src: timing-dependent across shards
    yield from ctx.barrier()


def wedge(ctx):
    flag = ctx.alloc_flag()
    yield from ctx.barrier()
    if ctx.pe == 0:
        yield from ctx.flag_wait(flag, 1)
    yield from ctx.barrier()


def make(shards, **kw):
    kw.setdefault("num_cells", 4)
    kw.setdefault("memory_per_cell", 1 << 21)
    return Machine(MachineConfig(shards=shards, **kw))


class TestRefusalsAndDeadlock:
    def test_wildcard_recv_raises(self):
        with pytest.raises(CommunicationError, match="src"):
            make(2).run(wildcard_recv)

    def test_cross_shard_deadlock_detected(self):
        with pytest.raises(DeadlockError, match="quiescent"):
            make(2).run(wedge)

    def test_segments_unlinked_after_deadlock(self):
        assert live_segment_names() == []


class TestPartitioners:
    def test_contiguous_balanced_blocks(self):
        assert sharded.partition(10, 3) == \
            [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]


class TestEngineSelection:
    """``shards`` is the one setting (the matrix above selects the
    engine with ``REPRO_MACHINE_SHARDS`` alone); what it cannot get, it
    reports."""

    def test_used_machine_says_why_it_ran_serially(self):
        machine = make(2)
        machine.run(lambda ctx: ctx.alloc(4))
        assert machine.engine["loop"] == "sharded"
        machine.run(lambda ctx: ctx.pe)
        assert machine.engine == {"loop": "wake-set",
                                  "fallback": "machine already used"}


_KILL_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.apps.latency import run_ring_shift
print("READY", flush=True)
run_ring_shift(16, hops=200000)
"""


class TestTermCleanup:
    """SIGTERM mid-run must not leak /dev/shm segments (the chained
    handler unlinks before the process dies)."""

    def test_sigterm_mid_run_leaves_no_segments(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        before = set(os.listdir("/dev/shm"))
        env = dict(os.environ, REPRO_MACHINE_SHARDS="2")
        proc = subprocess.Popen(
            [sys.executable, "-c",
             _KILL_CHILD.format(src=os.path.abspath(src))],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            assert proc.stdout.readline().strip() == "READY"
            time.sleep(1.0)  # well inside the multi-second run
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode != 0  # it died mid-run, not normally
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = set(os.listdir("/dev/shm")) - before
            if not leaked:
                break
            time.sleep(0.2)  # workers may still be exiting
        assert leaked == set(), f"segments leaked: {sorted(leaked)}"
