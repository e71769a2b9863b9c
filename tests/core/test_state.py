"""``repro.core.state``: every stateful part round-trips *all* of its
attributes through ``state()`` / ``load_state()``, and nobody keeps a
second list of what those attributes are."""

from __future__ import annotations

import copy
import itertools
import pickle
import re
from collections import deque
from pathlib import Path

import pytest

import repro
from repro.core.state import Stateful
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.network.packet import Packet, PacketKind
from repro.network.tnet import TNet

PLAN = FaultPlan(name="quiet", seed=5)


def build(plan):
    return Machine(MachineConfig(num_cells=4, memory_per_cell=1 << 21,
                                 fault_plan=plan))


def parts(machine):
    """One instance of every stateful class a machine is built from."""
    cell = machine.hw_cells[1]
    msc, mc = cell.msc, cell.mc
    found = [cell, msc, msc.stats, msc.user_send_queue, msc.recv_dma, mc,
             mc.mmu, mc.mmu.tlb_256k, mc.registers, cell.cache,
             machine.rings[1], machine.bnet, machine.snet]
    if machine.fault_plan is not None:
        found += [machine.tnet, machine.tnet.stats]
    else:
        # A perfect machine's T-net is plugged into its cells and never
        # holds a frame; the wire's state is a bare network's.
        assert machine.tnet.ports is not None
        found.append(TNet(machine.topology))
    return {type(part).__name__: part for part in found}


PLAIN = parts(build(None))
FAULTY = parts(build(PLAN))
CLASSES = sorted(PLAIN) + sorted(set(FAULTY) - set(PLAIN))


def perturb(part, fresh_values):
    """Give every non-wiring attribute, nested parts included, a value
    no fresh machine has."""
    for name, value in vars(part).items():
        if name in part._wiring:
            continue
        mark = next(fresh_values)
        if isinstance(value, Stateful):
            perturb(value, fresh_values)
        elif isinstance(value, bool):
            setattr(part, name, not value)
        elif isinstance(value, (int, float, type(None))):
            setattr(part, name, mark)
        elif isinstance(value, str):
            setattr(part, name, f"{value}-{mark}")
        elif isinstance(value, (list, deque, dict)):
            # Grow the containers inside it too (a second pass finds
            # the ones the first put there), then the container itself.
            inner = value.values() if isinstance(value, dict) else value
            for item in inner:
                if isinstance(item, (list, deque)):
                    item.append(mark)
            if isinstance(value, dict):
                value[mark] = deque([mark])
            else:
                value.append([mark])
        elif isinstance(value, set):
            value.add(mark)
        else:
            pytest.fail(
                f"{type(part).__name__}.{name} holds a "
                f"{type(value).__name__}: make that class Stateful or "
                "declare the attribute in _wiring")


def visible(part):
    """``vars`` outside the declared wiring, nested parts likewise —
    read without ``state()``, which is what is under test."""
    return {name: visible(value) if isinstance(value, Stateful) else value
            for name, value in vars(part).items()
            if name not in part._wiring}


@pytest.mark.parametrize("name", CLASSES)
def test_every_attribute_round_trips(name):
    plan = None if name in PLAIN else PLAN
    part, fresh = parts(build(plan))[name], parts(build(plan))[name]
    if isinstance(part, TNet):
        for src, dst in [(2, 1), (0, 1), (2, 1)]:
            part.inject(Packet(kind=PacketKind.PUT, src=src, dst=dst,
                               payload_bytes=0))
    perturb(part, itertools.count(1000))
    want = copy.deepcopy(visible(part))
    assert visible(fresh) != want
    wiring = {n: vars(fresh).get(n) for n in fresh._wiring}

    saved = part.state()
    fresh.load_state(pickle.loads(pickle.dumps(saved)))
    assert visible(fresh) == want
    for n, value in wiring.items():
        assert vars(fresh).get(n) is value  # wiring is never touched
    if isinstance(part, TNet):
        assert [(p.serial, p.src, p.dst) for p in fresh.drain_all()] == [
            (0, 2, 1), (1, 0, 1), (2, 2, 1)]

    # Loads of one saved state share no container with each other or
    # with the part it came from: running one cannot edit the others.
    twin = parts(build(plan))[name]
    twin.load_state(saved)
    fresh.load_state(saved)
    perturb(fresh, itertools.count(5000))
    assert visible(twin) == want == visible(part)


def test_aliased_parts_stay_aliased():
    ours, theirs = build(PLAN), build(PLAN)
    ours.hw_cells[0].cache.hits = 7
    ours.tnet.stats.dropped = 3
    theirs.hw_cells[0].load_state(ours.hw_cells[0].state())
    theirs.tnet.load_state(ours.tnet.state())
    cell = theirs.hw_cells[0]
    assert cell.msc.cache is cell.cache and cell.cache.hits == 7
    assert theirs.bnet.stats is theirs.tnet.stats is theirs.transport.stats
    assert theirs.transport.stats.dropped == 3


#: Field names of the parts; the snapshot and the shard hand-back used
#: to spell them out (28 lines of them) and drifted from the classes.
FIELD_NAMES = re.compile(
    "pushed|popped|spilled|high_water_words|refill_interrupts|"
    "allocation_interrupts|bytes_moved|largest_transfer|flag_increments|"
    "dram_reads|dram_writes|copies_out|high_water_bytes|episodes_completed")


@pytest.mark.parametrize("module", ["ckpt/snapshot.py",
                                    "machine/sharded.py"])
def test_no_second_list_of_field_names(module):
    source = Path(repro.__file__).parent / module
    hits = [f"{module}:{number}: {line}" for number, line in enumerate(
        source.read_text(encoding="utf-8").splitlines(), 1)
        if FIELD_NAMES.search(line)]
    assert not hits, "\n".join(hits)
