"""Ablation — the PUT acknowledge policy (section 5.4).

"Current implementation of the VPP Fortran run-time system requires an
acknowledgment for every put() ... Since no PUT operations except the
last PUT for every destination cell need acknowledgment, the number of
get() operations can be decreased dramatically."  This bench quantifies
that planned improvement.
"""

import numpy as np
import pytest

from conftest import write_artifact
from repro.core.completion import AckPolicy
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.trace.events import EventKind

CELLS = 16
PUTS_PER_PHASE = 20
PHASES = 5


def halo_workload(policy):
    """A halo-exchange-shaped workload: many PUTs per phase, Ack &
    Barrier completion."""
    machine = Machine(MachineConfig(num_cells=CELLS,
                                    memory_per_cell=1 << 21),
                      ack_policy=policy)

    def program(ctx):
        a = ctx.alloc(256)
        right = (ctx.pe + 1) % ctx.num_cells
        left = (ctx.pe - 1) % ctx.num_cells
        for _ in range(PHASES):
            for _ in range(PUTS_PER_PHASE):
                ctx.put(right, a, a, count=128, ack=True)
                ctx.put(left, a, a, count=128, dest_offset=128,
                        src_offset=128, ack=True)
            yield from ctx.finish_puts()
            yield from ctx.barrier()
            ctx.compute_flops(20000)

    machine.run(program)
    return machine


@pytest.fixture(scope="module")
def policies():
    out = {}
    for policy in AckPolicy.ALL:
        machine = halo_workload(policy)
        elapsed = simulate(machine.trace, ap1000_plus_params()).elapsed_us
        block = machine.trace.block()
        acks = int(np.count_nonzero((block["kind"] == EventKind.GET)
                                    & block["is_ack"]))
        out[policy] = (elapsed, acks)
    lines = [f"{policy:15s} elapsed={elapsed:10.1f} us  ack-GETs={acks}"
             for policy, (elapsed, acks) in out.items()]
    write_artifact("ablation_ack_policy.txt", "\n".join(lines) + "\n")
    return out


class TestAckPolicyAblation:
    def test_every_put_acks_every_put(self, policies):
        _, acks = policies[AckPolicy.EVERY_PUT]
        assert acks == CELLS * PHASES * PUTS_PER_PHASE * 2

    def test_last_per_dest_decreases_dramatically(self, policies):
        _, every = policies[AckPolicy.EVERY_PUT]
        _, last = policies[AckPolicy.LAST_PER_DEST]
        assert last == CELLS * PHASES * 2     # one per destination/phase
        assert every / last == PUTS_PER_PHASE

    def test_time_ordering(self, policies):
        t_every, _ = policies[AckPolicy.EVERY_PUT]
        t_last, _ = policies[AckPolicy.LAST_PER_DEST]
        t_none, _ = policies[AckPolicy.NONE]
        assert t_none <= t_last <= t_every

    def test_overhead_is_small_but_real(self, policies):
        """'Communication overhead is small, although this requirement
        doubles the number of messages.'"""
        t_every, _ = policies[AckPolicy.EVERY_PUT]
        t_last, _ = policies[AckPolicy.LAST_PER_DEST]
        assert t_every < 1.6 * t_last


class TestThroughput:
    @pytest.mark.parametrize("policy", AckPolicy.ALL)
    def test_functional_run(self, benchmark, policy):
        result = benchmark.pedantic(halo_workload, args=(policy,),
                                    rounds=2, iterations=1)
        assert result.trace.total_events > 0
