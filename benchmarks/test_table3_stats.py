"""Table 3 — application statistics.

Regenerates the per-PE operation-count table from the benchmark-scale
traces and checks the rows' structure against the paper's (which columns
are zero, which dominate, message-size relations).
"""

import pytest

from conftest import BENCH_CONFIGS, write_artifact
from repro.analysis.paper_data import TABLE3
from repro.analysis.tables import format_table3, table3_rows
from repro.trace.stats import collect_statistics


@pytest.fixture(scope="module")
def stats(evaluation):
    runs, _ = evaluation
    write_artifact("table3.txt", format_table3(table3_rows(runs)))
    return {name: run.statistics for name, run in runs.items()}


class TestRowStructure:
    def test_ep_all_zero(self, stats):
        assert stats["EP"].as_row()[1:] == (0.0,) * 9

    def test_cg_reduction_dominated(self, stats):
        """CG communicates exclusively through Gop/VGop + barriers."""
        row = stats["CG"]
        assert row.vgop_per_pe == 15 * 26        # paper: 390
        assert row.gop_per_pe > row.vgop_per_pe  # paper: 810 vs 390
        assert row.put_per_pe == row.get_per_pe == 0.0

    def test_cg_vgop_vector_size_is_11200_bytes(self, evaluation):
        runs, _ = evaluation
        from repro.trace.events import EventKind
        block = runs["CG"].trace.block()
        sizes = set(block["size"][(block["pe"] == 0) & (
            block["kind"] == EventKind.VGOP)].tolist())
        assert sizes == {11200}

    def test_ft_stride_puts(self, stats):
        row = stats["FT"]
        assert row.puts_per_pe > 0
        assert row.put_per_pe == 0.0
        assert row.sync_per_pe > 0

    def test_sp_put_get_heavy_few_barriers(self, stats):
        row = stats["SP"]
        assert row.put_per_pe > 1000           # paper: 10880 over 10 iters
        assert row.get_per_pe > 0              # halo fetches
        assert row.sync_per_pe < 20            # paper: 42
        assert 500 < row.avg_message_bytes < 4096   # paper: 1355 bytes

    def test_tomcatv_stride_pair(self, stats):
        st, no = stats["TC st"], stats["TC no st"]
        n = BENCH_CONFIGS["TC st"]["n"]
        assert st.avg_message_bytes == pytest.approx(n * 8)   # 2056 bytes
        assert no.avg_message_bytes == pytest.approx(8.0)
        assert no.put_per_pe == pytest.approx(n * st.puts_per_pe)
        assert st.gop_per_pe == TABLE3["TC st"].gop  # 20 gops / 10 iters

    def test_matmul_row_matches_paper_exactly(self, stats):
        """MatMul's pattern is simple enough to match Table 3 closely:
        ~64 PUTs of 76800 bytes and ~64 barriers per PE."""
        row = stats["MatMul"]
        paper = TABLE3["MatMul"]
        assert row.put_per_pe == paper.put - 1      # P-1 rotations
        assert abs(row.sync_per_pe - paper.sync) <= 1
        assert row.avg_message_bytes == pytest.approx(paper.msg_bytes,
                                                      rel=0.15)

    def test_scg_row_matches_paper_shape(self, stats):
        row = stats["SCG"]
        paper = TABLE3["SCG"]
        assert row.sync_per_pe == paper.sync == 1.0
        assert row.avg_message_bytes == pytest.approx(paper.msg_bytes)
        # One PUT and one SEND per iteration for interior cells.
        assert row.put_per_pe == pytest.approx(row.send_per_pe)
        assert 0.3 * paper.put < row.put_per_pe < 1.5 * paper.put

    def test_bulk_transfer_observation(self, stats):
        """'The average message size of PUT/GET is very big' — MatMul's
        76 KB messages top the table."""
        sizes = {name: s.avg_message_bytes for name, s in stats.items()
                 if s.avg_message_bytes > 0}
        assert max(sizes, key=sizes.get) == "MatMul"


class TestStatsThroughput:
    def test_collect_statistics_speed(self, benchmark, evaluation):
        runs, _ = evaluation
        trace = runs["SCG"].trace
        stats = benchmark(collect_statistics, trace)
        assert stats.num_pes == 64
