"""Ablation — hardware stride transfer on/off (section 5.4).

"TOMCATV with stride data transfers is about 50% faster than that
without stride data transfers on the AP1000+ model", and FT without
stride "uses too many PUT/GET operations, which cause a trace buffer
overflow".  Both effects are regenerated here.
"""

import pytest

from conftest import write_artifact
from repro.apps import ft, tomcatv
from repro.core.errors import TraceBufferOverflowError
from repro.machine.config import MachineConfig


@pytest.fixture(scope="module")
def tomcatv_pair(evaluation):
    runs, comparisons = evaluation
    return runs, comparisons


class TestTomcatvStrideAblation:
    def test_stride_speedup_on_ap1000_plus(self, tomcatv_pair):
        _, comparisons = tomcatv_pair
        t_st = comparisons["TC st"].ap1000_plus.mean_total
        t_no = comparisons["TC no st"].ap1000_plus.mean_total
        ratio = t_no / t_st
        write_artifact(
            "ablation_stride.txt",
            f"TOMCATV AP1000+ no-stride/stride time ratio: {ratio:.2f}\n"
            f"(paper: ~1.5; 'about 50% faster' with stride)\n")
        assert ratio > 1.2

    def test_messages_explode_without_stride(self, tomcatv_pair):
        runs, _ = tomcatv_pair
        st = runs["TC st"].statistics
        no = runs["TC no st"].statistics
        assert no.put_per_pe / max(st.puts_per_pe, 1e-9) == \
            pytest.approx(257.0)

    def test_software_model_suffers_most(self, tomcatv_pair):
        _, comparisons = tomcatv_pair
        plus_ratio = (comparisons["TC no st"].ap1000_plus.mean_total
                      / comparisons["TC st"].ap1000_plus.mean_total)
        fast_ratio = (comparisons["TC no st"].ap1000_fast.mean_total
                      / comparisons["TC st"].ap1000_fast.mean_total)
        assert fast_ratio > 2 * plus_ratio


class TestFTStrideAblation:
    def test_ft_without_stride_overflows_paper_sized_trace_buffer(self):
        """The authentic failure: with a bounded probe buffer, FT's
        element-wise transposes overflow before finishing."""
        with pytest.raises(TraceBufferOverflowError):
            ft.run(num_cells=8, shape=(32, 32, 32), iters=6,
                   use_stride=False,
                   config=MachineConfig(trace_capacity=100_000))

    def test_ft_with_stride_fits_easily(self):
        run = ft.run(num_cells=8, shape=(32, 32, 32), iters=6,
                     use_stride=True,
                     config=MachineConfig(trace_capacity=100_000))
        assert run.verified
        assert run.trace.total_events < 10_000


class TestFunctionalThroughput:
    def test_tomcatv_stride_run(self, benchmark):
        def run():
            return tomcatv.run(num_cells=16, n=65, iters=5, use_stride=True)

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert result.verified

    def test_tomcatv_no_stride_run(self, benchmark):
        def run():
            return tomcatv.run(num_cells=16, n=65, iters=5, use_stride=False)

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert result.verified
