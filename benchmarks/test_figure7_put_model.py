"""Figure 7 — the PUT communication model.

Regenerates the component-by-component PUT timeline for both machine
models and benchmarks a single-PUT replay through the full engine.
"""

import pytest

from conftest import write_artifact
from repro.analysis.figures import figure7_text
from repro.mlsim import put_model as pm
from repro.mlsim.params import ap1000_params, ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind


def test_figure7_artifact():
    text = figure7_text(size=1024, distance=4)
    write_artifact("figure7.txt", text)
    assert "AP1000+" in text


class TestModelShape:
    """The claims Figure 7 illustrates."""

    def test_software_send_overhead_formula(self):
        p = ap1000_params()
        size = 1024
        assert pm.put_send_cpu_time(p, size) == pytest.approx(
            p.put_prolog_time + p.put_enqueue_time
            + p.put_msg_post_time * size + p.put_dma_set_time
            + p.put_epilog_time)

    def test_hardware_sender_cpu_under_2us(self):
        tl = pm.put_timeline(ap1000_plus_params(), 1024, 4)
        assert tl.sender_cpu_total < 2.0

    def test_software_sender_cpu_two_orders_larger(self):
        slow = pm.put_timeline(ap1000_params(), 1024, 4)
        fast = pm.put_timeline(ap1000_plus_params(), 1024, 4)
        assert slow.sender_cpu_total / fast.sender_cpu_total > 80

    def test_reception_does_not_interrupt_hardware_receiver(self):
        assert pm.put_timeline(ap1000_plus_params(), 1024,
                               4).receiver_cpu_total == 0.0


def _single_put_trace(size):
    buf = TraceBuffer(num_pes=2)
    buf.append(EventKind.PUT, 0, partner=1, size=size, recv_flag=9)
    buf.append(EventKind.FLAG_WAIT, 1, flag=9, target=1)
    return buf


@pytest.mark.parametrize("model,params", [
    ("ap1000", ap1000_params()),
    ("ap1000plus", ap1000_plus_params()),
])
def test_single_put_replay(benchmark, model, params):
    """End-to-end engine latency of one PUT + flag check."""

    def replay():
        return simulate(_single_put_trace(1024), params)

    result = benchmark(replay)
    assert result.messages == 1
