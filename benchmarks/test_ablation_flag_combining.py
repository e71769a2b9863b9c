"""Ablation — combined flag update vs separate flag packets (section 1.2).

"A flag packet can be sent to a destination node after a data packet.
Other messages, however, may enter the network between the two messages,
and may cause a flag update delay.  In this case, even though data has
been received, the program cannot use it and idle time is introduced
because the flag has not been updated.  Sending flags separately also
doubles the number of messages and, therefore, increases the sending
overhead."

The bench builds the two trace variants from one producer/consumer
workload *with background traffic on the same channels* (each data
message is followed by an unrelated bulk message, as in any real phase):

* **combined** — the flag update rides the data packet (AP1000+);
* **separate** — a zero-payload flag packet follows, and the intervening
  bulk message delays it (static routing delivers in order).
"""

import pytest

from conftest import write_artifact
from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind

CELLS = 8
ROUNDS = 30
DATA_BYTES = 2048
BULK_BYTES = 16384


def _ring_trace(separate_flags: bool) -> TraceBuffer:
    """Hand-built producer/consumer ring trace with background bulk
    traffic between every data message and (when separated) its flag."""
    buf = TraceBuffer(num_pes=CELLS)
    flag_of = {pe: 1000 + pe for pe in range(CELLS)}
    for i in range(ROUNDS):
        for pe in range(CELLS):
            right = (pe + 1) % CELLS
            if separate_flags:
                buf.append(EventKind.PUT, pe, partner=right, size=DATA_BYTES)
                buf.append(EventKind.PUT, pe, partner=right, size=BULK_BYTES)
                buf.append(EventKind.PUT, pe, partner=right, size=0,
                           recv_flag=flag_of[right])
            else:
                buf.append(EventKind.PUT, pe, partner=right, size=DATA_BYTES,
                           recv_flag=flag_of[right])
                buf.append(EventKind.PUT, pe, partner=right, size=BULK_BYTES)
        for pe in range(CELLS):
            buf.append(EventKind.FLAG_WAIT, pe, flag=flag_of[pe],
                       target=i + 1)
            buf.append(EventKind.COMPUTE, pe, work=500.0)
    return buf


@pytest.fixture(scope="module")
def comparison():
    combined = simulate(_ring_trace(separate_flags=False),
                        ap1000_plus_params())
    separated = simulate(_ring_trace(separate_flags=True),
                         ap1000_plus_params())
    write_artifact(
        "ablation_flag_combining.txt",
        f"combined flag update:  {combined.elapsed_us:10.1f} us, "
        f"{combined.messages} data+flag messages, "
        f"idle {combined.mean_idle:8.1f} us\n"
        f"separate flag packets: {separated.elapsed_us:10.1f} us, "
        f"{separated.messages} messages, "
        f"idle {separated.mean_idle:8.1f} us\n")
    return combined, separated


class TestFlagCombining:
    def test_separate_flags_increase_message_count(self, comparison):
        combined, separated = comparison
        assert separated.messages == combined.messages * 3 // 2

    def test_intervening_traffic_delays_the_flag(self, comparison):
        """The consumer idles waiting for a flag whose data already
        arrived — the bulk message sits between them on the channel."""
        combined, separated = comparison
        assert separated.mean_idle > combined.mean_idle

    def test_separation_slows_the_whole_phase(self, comparison):
        combined, separated = comparison
        assert separated.elapsed_us > 1.05 * combined.elapsed_us

    def test_sending_overhead_increases(self, comparison):
        combined, separated = comparison
        assert separated.mean_overhead > combined.mean_overhead


class TestThroughput:
    def test_variant_replay(self, benchmark):
        trace = _ring_trace(separate_flags=True)
        result = benchmark(
            lambda: simulate(trace, ap1000_plus_params()))
        assert result.messages > 0
