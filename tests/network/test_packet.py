"""Unit tests for packet formats and stride descriptors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.packet import HEADER_BYTES, Packet, PacketKind, StrideSpec


class TestStrideSpec:
    def test_contiguous(self):
        s = StrideSpec.contiguous(64)
        assert s.total_bytes == 64
        assert s.extent_bytes == 64

    def test_strided_totals(self):
        s = StrideSpec(item_size=8, count=5, skip=32)
        assert s.total_bytes == 40
        assert s.extent_bytes == 4 * 32 + 8

    def test_offsets(self):
        s = StrideSpec(item_size=4, count=3, skip=16)
        assert s.offsets() == [0, 16, 32]

    def test_zero_count_is_empty(self):
        s = StrideSpec(item_size=8, count=0, skip=8)
        assert s.total_bytes == 0
        assert s.extent_bytes == 0
        assert s.offsets() == []

    def test_overlapping_items_rejected(self):
        with pytest.raises(ValueError):
            StrideSpec(item_size=16, count=2, skip=8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StrideSpec(item_size=-1, count=1, skip=1)


class TestInternedContiguous:
    """``contiguous`` hands out shared instances; nothing a caller can
    observe tells them from freshly built ones."""

    @given(size=st.integers(0, 1 << 23))
    def test_equals_fresh_instance(self, size):
        fresh = StrideSpec(item_size=size, count=1, skip=max(size, 1))
        spec = StrideSpec.contiguous(size)
        assert spec == fresh and hash(spec) == hash(fresh)
        assert (spec.total_bytes, spec.extent_bytes, spec.offsets()) == \
            (size, size, [0])

    @given(size=st.integers(-(1 << 23), -1))
    def test_negative_size_raises_every_time(self, size):
        for _ in range(2):            # a failure is never cached
            with pytest.raises(ValueError):
                StrideSpec.contiguous(size)

    def test_cache_is_bounded(self):
        for size in range(5000):
            StrideSpec.contiguous(size)
        info = StrideSpec.contiguous.cache_info()
        assert info.currsize <= info.maxsize == 256

    @given(item=st.integers(0, 64), count=st.integers(0, 64),
           gap=st.integers(0, 64))
    def test_cached_sizes_match_the_formulas(self, item, count, gap):
        spec = StrideSpec(item_size=item, count=count, skip=item + gap)
        for _ in range(2):            # second read comes from the cache
            assert spec.total_bytes == item * count
            assert spec.extent_bytes == (
                0 if not item or not count
                else (item + gap) * (count - 1) + item)
        assert spec == StrideSpec(item_size=item, count=count,
                                  skip=item + gap)


class TestPacket:
    def test_wire_bytes_include_header(self):
        p = Packet(kind=PacketKind.PUT, src=0, dst=1, payload_bytes=100)
        assert p.wire_bytes == 100 + HEADER_BYTES

    def test_serials_assigned_per_network_at_injection(self):
        # Serials come from the carrying network, not a process-global
        # counter: two fresh networks stamp identical sequences, so runs
        # are byte-reproducible no matter what the process ran before.
        from repro.network.tnet import TNet
        from repro.network.topology import TorusTopology

        for _ in range(2):
            net = TNet(TorusTopology(2, 2))
            a = Packet(kind=PacketKind.PUT, src=0, dst=1, payload_bytes=0)
            b = Packet(kind=PacketKind.PUT, src=0, dst=1, payload_bytes=0)
            assert a.serial == b.serial == -1  # unsent
            net.inject(a)
            net.inject(b)
            assert (a.serial, b.serial) == (0, 1)

    def test_retransmission_keeps_first_serial(self):
        from repro.network.tnet import TNet
        from repro.network.topology import TorusTopology

        net = TNet(TorusTopology(2, 2))
        a = Packet(kind=PacketKind.PUT, src=0, dst=1, payload_bytes=0)
        net.inject(a)
        net.drain_all()
        net.inject(a)  # fault-layer retransmit re-enters the wire
        assert a.serial == 0

    def test_acknowledge_idiom_detection(self):
        ack = Packet(kind=PacketKind.GET_REQUEST, src=0, dst=1,
                     payload_bytes=0, remote_addr=0)
        real = Packet(kind=PacketKind.GET_REQUEST, src=0, dst=1,
                      payload_bytes=0, remote_addr=4096)
        put = Packet(kind=PacketKind.PUT, src=0, dst=1, payload_bytes=0,
                     remote_addr=0)
        assert ack.is_acknowledge_idiom()
        assert not real.is_acknowledge_idiom()
        assert not put.is_acknowledge_idiom()
