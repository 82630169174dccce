"""Differential tests: columnar engine vs the legacy object path.

The vectorized sessionization/aggregation/phase slicing must agree with
the per-packet object pipeline *exactly* — same session boundaries, same
source keys, same ordering, same per-phase packet counts — on randomized
seeded corpora and on the edge cases the loop formulation handles
implicitly (single-packet sources, gap exactly equal to the timeout,
empty telescopes).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AggregationLevel, source_key
from repro.core.columnar import (NO_PAYLOAD, PacketSlice, PacketTable,
                                 sessionize_table)
from repro.core.sessions import sessionize
from repro.errors import AnalysisError
from repro.experiment.phases import Phase, phase_bounds
from repro.sim.clock import HOUR
from repro.telescope.packet import ICMPV6, TCP, UDP, Packet

LEVELS = (AggregationLevel.ADDR, AggregationLevel.SUBNET,
          AggregationLevel.PREFIX)


def random_packets(seed: int, n: int, subnets: int = 16,
                   hosts: int = 8) -> list[Packet]:
    """A clumpy random packet stream exercising all aggregation levels."""
    rng = np.random.default_rng(seed)
    protocols = (TCP, UDP, ICMPV6)
    packets = []
    for i in range(n):
        subnet = int(rng.integers(0, subnets))
        # spread subnets across distinct /48s and /64s
        hi = (subnet // 4 << 16) | (subnet % 4)
        src = (hi << 64) | int(rng.integers(0, hosts))
        packets.append(Packet(
            time=float(rng.uniform(0, 30 * HOUR)),
            src=src,
            dst=int(rng.integers(0, 1 << 40)),
            protocol=protocols[int(rng.integers(0, 3))],
            dst_port=int(rng.integers(0, 4096)),
            payload=bytes([int(rng.integers(0, 256))]) if i % 5 == 0
            else None,
            src_asn=int(rng.integers(1, 100)),
            scanner_id=int(rng.integers(-1, 10))))
    return packets


def assert_identical(legacy, vectorized):
    """Session-by-session equality: boundaries, keys, packets, order."""
    assert len(legacy) == len(vectorized)
    assert legacy.telescope == vectorized.telescope
    assert legacy.level == vectorized.level
    for a, b in zip(legacy.sessions, vectorized.sessions):
        assert a.source == b.source
        assert a.start == b.start
        assert a.end == b.end
        assert len(a) == len(b)
        assert list(a.packets) == list(b.packets)


class TestDifferentialSessionize:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("level", LEVELS)
    def test_randomized_corpora(self, seed, level):
        packets = random_packets(seed, 2000)
        table = PacketTable.from_packets(packets)
        assert_identical(
            sessionize(packets, telescope="T1", level=level),
            sessionize_table(table, telescope="T1", level=level))

    @pytest.mark.parametrize("level", LEVELS)
    def test_source_key_sets_match(self, level):
        packets = random_packets(7, 1500)
        table = PacketTable.from_packets(packets)
        legacy = {source_key(p.src, level) for p in packets}
        assert table.distinct_sources(level) == legacy
        assert sessionize_table(table, level=level).sources() == legacy

    def test_single_packet_sources(self):
        packets = [Packet(time=float(i * 2 * HOUR), src=(i << 64) | i,
                          dst=1, protocol=ICMPV6)
                   for i in range(20)]
        table = PacketTable.from_packets(packets)
        for level in LEVELS:
            assert_identical(sessionize(packets, level=level),
                             sessionize_table(table, level=level))

    def test_gap_exactly_timeout_splits(self):
        src = (9 << 64) | 1
        packets = [Packet(time=0.0, src=src, dst=1, protocol=ICMPV6),
                   Packet(time=float(HOUR), src=src, dst=1,
                          protocol=ICMPV6)]
        table = PacketTable.from_packets(packets)
        result = sessionize_table(table)
        assert len(result) == 2
        assert_identical(sessionize(packets), result)

    def test_gap_just_below_timeout_keeps(self):
        src = (9 << 64) | 1
        packets = [Packet(time=0.0, src=src, dst=1, protocol=ICMPV6),
                   Packet(time=float(HOUR) - 1e-9, src=src, dst=1,
                          protocol=ICMPV6)]
        result = sessionize_table(PacketTable.from_packets(packets))
        assert len(result) == 1

    def test_empty_table(self):
        result = sessionize_table(PacketTable.empty(), telescope="T3")
        assert len(result) == 0
        assert result.sources() == set()

    def test_invalid_timeout(self):
        with pytest.raises(AnalysisError):
            sessionize_table(PacketTable.empty(), timeout=0)

    def test_unsorted_input(self):
        src = (3 << 64) | 3
        packets = [Packet(time=t, src=src, dst=1, protocol=ICMPV6)
                   for t in (5.0, 1.0, 3.0)]
        table = PacketTable.from_packets(packets)
        assert_identical(sessionize(packets), sessionize_table(table))

    def test_equal_times_tie_order_matches(self):
        src = (4 << 64) | 4
        packets = [Packet(time=1.0, src=src, dst=d, protocol=ICMPV6)
                   for d in (10, 11, 12)]
        table = PacketTable.from_packets(packets)
        legacy = sessionize(packets)
        vec = sessionize_table(table)
        assert [p.dst for p in vec.sessions[0].packets] \
            == [p.dst for p in legacy.sessions[0].packets]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3)), min_size=1, max_size=80))
    def test_property_identical(self, rows):
        packets = [Packet(time=t, src=(hi << 64) | lo, dst=1,
                          protocol=ICMPV6) for t, hi, lo in rows]
        table = PacketTable.from_packets(packets)
        for level in LEVELS:
            assert_identical(sessionize(packets, level=level),
                             sessionize_table(table, level=level))


def phase_filter(corpus, telescope, phase):
    """A telescope's packets inside a phase, filtered object by object."""
    start, end = phase_bounds(corpus.config, phase)
    return [p for p in corpus.packets(telescope) if start <= p.time < end]


class TestPhaseSlicing:
    def test_phase_counts_match_object_filter(self, tiny_corpus):
        for telescope in tiny_corpus.telescopes():
            for phase in Phase:
                table = tiny_corpus.phase_table(telescope, phase)
                assert len(table) == len(phase_filter(tiny_corpus,
                                                      telescope, phase))

    def test_phase_full_returns_underlying_list(self, tiny_corpus):
        """The full phase hands out the capture's own sorted table."""
        table = tiny_corpus.table("T1").time_sorted()
        assert tiny_corpus.phase_table("T1", Phase.FULL) is table

    def test_phase_tables_partition_full(self, tiny_corpus):
        for telescope in tiny_corpus.telescopes():
            full = len(tiny_corpus.phase_table(telescope, Phase.FULL))
            initial = len(tiny_corpus.phase_table(telescope, Phase.INITIAL))
            split = len(tiny_corpus.phase_table(telescope, Phase.SPLIT))
            assert initial + split == full

    def test_analysis_paths_agree(self, tiny_corpus):
        for telescope in tiny_corpus.telescopes():
            for level in (AggregationLevel.ADDR, AggregationLevel.SUBNET):
                for phase in Phase:
                    packets = phase_filter(tiny_corpus, telescope, phase)
                    table = tiny_corpus.phase_table(telescope, phase)
                    assert_identical(
                        sessionize(packets, telescope, level),
                        sessionize_table(table, telescope, level))


class TestPacketTable:
    def test_roundtrip_objects(self):
        packets = random_packets(11, 300)
        table = PacketTable.from_packets(packets)
        assert table.to_packets() == packets

    def test_row_reconstruction_without_objects(self):
        packets = random_packets(12, 300)
        table = PacketTable.from_packets(packets)
        offsets, blob = table.payload_blob()
        rebuilt = PacketTable.from_blob_arrays(
            time=table.time, src_hi=table.src_hi, src_lo=table.src_lo,
            dst_hi=table.dst_hi, dst_lo=table.dst_lo,
            protocol=table.protocol, dst_port=table.dst_port,
            src_asn=table.src_asn, scanner_id=table.scanner_id,
            payload_offsets=offsets, payload_blob=blob)
        assert rebuilt.to_packets() == packets

    def test_payload_interning(self):
        packets = [Packet(time=float(i), src=1, dst=1, protocol=ICMPV6,
                          payload=b"same-bytes") for i in range(10)]
        table = PacketTable.from_packets(packets)
        assert len(table.payloads) == 1
        assert np.all(table.payload_id == 0)

    def test_no_payload_id(self):
        table = PacketTable.from_packets(
            [Packet(time=0.0, src=1, dst=1, protocol=ICMPV6)])
        assert table.payload_id[0] == NO_PAYLOAD

    def test_time_sorted_noop_when_sorted(self):
        packets = [Packet(time=float(i), src=1, dst=1, protocol=ICMPV6)
                   for i in range(5)]
        table = PacketTable.from_packets(packets)
        assert table.time_sorted() is table

    def test_slice_time_bounds(self):
        packets = [Packet(time=float(i), src=1, dst=1, protocol=ICMPV6)
                   for i in range(10)]
        table = PacketTable.from_packets(packets)
        sliced = table.slice_time(2.0, 7.0)
        assert [p.time for p in sliced.to_packets()] \
            == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_slice_time_requires_sorted(self):
        packets = [Packet(time=t, src=1, dst=1, protocol=ICMPV6)
                   for t in (3.0, 1.0)]
        with pytest.raises(AnalysisError):
            PacketTable.from_packets(packets).slice_time(0.0, 5.0)


class TestPacketSlice:
    def test_sequence_protocol(self):
        packets = random_packets(13, 50)
        table = PacketTable.from_packets(packets)
        view = PacketSlice(table, np.arange(10))
        assert len(view) == 10
        assert bool(view)
        assert view[0] is packets[0]
        assert view[-1] is packets[9]
        assert view[2:4] == packets[2:4]
        assert list(view) == packets[:10]
        assert view == packets[:10]

    def test_sessions_reuse_corpus_objects(self):
        packets = random_packets(14, 200)
        table = PacketTable.from_packets(packets)
        for session in sessionize_table(table).sessions:
            for p in session.packets:
                assert any(p is q for q in packets)
