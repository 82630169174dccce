"""Tests for the columnar engine: sessionization, aggregation, slicing.

``sessionize_table`` replaced a per-source Python loop over ``Packet``
objects. Its session layouts on the fixtures below — randomized seeded
corpora, the edge cases the loop handled implicitly (single-packet
sources, a gap exactly equal to the timeout, unsorted input) and every
telescope, level and phase of the tiny corpus — were recorded from that
loop as digests, so boundaries, source keys, packets and ordering must
still agree exactly.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AggregationLevel, source_key
from repro.core.columnar import NO_PAYLOAD, PacketTable, sessionize_table
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


def layout_digest(session_set) -> str:
    """Session by session in set order: source key halves, packet count
    and table rows in arrival order."""
    rows, offsets = session_set.session_rows()
    source_hi, source_lo = session_set.source_columns()
    digest = hashlib.sha256()
    for column, dtype in ((source_hi, np.uint64), (source_lo, np.uint64),
                          (offsets, np.int64), (rows, np.int64)):
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()[:16]


#: Layout digests of the per-source loop on ``random_packets(seed, 2000)``.
RANDOM_LAYOUTS = {
    (0, AggregationLevel.ADDR): "4aafee11eb89ea96",
    (0, AggregationLevel.SUBNET): "9cbfb88b51996f59",
    (0, AggregationLevel.PREFIX): "24f32420f1ce31d8",
    (1, AggregationLevel.ADDR): "2efb85ad282348da",
    (1, AggregationLevel.SUBNET): "572d1d3ce17a2be9",
    (1, AggregationLevel.PREFIX): "cd4b4a1041aa2ddf",
    (2, AggregationLevel.ADDR): "fee09bcd2eb57543",
    (2, AggregationLevel.SUBNET): "00bfcfcb6ea396a2",
    (2, AggregationLevel.PREFIX): "4996fb2f96097ee7",
    (3, AggregationLevel.ADDR): "de237e9dc236d4d9",
    (3, AggregationLevel.SUBNET): "a03580763de81667",
    (3, AggregationLevel.PREFIX): "943ab5d59cc45a8d",
}

#: ... on 20 single-packet sources two hours apart.
SINGLE_PACKET_LAYOUTS = {
    AggregationLevel.ADDR: "f81435766e84e8e0",
    AggregationLevel.SUBNET: "b4c77dbd85cda439",
    AggregationLevel.PREFIX: "6c1f9fcf50909463",
}

#: ... on each telescope's phase table of ``ExperimentConfig.tiny()``.
TINY_LAYOUTS = {
    ("T1", AggregationLevel.ADDR, Phase.INITIAL): "beea42be910fece7",
    ("T1", AggregationLevel.ADDR, Phase.SPLIT): "efccc9f1446b4745",
    ("T1", AggregationLevel.ADDR, Phase.FULL): "2a908d737e44ab71",
    ("T1", AggregationLevel.SUBNET, Phase.INITIAL): "4c5389eb61a7b229",
    ("T1", AggregationLevel.SUBNET, Phase.SPLIT): "1e859aac8ff450bc",
    ("T1", AggregationLevel.SUBNET, Phase.FULL): "534603917655f37e",
    ("T2", AggregationLevel.ADDR, Phase.INITIAL): "7333a58fef3edfc5",
    ("T2", AggregationLevel.ADDR, Phase.SPLIT): "5a1bb86170cf5b62",
    ("T2", AggregationLevel.ADDR, Phase.FULL): "9a3b8a40553ec8b3",
    ("T2", AggregationLevel.SUBNET, Phase.INITIAL): "f2612cb983af4d46",
    ("T2", AggregationLevel.SUBNET, Phase.SPLIT): "cc173d08e363f588",
    ("T2", AggregationLevel.SUBNET, Phase.FULL): "0547f5e8f49f8b34",
    ("T3", AggregationLevel.ADDR, Phase.INITIAL): "d5d4ea1874fb7dd2",
    ("T3", AggregationLevel.ADDR, Phase.SPLIT): "91dd263f0c966d1d",
    ("T3", AggregationLevel.ADDR, Phase.FULL): "1161d7fd4f5417cd",
    ("T3", AggregationLevel.SUBNET, Phase.INITIAL): "e8ffc89dc8456cb8",
    ("T3", AggregationLevel.SUBNET, Phase.SPLIT): "8c16d22b69cd9410",
    ("T3", AggregationLevel.SUBNET, Phase.FULL): "665ca1fcd2b0019d",
    ("T4", AggregationLevel.ADDR, Phase.INITIAL): "2eca005d931e7e3e",
    ("T4", AggregationLevel.ADDR, Phase.SPLIT): "0f71fa63c355c5c8",
    ("T4", AggregationLevel.ADDR, Phase.FULL): "aa0d01499dc0870e",
    ("T4", AggregationLevel.SUBNET, Phase.INITIAL): "76855765914c7057",
    ("T4", AggregationLevel.SUBNET, Phase.SPLIT): "47a81228244e82ce",
    ("T4", AggregationLevel.SUBNET, Phase.FULL): "fa10fdae3a5e4dbf",
}


def assert_partition(session_set, table, timeout=HOUR):
    """Sessions partition the rows, ordered by start; a session holds one
    source's packets in arrival order with gaps below the timeout, and
    one source's consecutive sessions lie at least the timeout apart."""
    rows, offsets = session_set.session_rows()
    assert sorted(rows.tolist()) == list(range(len(table)))
    key_hi, key_lo = table.source_key_columns(session_set.level)
    source_hi, source_lo = session_set.source_columns()
    last_end = {}
    for i in range(len(session_set)):
        session = rows[offsets[i]:offsets[i + 1]]
        times = table.time[session]
        assert np.all(np.diff(times) >= 0)
        assert np.all(np.diff(times) < timeout)
        assert np.all(key_lo[session] == source_lo[i])
        if key_hi is not None:
            assert np.all(key_hi[session] == source_hi[i])
        source = (int(source_hi[i]), int(source_lo[i]))
        if source in last_end:
            assert times[0] - last_end[source] >= timeout
        last_end[source] = times[-1]
    assert np.all(np.diff(session_set.starts()) >= 0)


class TestDifferentialSessionize:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("level", LEVELS)
    def test_randomized_corpora(self, seed, level):
        table = PacketTable.from_packets(random_packets(seed, 2000))
        result = sessionize_table(table, telescope="T1", level=level)
        assert (result.telescope, result.level) == ("T1", level)
        assert layout_digest(result) == RANDOM_LAYOUTS[(seed, level)]

    @pytest.mark.parametrize("level", LEVELS)
    def test_source_key_sets_match(self, level):
        packets = random_packets(7, 1500)
        table = PacketTable.from_packets(packets)
        expected = {source_key(p.src, level) for p in packets}
        assert table.distinct_sources(level) == expected
        keys = sessionize_table(table, level=level).source_keys()
        assert len(keys) == len(expected)
        assert set(keys) == expected

    def test_single_packet_sources(self):
        packets = [Packet(time=float(i * 2 * HOUR), src=(i << 64) | i,
                          dst=1, protocol=ICMPV6)
                   for i in range(20)]
        table = PacketTable.from_packets(packets)
        for level in LEVELS:
            result = sessionize_table(table, level=level)
            assert len(result) == 20
            assert layout_digest(result) == SINGLE_PACKET_LAYOUTS[level]

    def test_gap_exactly_timeout_splits(self):
        src = (9 << 64) | 1
        packets = [Packet(time=0.0, src=src, dst=1, protocol=ICMPV6),
                   Packet(time=float(HOUR), src=src, dst=1,
                          protocol=ICMPV6)]
        result = sessionize_table(PacketTable.from_packets(packets))
        assert len(result) == 2
        assert layout_digest(result) == "ec608788a272033d"

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
        assert result.source_keys() == []

    def test_invalid_timeout(self):
        with pytest.raises(AnalysisError):
            sessionize_table(PacketTable.empty(), timeout=0)

    def test_unsorted_input(self):
        src = (3 << 64) | 3
        packets = [Packet(time=t, src=src, dst=1, protocol=ICMPV6)
                   for t in (5.0, 1.0, 3.0)]
        result = sessionize_table(PacketTable.from_packets(packets))
        assert result.session_rows()[0].tolist() == [1, 2, 0]
        assert layout_digest(result) == "185e4afa9e2cab07"

    def test_equal_times_tie_order_matches(self):
        src = (4 << 64) | 4
        packets = [Packet(time=1.0, src=src, dst=d, protocol=ICMPV6)
                   for d in (10, 11, 12)]
        table = PacketTable.from_packets(packets)
        rows = sessionize_table(table).session_rows()[0]
        assert table.dst_lo[rows].tolist() == [10, 11, 12]
        assert layout_digest(sessionize_table(table)) \
            == "a240eba3c6edeac9"

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
            assert_partition(sessionize_table(table, level=level), table)


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
        for (telescope, level, phase), expected in TINY_LAYOUTS.items():
            table = tiny_corpus.phase_table(telescope, phase)
            result = sessionize_table(table, telescope, level)
            assert layout_digest(result) == expected, \
                (telescope, level, phase)


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
