"""End-to-end contracts of the batched emission kernel.

Three guarantees back the perf work:

- **determinism** — a fixed seed yields a byte-identical corpus, run to
  run;
- **fidelity** — the kernel agrees in distribution with the per-packet
  emitter it replaced. That emitter consumed its RNG draws in another
  order, so the contract is tolerance-based marginals against the
  figures of its ``ExperimentConfig.tiny()`` run, frozen below, not
  packet-for-packet equality;
- **epoch-aware routing** — ``Deployment.route_batch`` reproduces the
  per-packet ``route`` exactly, even for batches straddling announce and
  withdraw boundaries.
"""

import numpy as np
import pytest

from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.triggers import DnsExposureTrigger, TriggerExperiment
from repro.net.addr import parse_addr
from repro.scanners.backscatter import DDoSAttack
from repro.scanners.base import ScannerContext, _as_column
from repro.sim.events import Simulator
from repro.sim.rng import RngStreams
from repro.telescope.capture import PacketCapture
from repro.telescope.deployment import (COVERING_PREFIX, T1_PREFIX, T2_PREFIX,
                                        T3_PREFIX, T4_PREFIX,
                                        build_deployment)
from repro.telescope.packet import Packet
from repro.telescope.telescope import (Telescope, TelescopeKind,
                                       prefix_router)

#: Every column a corpus table carries; determinism is asserted over all.
COLUMNS = ("time", "src_hi", "src_lo", "dst_hi", "dst_lo", "protocol",
           "dst_port", "src_asn", "scanner_id", "payload_id")

_MASK64 = (1 << 64) - 1

#: The per-packet emitter's ``ExperimentConfig.tiny()`` corpus: packets
#: per telescope, protocol packet shares, T1's share of packets in the
#: split period, and the scanners observed at any telescope.
PER_PACKET_TELESCOPES = {"T1": 19_469, "T2": 12_316, "T3": 13, "T4": 1_248}
PER_PACKET_TOTAL = 33_046
PER_PACKET_PROTOCOL_SHARES = {6: 0.1544, 17: 0.2578, 58: 0.5878}
PER_PACKET_T1_ACTIVE_SHARE = 0.9054
PER_PACKET_SCANNERS = (
    set(range(1, 126)) - {32, 99, 105, 110, 113, 115, 116, 118}
    | set(range(1_000_000, 1_000_016)) | set(range(2_000_001, 2_000_007)))


@pytest.fixture(scope="module")
def batch_result():
    return run_experiment(ExperimentConfig.tiny())


class TestBatchDeterminism:
    def test_byte_identical_rerun(self, batch_result):
        rerun = run_experiment(ExperimentConfig.tiny())
        first, second = batch_result.corpus, rerun.corpus
        assert first.telescopes() == second.telescopes()
        for name in first.telescopes():
            a, b = first.table(name), second.table(name)
            assert len(a) == len(b), name
            for column in COLUMNS:
                assert np.array_equal(getattr(a, column),
                                      getattr(b, column)), (name, column)
            assert a.payloads == b.payloads, name


class TestDifferentialVsLegacy:
    """Batch kernel vs the per-packet emitter's frozen tiny corpus."""

    def test_total_packets_close(self, batch_result):
        assert len(PER_PACKET_SCANNERS) == 139
        assert sum(PER_PACKET_TELESCOPES.values()) == PER_PACKET_TOTAL
        batch = batch_result.corpus.total_packets()
        assert batch == pytest.approx(PER_PACKET_TOTAL, rel=0.02)

    def test_per_telescope_counts_close(self, batch_result):
        for name, legacy in PER_PACKET_TELESCOPES.items():
            batch = len(batch_result.corpus.table(name))
            # small telescopes (T3 sees ~10 packets at tiny scale) get an
            # absolute allowance; the big ones must track within 5%
            assert abs(batch - legacy) <= max(5, 0.05 * legacy), \
                (name, batch, legacy)

    def test_protocol_marginals_close(self, batch_result):
        corpus = batch_result.corpus
        protocol = np.concatenate([corpus.table(t).protocol
                                   for t in corpus.telescopes()])
        values, counts = np.unique(protocol, return_counts=True)
        batch = dict(zip(values.tolist(), (counts / counts.sum()).tolist()))
        assert set(batch) == set(PER_PACKET_PROTOCOL_SHARES)
        for value, share in PER_PACKET_PROTOCOL_SHARES.items():
            assert batch[value] == pytest.approx(share, abs=0.05), value

    def test_temporal_shape_close(self, batch_result):
        # BGP reactivity shape: the baseline/active split of T1 traffic
        # must survive the emission rewrite
        split = batch_result.corpus.config.split_start
        time = batch_result.corpus.table("T1").time
        assert float((time >= split).mean()) \
            == pytest.approx(PER_PACKET_T1_ACTIVE_SHARE, abs=0.05)

    def test_same_scanner_population_observed(self, batch_result):
        corpus = batch_result.corpus
        batch = set(np.unique(np.concatenate(
            [corpus.table(t).scanner_id
             for t in corpus.telescopes()])).tolist())
        union = batch | PER_PACKET_SCANNERS
        sym_diff = batch ^ PER_PACKET_SCANNERS
        assert len(sym_diff) <= max(2, 0.1 * len(union)), sorted(sym_diff)


class TestEpochAwareRouting:
    @pytest.fixture(scope="class")
    def deployment(self):
        return build_deployment(RngStreams(3), baseline_weeks=4,
                                num_cycles=4, num_stubs=12, num_tier2=6)

    def probe_addresses(self, rng):
        addrs = []
        for prefix in (T1_PREFIX, T2_PREFIX, T3_PREFIX, T4_PREFIX,
                       COVERING_PREFIX):
            addrs.extend(prefix.random_address(rng) for _ in range(8))
        addrs.append(parse_addr("2001:db8::1"))  # outside the deployment
        return addrs

    def test_matches_per_packet_route(self, deployment):
        addrs = self.probe_addresses(np.random.default_rng(0))
        times = [0.0]
        for cycle in deployment.controller.schedule:
            times.extend((cycle.announce_time - 1.0,
                          cycle.announce_time + 1.0,
                          (cycle.announce_time + cycle.withdraw_time) / 2,
                          cycle.withdraw_time - 1.0,
                          cycle.withdraw_time + 1.0))
        pairs = [(addr, when) for addr in addrs for when in times]
        hi = np.array([a >> 64 for a, _ in pairs], dtype=np.uint64)
        lo = np.array([a & _MASK64 for a, _ in pairs], dtype=np.uint64)
        when = np.array([t for _, t in pairs])
        slots, telescopes = deployment.route_batch(hi, lo, when)
        for (addr, t), slot in zip(pairs, slots.tolist()):
            expected = deployment.route(addr, now=t)
            got = telescopes[slot] if slot >= 0 else None
            assert got is expected, (hex(addr), t, slot)

    def test_single_epoch_fast_path(self, deployment):
        addrs = self.probe_addresses(np.random.default_rng(1))
        cycle = deployment.controller.schedule[1]
        mid = (cycle.announce_time + cycle.withdraw_time) / 2
        hi = np.array([a >> 64 for a in addrs], dtype=np.uint64)
        lo = np.array([a & _MASK64 for a in addrs], dtype=np.uint64)
        when = np.full(len(addrs), mid)
        slots, telescopes = deployment.route_batch(hi, lo, when)
        for addr, slot in zip(addrs, slots.tolist()):
            expected = deployment.route(addr, now=mid)
            got = telescopes[slot] if slot >= 0 else None
            assert got is expected, hex(addr)


class TestNoPacketObjects:
    """Emission, capture and the trigger and DDoS harnesses keep packets
    as columns: none of them builds a ``Packet`` record."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        original = Packet.__post_init__

        def trap(packet):
            built.append(packet)
            original(packet)

        monkeypatch.setattr(Packet, "__post_init__", trap)
        return built

    def test_campaign_builds_no_packet(self, built):
        result = run_experiment(ExperimentConfig.tiny())
        assert result.corpus.total_packets() > 0
        assert built == []

    def test_trigger_experiment_builds_no_packet(self, built):
        result = TriggerExperiment(trigger=DnsExposureTrigger()).run()
        assert result.exposed_packets_after > 0
        assert built == []

    def test_ddos_attack_builds_no_packet(self, built):
        telescope = Telescope(name="T", kind=TelescopeKind.PASSIVE,
                              prefixes=[T1_PREFIX], capture=PacketCapture())
        ctx = ScannerContext(simulator=Simulator(),
                             route=prefix_router([telescope]))
        attack = DDoSAttack(victim=parse_addr("2001:db8::1"), packets=500,
                            rng=np.random.default_rng(0),
                            spoof_space=T1_PREFIX)
        assert attack.run(ctx) == 500
        assert telescope.packet_count == 500
        assert built == []


class TestEmitConfig:
    def test_as_column_broadcasts_scalars(self):
        column = _as_column(np.uint64(7), 4)
        assert column.tolist() == [7, 7, 7, 7]
        existing = np.arange(3, dtype=np.uint64)
        assert _as_column(existing, 3) is existing
