"""End-to-end contracts of the batched emission kernel.

Three guarantees back the perf work:

- **determinism** — a fixed seed yields a byte-identical corpus on the
  batch path, run to run;
- **fidelity** — the batch path agrees with the per-packet oracle
  (``batch_emit=False``) in distribution: the two paths consume their
  RNG draws in different orders, so the contract is tolerance-based
  marginals, not packet-for-packet equality;
- **epoch-aware routing** — ``Deployment.route_batch`` reproduces the
  per-packet ``route`` exactly, even for batches straddling announce and
  withdraw boundaries.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiment import ExperimentConfig, run_experiment
from repro.net.addr import parse_addr
from repro.scanners.base import _as_column
from repro.sim.rng import RngStreams
from repro.telescope.deployment import (COVERING_PREFIX, T1_PREFIX, T2_PREFIX,
                                        T3_PREFIX, T4_PREFIX,
                                        build_deployment)

#: Every column a corpus table carries; determinism is asserted over all.
COLUMNS = ("time", "src_hi", "src_lo", "dst_hi", "dst_lo", "protocol",
           "dst_port", "src_asn", "scanner_id", "payload_id")

_MASK64 = (1 << 64) - 1


@pytest.fixture(scope="module")
def batch_result():
    return run_experiment(replace(ExperimentConfig.tiny(), batch_emit=True))


@pytest.fixture(scope="module")
def legacy_result():
    return run_experiment(replace(ExperimentConfig.tiny(), batch_emit=False))


class TestBatchDeterminism:
    def test_byte_identical_rerun(self, batch_result):
        rerun = run_experiment(replace(ExperimentConfig.tiny(),
                                       batch_emit=True))
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
    """Batch vs per-packet oracle: same campaign, tolerance-based match."""

    def test_total_packets_close(self, batch_result, legacy_result):
        batch = batch_result.corpus.total_packets()
        legacy = legacy_result.corpus.total_packets()
        assert batch == pytest.approx(legacy, rel=0.02)

    def test_per_telescope_counts_close(self, batch_result, legacy_result):
        for name in legacy_result.corpus.telescopes():
            batch = len(batch_result.corpus.table(name))
            legacy = len(legacy_result.corpus.table(name))
            # small telescopes (T3 sees ~10 packets at tiny scale) get an
            # absolute allowance; the big ones must track within 5%
            assert abs(batch - legacy) <= max(5, 0.05 * legacy), \
                (name, batch, legacy)

    def test_protocol_marginals_close(self, batch_result, legacy_result):
        def marginal(corpus):
            protocol = np.concatenate([corpus.table(t).protocol
                                       for t in corpus.telescopes()])
            values, counts = np.unique(protocol, return_counts=True)
            return dict(zip(values.tolist(),
                            (counts / counts.sum()).tolist()))
        batch, legacy = (marginal(batch_result.corpus),
                         marginal(legacy_result.corpus))
        assert set(batch) == set(legacy)
        for value, share in legacy.items():
            assert batch[value] == pytest.approx(share, abs=0.05), value

    def test_temporal_shape_close(self, batch_result, legacy_result):
        # BGP reactivity shape: the baseline/active split of T1 traffic
        # must survive the emission rewrite
        split = batch_result.corpus.config.split_start
        assert legacy_result.corpus.config.split_start == split

        def active_share(result):
            time = result.corpus.table("T1").time
            return float((time >= split).mean())
        assert active_share(batch_result) \
            == pytest.approx(active_share(legacy_result), abs=0.05)

    def test_same_scanner_population_observed(self, batch_result,
                                              legacy_result):
        def observed(result):
            return set(np.unique(np.concatenate(
                [result.corpus.table(t).scanner_id
                 for t in result.corpus.telescopes()])).tolist())
        batch, legacy = observed(batch_result), observed(legacy_result)
        union, sym_diff = batch | legacy, batch ^ legacy
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


class TestEmitConfig:
    def test_as_column_broadcasts_scalars(self):
        column = _as_column(np.uint64(7), 4)
        assert column.tolist() == [7, 7, 7, 7]
        existing = np.arange(3, dtype=np.uint64)
        assert _as_column(existing, 3) is existing
