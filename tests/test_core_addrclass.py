"""Tests for repro.core.addrclass."""

import numpy as np
import pytest

from repro.core.addrclass import CLASS_ORDER, AddressClass, classify_segments
from repro.errors import ClassificationError
from repro.net.addrgen import random_targets
from repro.net.prefix import Prefix

P = Prefix.parse("3fff:1000::/32")

#: A random-looking IID: addr6 types it RANDOMIZED.
RANDOM_IID = 0x9C4E_27B1_D83F_6A05


def classify(targets: list[int]) -> AddressClass:
    """One session's class: the one-session case of
    :func:`classify_segments`."""
    return CLASS_ORDER[classify_segments(*columns([targets]))[0]]


def random_iids(subnets, seed: int = 0) -> list[int]:
    """One target with a random IID in each given /64 of ``P``."""
    rng = np.random.default_rng(seed)
    return [P.subnet(64, int(i)).network
            | int(rng.integers(1 << 62, 1 << 63)) for i in subnets]


def columns(sessions: list[list[int]]):
    targets = [t for session in sessions for t in session]
    starts = np.cumsum([0] + [len(s) for s in sessions[:-1]])
    return (np.array([t >> 64 for t in targets], dtype=np.uint64),
            np.array([t & ((1 << 64) - 1) for t in targets],
                     dtype=np.uint64), starts)


class TestStructuredShare:
    def test_all_low_byte(self):
        # descending subnets: only the addr6-type share can mark it
        targets = [P.subnet(64, i).network | 1 for i in range(9, -1, -1)]
        assert classify(targets) is AddressClass.STRUCTURED

    def test_all_random(self):
        rng = np.random.default_rng(0)
        targets = random_targets(P, rng, 100)
        assert classify(targets) is AddressClass.RANDOM

    def test_empty_rejected(self):
        empty = np.empty(0, dtype=np.uint64)
        with pytest.raises(ClassificationError):
            classify_segments(empty, empty, np.zeros(1, dtype=np.int64))
        hi, lo, _ = columns([[P.network | 1]])
        with pytest.raises(ClassificationError):
            classify_segments(hi, lo, np.array([0, 0]))

    def test_repeated_targets_count_per_probe(self):
        """The share counts probes, not distinct IIDs; half is enough."""
        subnet = P.subnet(64, 5).network
        noise = [subnet | (RANDOM_IID + i) for i in range(4)]
        assert classify([subnet | 1] * 3 + noise) is AddressClass.UNKNOWN
        assert classify([subnet | 1] * 4 + noise) \
            is AddressClass.STRUCTURED


class TestOrderedTraversal:
    def test_sequential_subnets(self):
        assert classify(random_iids(range(20))) is AddressClass.STRUCTURED

    def test_shuffled_not_ordered(self):
        rng = np.random.default_rng(0)
        assert classify(random_iids(rng.permutation(50))) \
            is AddressClass.UNKNOWN

    def test_too_short(self):
        assert classify(random_iids(range(3))) is AddressClass.UNKNOWN
        assert classify(random_iids(range(4))) is AddressClass.STRUCTURED

    def test_repeated_subnet_is_a_step_forward(self):
        assert classify(random_iids([7, 7, 8, 8, 9, 9])) \
            is AddressClass.STRUCTURED

    def test_two_subnets_not_a_traversal(self):
        assert classify(random_iids([7, 7, 8, 8, 8, 8])) \
            is AddressClass.UNKNOWN


class TestClassifySession:
    def test_low_byte_session_structured(self):
        targets = [P.subnet(64, i).network | 1 for i in range(50)]
        assert classify(targets) \
            is AddressClass.STRUCTURED

    def test_random_session_detected(self):
        rng = np.random.default_rng(1)
        targets = random_targets(P, rng, 200)
        # shuffle defeats the traversal check; NIST must catch randomness
        assert classify(targets) \
            is AddressClass.RANDOM

    def test_small_random_session_unknown(self):
        """Below 100 packets the NIST filter cannot attest randomness."""
        rng = np.random.default_rng(1)
        shuffled = random_targets(P, rng, 30)
        rng.shuffle(shuffled)  # type: ignore[arg-type]
        verdict = classify(list(shuffled))
        assert verdict in (AddressClass.UNKNOWN, AddressClass.STRUCTURED)

    def test_segments_match_single_sessions(self):
        """One pass over many sessions equals one call per session."""
        rng = np.random.default_rng(2)
        structured, random, unknown = CLASS_ORDER
        sessions = [
            ([P.subnet(64, i).network | 1 for i in range(10)], structured),
            (random_targets(P, rng, 150), random),
            (random_iids(range(30), seed=1), structured),
            (random_iids(rng.permutation(40), seed=2), unknown),
            ([P.network | RANDOM_IID], unknown),
            (random_iids([7, 7, 8, 8, 8, 8], seed=3), unknown),
            # starts in the subnet the previous session ended in
            (random_iids([8, 9, 10, 10], seed=4), structured),
            (random_targets(P, rng, 120), random),
        ]
        codes = classify_segments(*columns([s for s, _ in sessions]))
        assert [CLASS_ORDER[c] for c in codes] \
            == [cls for _, cls in sessions] \
            == [classify(s) for s, _ in sessions]


class TestSingleSubnetSessions:
    def test_random_single_subnet_not_structured(self):
        """Random IIDs inside one fixed /64 must not count as an ordered
        traversal (reviewed bug: equal subnets were 'monotone')."""
        rng = np.random.default_rng(3)
        subnet = P.subnet(64, 7)
        targets = [subnet.random_address(rng) for _ in range(150)]
        assert classify(targets) \
            is AddressClass.RANDOM
