"""Dynamic target-generation-algorithm (TGA) scanner.

§2 of the paper: "dynamic TGAs adjust their training set by evaluating
the activity of generated addresses immediately through active scanning"
(6Tree, 6Hit, 6Scan, DET). This agent implements that feedback loop in
the spirit of 6Tree: it maintains a tree of candidate prefixes over a
search space, probes each candidate, descends into prefixes that answer,
and abandons silent ones.

Against the paper's deployment the dynamic TGA explains *why* the
reactive T4 attracts orders of magnitude more traffic than the silent T3
in the same covering /29: responses breed probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.columnar import NO_PAYLOAD
from repro.errors import ExperimentError
from repro.net.addr import random_bits
from repro.net.prefix import Prefix
from repro.scanners.base import (ScannerContext, SourceModel,
                                 TemporalBehavior, TemporalKind)
from repro.scanners.registry import ASRecord
from repro.scanners.strategies import split_targets
from repro.scanners.tools import ToolSignature
from repro.telescope.packet import Protocol

_MASK64 = (1 << 64) - 1


@dataclass
class CandidateNode:
    """One prefix in the TGA's search tree."""

    prefix: Prefix
    score: float = 0.0
    probes: int = 0
    hits: int = 0

    def reward(self) -> None:
        self.hits += 1
        self.score = self.score * 0.5 + 1.0

    def penalize(self) -> None:
        self.score *= 0.5


@dataclass
class DynamicTGAScanner:
    """A 6Tree-style feedback-driven scanner agent.

    Compatible with the driver's agent protocol (``start(ctx)``); probes
    are emitted through the same :class:`ScannerContext` as every other
    scanner and therefore land in whatever telescope owns the target.
    """

    scanner_id: int
    name: str
    as_record: ASRecord
    rng: np.random.Generator
    space: Prefix
    period: float
    #: known-active addresses that bootstrap the search tree — dynamic
    #: TGAs are seeded from hitlists/previous campaigns (§2); without
    #: seeds, blind descent cannot find a /48 inside a /29 (2^-19 per
    #: random probe).
    seeds: tuple[int, ...] = ()
    seed_prefix_len: int = 48
    probes_per_round: int = 64
    probes_per_node: int = 4
    max_prefix_len: int = 64
    exploration: float = 0.25
    tool: ToolSignature | None = None
    payload_probability: float = 0.0
    active_start: float | None = None
    active_end: float | None = None
    rdns_name: str = ""
    source_model: SourceModel = SourceModel.FIXED
    truth_network_class: str = "size-dependent"
    truth_address_class: str = "random"
    #: packets with a gap below the session timeout form one session.
    mean_packet_gap: float = 0.5
    sessions_fired: int = field(default=0, init=False)
    candidates: list[CandidateNode] = field(default_factory=list,
                                            init=False)
    _fixed_iid: int = field(default=0, init=False)
    _seq: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ExperimentError(f"{self.name}: TGA needs a period")
        if self.probes_per_round < 1 or self.probes_per_node < 1:
            raise ExperimentError(f"{self.name}: invalid probe budget")
        if self.max_prefix_len <= self.space.length:
            raise ExperimentError(f"{self.name}: max depth above space")
        self._fixed_iid = random_bits(self.rng, 64) or 1
        # the first split of the search space enters unconditionally
        low, high = self.space.split()
        self.candidates = [CandidateNode(low), CandidateNode(high)]
        # seed addresses add their covering /seed_prefix_len candidates
        # with a small prior score so they are probed (and verified) first
        seen = {node.prefix for node in self.candidates}
        for seed in self.seeds:
            if not self.space.contains_address(seed):
                raise ExperimentError(
                    f"{self.name}: seed outside search space")
            length = max(self.space.length + 1,
                         min(self.seed_prefix_len, self.max_prefix_len))
            mask = ((1 << length) - 1) << (128 - length)
            candidate = Prefix(seed & mask, length)
            if candidate not in seen:
                seen.add(candidate)
                self.candidates.append(
                    CandidateNode(candidate, score=0.5))

    # -- agent protocol ----------------------------------------------------

    @property
    def temporal(self) -> TemporalBehavior:
        """Ground-truth schedule (rounds fire periodically)."""
        return TemporalBehavior(kind=TemporalKind.PERIODIC,
                                period=self.period)

    def source_address(self, port: int = 0, session_nonce: int = 0) -> int:
        return self.as_record.source_prefix.subnet(64, 0).network \
            | self._fixed_iid

    def validate(self) -> None:
        if self.mean_packet_gap >= 3600.0:
            raise ExperimentError(f"{self.name}: gap splits sessions")

    def start(self, ctx: ScannerContext) -> None:
        start = ctx.window_start if self.active_start is None \
            else max(ctx.window_start, self.active_start)
        end = ctx.window_end if self.active_end is None \
            else min(ctx.window_end, self.active_end)
        t = start + float(self.rng.uniform(0.0, self.period))
        while t < end:
            ctx.simulator.schedule_at(
                max(t, ctx.simulator.now),
                partial(self.fire, ctx, t),
                label=f"tga:{self.name}")
            t += self.period

    # -- the feedback loop -----------------------------------------------------

    def _select_nodes(self) -> list[CandidateNode]:
        """Exploitation of scored nodes plus epsilon-greedy exploration."""
        budget = max(1, self.probes_per_round // self.probes_per_node)
        ranked = sorted(self.candidates, key=lambda n: -n.score)
        selected: list[CandidateNode] = []
        for node in ranked:
            if len(selected) >= budget:
                break
            if node.score > 0 or self.rng.random() < self.exploration \
                    or not selected:
                selected.append(node)
        index = 0
        while len(selected) < budget and index < len(ranked):
            if ranked[index] not in selected:
                selected.append(ranked[index])
            index += 1
        return selected

    def _probe_target(self, node: CandidateNode) -> int:
        host_bits = 128 - node.prefix.length
        if self.rng.random() < 0.5:
            # low-byte probe of a random /64 inside the candidate
            span = max(0, min(64, node.prefix.length + 32) -
                       node.prefix.length)
            base = node.prefix.network | (
                random_bits(self.rng, span)
                << (128 - node.prefix.length - span)
                if span else 0)
            return base | int(self.rng.integers(1, 16))
        return node.prefix.network | random_bits(self.rng, host_bits)

    def fire(self, ctx: ScannerContext, when: float) -> int:
        """One probing round: probe candidates, descend into responders.

        Each candidate's probes leave as one column batch; the candidate
        is rewarded when any of them drew an answer.
        """
        self.sessions_fired += 1
        src = self.source_address()
        emitted = 0
        t = when
        for node in self._select_nodes():
            times, targets, payload_ids, payloads = [], [], [], []
            for _ in range(self.probes_per_node):
                targets.append(self._probe_target(node))
                payload_id = NO_PAYLOAD
                if self.tool is not None \
                        and self.rng.random() < self.payload_probability:
                    self._seq += 1
                    payload_id = len(payloads)
                    payloads.append(self.tool.payload(self.rng, self._seq))
                payload_ids.append(payload_id)
                times.append(t)
                t += float(self.rng.exponential(self.mean_packet_gap))
            n = len(times)
            dst_hi, dst_lo = split_targets(targets)
            answered = ctx.inject_batch(
                np.array(times), np.uint64(src >> 64),
                np.uint64(src & _MASK64), dst_hi, dst_lo,
                np.full(n, int(Protocol.ICMPV6), dtype=np.uint8),
                np.zeros(n, dtype=np.uint16), np.uint32(self.as_record.asn),
                np.int64(self.scanner_id),
                payload_id=np.array(payload_ids) if payloads else None,
                payloads=payloads or None)
            emitted += n
            node.probes += n
            if answered:
                node.reward()
                self._descend(node)
            else:
                node.penalize()
        self._prune()
        return emitted

    def _descend(self, node: CandidateNode) -> None:
        """Split a responsive candidate into its two more-specifics."""
        if node.prefix.length >= self.max_prefix_len:
            return
        existing = {n.prefix for n in self.candidates}
        for child in node.prefix.split():
            if child not in existing:
                self.candidates.append(
                    CandidateNode(child, score=node.score))

    def _prune(self, max_candidates: int = 64) -> None:
        """Drop hopeless candidates, keep the tree bounded."""
        if len(self.candidates) <= max_candidates:
            return
        self.candidates.sort(key=lambda n: (-n.score, n.prefix.length))
        self.candidates = self.candidates[:max_candidates]

    # -- introspection ------------------------------------------------------------

    def focus_prefixes(self, top: int = 3) -> list[Prefix]:
        """The currently highest-scored candidate prefixes."""
        ranked = sorted(self.candidates, key=lambda n: -n.score)
        return [n.prefix for n in ranked[:top]]

    def hit_rate(self) -> float:
        probes = sum(n.probes for n in self.candidates)
        hits = sum(n.hits for n in self.candidates)
        return hits / probes if probes else 0.0
