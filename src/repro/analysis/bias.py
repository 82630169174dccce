"""Telescope bias quantification (§8, outlook item ii).

"Are observations in telescopes unbiased? No. [...] triggers attract only
those scanners that react to them. [...] We measure the effects of network
triggers and show how and which scanners react to them, i.e., we quantify
the biasing factors."

This module turns that statement into numbers: it profiles the scanner
population each telescope attracts (temporal mix, protocol mix, address-
selection mix, source rotation) and computes pairwise divergences between
the telescopes' populations. A large divergence between two telescopes
means their attractors sample *different* scanner populations — the bias
an operator inherits with the deployment choice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.analysis.context import CorpusAnalysis
from repro.core.addrclass import CLASS_ORDER
from repro.core.aggregation import AggregationLevel
from repro.errors import AnalysisError
from repro.experiment.phases import Phase


def _normalize(counter: Counter) -> dict:
    total = sum(counter.values())
    if total == 0:
        return {}
    return {key: value / total for key, value in counter.items()}


def total_variation(p: dict, q: dict) -> float:
    """Total-variation distance between two discrete distributions."""
    keys = set(p) | set(q)
    if not keys:
        return 0.0
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


@dataclass(frozen=True)
class TelescopeProfile:
    """Composition of the scanner population one telescope attracts."""

    telescope: str
    sources: int
    sessions: int
    temporal_mix: dict
    protocol_mix: dict
    address_mix: dict
    rotation_ratio: float  # /128 sources over /64 sources

    def divergence(self, other: "TelescopeProfile") -> float:
        """Mean total-variation distance across the three behavior mixes.

        0 = the two telescopes sample identical populations;
        1 = completely disjoint behavior.
        """
        return (total_variation(self.temporal_mix, other.temporal_mix)
                + total_variation(self.protocol_mix, other.protocol_mix)
                + total_variation(self.address_mix, other.address_mix)) / 3


@dataclass(frozen=True)
class BiasReport:
    """Per-telescope profiles plus the pairwise divergence matrix."""

    profiles: dict[str, TelescopeProfile]
    divergences: dict[tuple[str, str], float]

    def most_divergent_pair(self) -> tuple[str, str]:
        if not self.divergences:
            raise AnalysisError("no telescope pairs to compare")
        return max(self.divergences, key=lambda k: self.divergences[k])

    def render(self) -> str:
        lines = ["Telescope bias report (attractor-sampled populations)"]
        for name in sorted(self.profiles):
            profile = self.profiles[name]
            temporal = ", ".join(
                f"{cls.value}={share:.2f}"
                for cls, share in sorted(profile.temporal_mix.items(),
                                         key=lambda kv: -kv[1]))
            lines.append(f"  {name}: {profile.sources} sources, "
                         f"{profile.sessions} sessions, "
                         f"rotation={profile.rotation_ratio:.1f}x")
            lines.append(f"      temporal: {temporal}")
        lines.append("  pairwise population divergence (TV distance):")
        for (a, b), value in sorted(self.divergences.items()):
            lines.append(f"      {a} vs {b}: {value:.2f}")
        return "\n".join(lines)


def profile_telescope(analysis: CorpusAnalysis, telescope: str,
                      phase: Phase = Phase.FULL) -> TelescopeProfile:
    """Build the behavior profile of one telescope's visitors."""
    session_set = analysis.sessions(telescope, AggregationLevel.ADDR, phase)
    if not len(session_set):
        return TelescopeProfile(
            telescope=telescope, sources=0, sessions=0, temporal_mix={},
            protocol_mix={}, address_mix={}, rotation_ratio=1.0)
    temporal = analysis.temporal_classes(telescope, AggregationLevel.ADDR,
                                         phase)
    temporal_counter: Counter = Counter(temporal.values())
    protocol_counter: Counter = Counter()
    for session in session_set:
        for protocol in session.protocols():
            protocol_counter[protocol] += 1
    address_counter = Counter(
        CLASS_ORDER[code] for code in analysis.address_classes(
            telescope, AggregationLevel.ADDR, phase).tolist())
    packets = analysis.corpus.phase_packets(telescope, phase)
    sources_128 = len({p.src for p in packets})
    sources_64 = len({p.src >> 64 for p in packets})
    return TelescopeProfile(
        telescope=telescope,
        sources=sources_128,
        sessions=len(session_set),
        temporal_mix=_normalize(temporal_counter),
        protocol_mix=_normalize(protocol_counter),
        address_mix=_normalize(address_counter),
        rotation_ratio=sources_128 / max(sources_64, 1))


def bias_report(analysis: CorpusAnalysis,
                phase: Phase = Phase.FULL,
                min_sources: int = 3) -> BiasReport:
    """Quantify attractor bias across all telescopes.

    Telescopes with fewer than ``min_sources`` visitors are profiled but
    excluded from the divergence matrix (their mixes are noise).
    """
    profiles = {t: profile_telescope(analysis, t, phase)
                for t in analysis.corpus.telescopes()}
    comparable = [t for t, p in profiles.items()
                  if p.sources >= min_sources]
    divergences: dict[tuple[str, str], float] = {}
    for i, a in enumerate(sorted(comparable)):
        for b in sorted(comparable)[i + 1:]:
            divergences[(a, b)] = profiles[a].divergence(profiles[b])
    return BiasReport(profiles=profiles, divergences=divergences)
