"""Operational guidance for telescope operators (§8).

Derives the paper's five practical recommendations from a corpus, each
backed by a measured factor:

(i)   announce the telescope prefix individually in BGP;
(ii)  prefer *more announced prefixes* over *larger* prefixes;
(iii) expect different attractors (BGP vs DNS) to draw different scanners;
(iv)  expect active services to draw scanners to neighboring space;
(v)   deploy structured (low-byte) addresses — scanners prefer them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.context import CorpusAnalysis
from repro.core.addrclass import CLASS_CODE, AddressClass
from repro.core.aggregation import AggregationLevel
from repro.core.reactivity import sessions_per_prefix_cumulative
from repro.errors import AnalysisError
from repro.experiment.phases import Phase


@dataclass(frozen=True, slots=True)
class Recommendation:
    """One §8 guidance item with its supporting evidence."""

    key: str
    statement: str
    factor: float
    evidence: str

    def render(self) -> str:
        return f"[{self.key}] {self.statement}\n      evidence: " \
               f"{self.evidence}"


@dataclass(frozen=True)
class GuidanceReport:
    recommendations: tuple[Recommendation, ...]

    def get(self, key: str) -> Recommendation:
        for recommendation in self.recommendations:
            if recommendation.key == key:
                return recommendation
        raise AnalysisError(f"no recommendation {key!r}")

    def render(self) -> str:
        lines = ["Operational guidance for IPv6 telescope deployment (§8)"]
        for recommendation in self.recommendations:
            lines.append("  " + recommendation.render())
        return "\n".join(lines)


def derive_guidance(analysis: CorpusAnalysis) -> GuidanceReport:
    """Compute all five recommendations from one corpus."""
    corpus = analysis.corpus
    recommendations = []

    # (i) own announcement vs silent subnet of a covering prefix
    announced = len(corpus.table("T1")) + len(corpus.table("T2"))
    silent = max(len(corpus.table("T3")), 1)
    factor = announced / 2 / silent
    recommendations.append(Recommendation(
        key="announce",
        statement="announce the telescope prefix individually in BGP; "
                  "silent subnets of covering prefixes stay invisible",
        factor=factor,
        evidence=f"announced telescopes received {factor:,.0f}x the "
                 "packets of the silent covered subnet"))

    # (ii) number of announced prefixes over prefix size
    sessions = analysis.sessions("T1", AggregationLevel.ADDR, Phase.FULL)
    cumulative = sessions_per_prefix_cumulative(sessions, corpus.schedule)
    by_length: Counter = Counter()
    count_by_length: Counter = Counter()
    for prefix, series in cumulative.items():
        by_length[prefix.length] += series[-1]
        count_by_length[prefix.length] += 1
    lengths = sorted(length for length in by_length if length >= 33)
    if len(lengths) >= 2:
        smallest, largest = lengths[0], lengths[-1]
        small_yield = by_length[largest] / count_by_length[largest]
        big_yield = by_length[smallest] / count_by_length[smallest]
        size_ratio = 2 ** (largest - smallest)
        yield_ratio = big_yield / max(small_yield, 1e-9)
        factor = size_ratio / max(yield_ratio, 1e-9)
    else:
        factor = 1.0
        yield_ratio = 1.0
        size_ratio = 1.0
        smallest = largest = lengths[0] if lengths else 0
    recommendations.append(Recommendation(
        key="count-over-size",
        statement="the number of individually announced prefixes matters "
                  "more than their size",
        factor=factor,
        evidence=f"a /{largest} is {size_ratio:,.0f}x smaller than a "
                 f"/{smallest} yet yields only {yield_ratio:.1f}x fewer "
                 "sessions once announced"))

    # (iii) different attractors draw different scanners
    t1_sources = corpus.table("T1").unique_source_addresses()
    t2_sources = corpus.table("T2").unique_source_addresses()
    union = len(t1_sources | t2_sources)
    shared = len(t1_sources & t2_sources)
    exclusivity = 1 - shared / max(union, 1)
    recommendations.append(Recommendation(
        key="attractor-diversity",
        statement="different attractors (BGP announcements vs DNS "
                  "exposure) draw different kinds of scanners",
        factor=exclusivity,
        evidence=f"{100 * exclusivity:.0f}% of BGP- or DNS-drawn sources "
                 "were exclusive to one attractor"))

    # (iv) active services draw scanners to neighboring space
    reactive = len(corpus.table("T4"))
    factor = reactive / silent
    recommendations.append(Recommendation(
        key="react",
        statement="active network services draw scanners to neighboring "
                  "address space",
        factor=factor,
        evidence=f"the reactive /48 received {factor:,.0f}x the packets "
                 "of the equally covered silent /48"))

    # (v) structured addresses are preferred targets
    structured = 0
    total = 0
    for telescope in corpus.telescopes():
        codes = analysis.address_classes(telescope, AggregationLevel.ADDR,
                                         Phase.FULL)
        total += len(codes)
        structured += int(np.count_nonzero(
            codes == CLASS_CODE[AddressClass.STRUCTURED]))
    share = structured / max(total, 1)
    recommendations.append(Recommendation(
        key="structured-targets",
        statement="deploy structured (low-byte) addresses; many scanners "
                  "prefer them",
        factor=share,
        evidence=f"{100 * share:.0f}% of all scan sessions used a "
                 "structured target selection"))

    return GuidanceReport(recommendations=tuple(recommendations))
