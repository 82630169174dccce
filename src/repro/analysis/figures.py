"""Figure-data generators (Figures 3-5, 7-17 of the paper).

Each ``figN`` function computes the exact data series behind the paper's
figure and returns a result object with a ``render()`` text summary.
Figures 1, 2, and 6 are concept diagrams; Fig. 2's schedule is available
directly from :func:`repro.bgp.controller.build_split_schedule`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.context import CorpusAnalysis
from repro.analysis.degrade import warn_degraded
from repro.obs import traced
from repro.core.addrclass import CLASS_ORDER, AddressClass
from repro.core.aggregation import AggregationLevel
from repro.core.heavy import HeavyHitter, find_heavy_hitters
from repro.core.nist import (bits_from_addresses, run_battery)
from repro.core.overlap import (UpSetData, day_overlap, sources_everywhere,
                                upset)
from repro.core.reactivity import (CycleActivity, cycle_activity,
                                   new_source_prefixes_per_day,
                                   sessions_per_prefix_cumulative)
from repro.core.sessions import Session
from repro.core.temporal import TemporalClass
from repro.errors import AnalysisError
from repro.experiment.phases import Phase
from repro.net.addr import nibbles_of
from repro.net.prefix import Prefix
from repro.sim.clock import DAY, HOUR, WEEK

TELESCOPES = ("T1", "T2", "T3", "T4")


# -- Fig. 3: new source prefixes after an announcement ---------------------


@dataclass
class Fig3Result:
    """Daily counts of newly discovered source prefixes (initial period)."""

    daily_new: list[int]

    def knee_day(self, fraction: float = 0.8) -> int:
        """First day by which ``fraction`` of all discoveries happened."""
        total = sum(self.daily_new)
        if total == 0:
            raise AnalysisError("no sources discovered")
        running = 0
        for day, count in enumerate(self.daily_new):
            running += count
            if running >= fraction * total:
                return day
        return len(self.daily_new) - 1

    def render(self) -> str:
        lines = ["Fig 3: newly discovered source prefixes per day"]
        for day, count in enumerate(self.daily_new):
            if count:
                lines.append(f"  day {day:3d}: {count}")
        lines.append(f"  80% knee at day {self.knee_day()}")
        return "\n".join(lines)


@traced("analysis.fig3")
def fig3(analysis: CorpusAnalysis) -> Fig3Result:
    packets = [p for t in TELESCOPES
               for p in analysis.corpus.phase_packets(t, Phase.INITIAL)]
    start, end = 0.0, analysis.corpus.config.split_start
    return Fig3Result(daily_new=new_source_prefixes_per_day(
        packets, start, end))


# -- Fig. 4: relative growth of packets / ASes / sources / sessions --------


@dataclass
class Fig4Result:
    """Weekly cumulative relative growth of the §3.3 aggregates."""

    weeks: list[int]
    series: dict[str, list[float]]

    def final_ratio(self, numerator: str, denominator: str) -> float:
        """Final absolute-count ratio between two series."""
        return (self.series[numerator][-1] or 0.0) \
            / max(self.series[denominator][-1], 1e-12)

    def render(self) -> str:
        lines = ["Fig 4: cumulative growth (relative to final value)"]
        for name, values in self.series.items():
            mid = values[len(values) // 2] / max(values[-1], 1e-12)
            lines.append(f"  {name}: 50%-time share {mid:.2f}")
        return "\n".join(lines)


@traced("analysis.fig4")
def fig4(analysis: CorpusAnalysis) -> Fig4Result:
    packets = sorted((p for t in TELESCOPES
                      for p in analysis.corpus.phase_packets(t, Phase.FULL)),
                     key=lambda p: p.time)
    if not packets:
        if not analysis.has_gaps():
            raise AnalysisError("empty corpus")
        # every capture was dark: degrade to a well-defined flat result
        warn_degraded("fig4: all captures empty due to coverage gaps; "
                      "emitting zero series", artifact="fig4",
                      reason="coverage_gap")
        duration = analysis.corpus.config.duration
        weeks = list(range(int(duration / WEEK) + 1))
        return Fig4Result(weeks=weeks, series={
            name: [0.0] * len(weeks)
            for name in ("packets", "asns", "sources_128", "sources_64",
                         "sessions_128", "sessions_64")})
    duration = analysis.corpus.config.duration
    weeks = list(range(int(duration / WEEK) + 1))
    counters = {
        "packets": 0,
        "asns": set(),
        "sources_128": set(),
        "sources_64": set(),
    }
    series: dict[str, list[float]] = {
        "packets": [], "asns": [], "sources_128": [], "sources_64": [],
        "sessions_128": [], "sessions_64": [],
    }
    index = 0
    for week in weeks:
        horizon = (week + 1) * WEEK
        while index < len(packets) and packets[index].time < horizon:
            p = packets[index]
            counters["packets"] += 1
            if p.src_asn:
                counters["asns"].add(p.src_asn)
            counters["sources_128"].add(p.src)
            counters["sources_64"].add(p.src >> 64)
            index += 1
        series["packets"].append(float(counters["packets"]))
        series["asns"].append(float(len(counters["asns"])))
        series["sources_128"].append(float(len(counters["sources_128"])))
        series["sources_64"].append(float(len(counters["sources_64"])))
    # sessions: count per week bucket from the sessionized view
    for level, name in ((AggregationLevel.ADDR, "sessions_128"),
                        (AggregationLevel.SUBNET, "sessions_64")):
        starts = sorted(s.start for t in TELESCOPES
                        for s in analysis.sessions(t, level, Phase.FULL))
        running = 0
        position = 0
        for week in weeks:
            horizon = (week + 1) * WEEK
            while position < len(starts) and starts[position] < horizon:
                running += 1
                position += 1
            series[name].append(float(running))
    return Fig4Result(weeks=weeks, series=series)


# -- Fig. 5: daily heavy-hitter activity ------------------------------------


@dataclass
class Fig5Result:
    """Per heavy hitter: day -> packet count, per telescope."""

    hitters: list[HeavyHitter]
    daily: dict[tuple[int, str], dict[int, int]]

    def active_days(self, source: int, telescope: str) -> int:
        return len(self.daily.get((source, telescope), {}))

    def render(self) -> str:
        lines = ["Fig 5: heavy-hitter daily activity"]
        for hitter in self.hitters:
            days = self.active_days(hitter.source, hitter.telescope)
            lines.append(
                f"  {hitter.telescope} src={hitter.source:#034x} "
                f"share={hitter.share:.2f} days_active={days}")
        return "\n".join(lines)


@traced("analysis.fig5")
def fig5(analysis: CorpusAnalysis) -> Fig5Result:
    packets_by_telescope = {
        t: analysis.corpus.phase_packets(t, Phase.FULL) for t in TELESCOPES}
    hitters = find_heavy_hitters(packets_by_telescope)
    wanted = {(h.source, h.telescope) for h in hitters}
    daily: dict[tuple[int, str], dict[int, int]] = {}
    for telescope, packets in packets_by_telescope.items():
        for p in packets:
            key = (p.src, telescope)
            if key in wanted:
                bucket = daily.setdefault(key, {})
                day = int(p.time // DAY)
                bucket[day] = bucket.get(day, 0) + 1
    return Fig5Result(hitters=hitters, daily=daily)


# -- Fig. 7: initial-period traffic and classification ----------------------


@dataclass
class Fig7Result:
    """(a) hourly packets per telescope; (b) temporal x address classes."""

    hourly: dict[str, list[int]]
    classification: dict[str, dict[tuple[TemporalClass, AddressClass], int]]

    def render(self) -> str:
        lines = ["Fig 7(a): hourly traffic peaks"]
        for telescope, series in self.hourly.items():
            peak = max(series) if series else 0
            lines.append(f"  {telescope}: peak={peak}/h "
                         f"total={sum(series)}")
        lines.append("Fig 7(b): sessions per temporal x address class")
        for telescope, histogram in self.classification.items():
            for (temporal, address), count in sorted(
                    histogram.items(), key=lambda kv: -kv[1]):
                lines.append(f"  {telescope} {temporal.value}"
                             f"/{address.value}: {count}")
        return "\n".join(lines)


@traced("analysis.fig7")
def fig7(analysis: CorpusAnalysis) -> Fig7Result:
    split_start = analysis.corpus.config.split_start
    hours = int(split_start / HOUR)
    hourly: dict[str, list[int]] = {}
    for telescope in TELESCOPES:
        series = [0] * hours
        for p in analysis.corpus.phase_packets(telescope, Phase.INITIAL):
            series[min(int(p.time // HOUR), hours - 1)] += 1
        hourly[telescope] = series
    classification = {telescope: _taxonomy(analysis, telescope,
                                           Phase.INITIAL)
                      for telescope in TELESCOPES}
    return Fig7Result(hourly=hourly, classification=classification)


def _taxonomy(analysis: CorpusAnalysis, telescope: str, phase: Phase) \
        -> dict[tuple[TemporalClass, AddressClass], int]:
    """Sessions per (temporal, address) class of one telescope's /128
    sources, tallied source by source in ``by_source`` order: the
    renderers sort by count, so ties keep this insertion order."""
    session_set = analysis.sessions(telescope, AggregationLevel.ADDR, phase)
    temporal = analysis.temporal_classes(telescope, AggregationLevel.ADDR,
                                         phase)
    codes = analysis.address_classes(telescope, AggregationLevel.ADDR, phase)
    by_source: dict[int, list[int]] = {}
    for session, code in zip(session_set.sessions, codes.tolist()):
        by_source.setdefault(session.source, []).append(code)
    return dict(Counter((temporal[source], CLASS_ORDER[code])
                        for source, source_codes in by_source.items()
                        for code in source_codes))


# -- Fig. 8: cross-telescope UpSet intersections -----------------------------


@dataclass
class Fig8Result:
    """UpSet data for source ASNs and /128 sources (initial period)."""

    asns: UpSetData
    sources: UpSetData

    def exclusive_source_share(self) -> float:
        """Share of /128 sources observed at exactly one telescope."""
        exclusive = sum(self.sources.exclusive(t) for t in TELESCOPES)
        all_items = sum(self.sources.intersections.values())
        return exclusive / all_items if all_items else 0.0

    def render(self) -> str:
        lines = ["Fig 8: telescope overlap (initial period)"]
        lines.append(f"  ASN set sizes: {self.asns.set_sizes}")
        lines.append(f"  /128 exclusive share: "
                     f"{self.exclusive_source_share():.2f}")
        return "\n".join(lines)


@traced("analysis.fig8")
def fig8(analysis: CorpusAnalysis) -> Fig8Result:
    asn_sets: dict[str, set] = {}
    source_sets: dict[str, set] = {}
    for telescope in TELESCOPES:
        packets = analysis.corpus.phase_packets(telescope, Phase.INITIAL)
        asn_sets[telescope] = {p.src_asn for p in packets if p.src_asn}
        source_sets[telescope] = {p.src for p in packets}
    return Fig8Result(asns=upset(asn_sets), sources=upset(source_sets))


# -- Fig. 9: weekly sessions per telescope -----------------------------------


@dataclass
class Fig9Result:
    weekly: dict[str, list[int]]
    #: per-telescope, per-week fraction of the week the capture was up
    #: (all 1.0 for a gap-free corpus).
    coverage: dict[str, list[float]] = field(default_factory=dict)
    #: session counts scaled to full-coverage equivalents
    #: (``weekly / coverage``; a fully dark week stays 0).
    normalized: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Fig 9: weekly scan sessions (initial period)"]
        for telescope, series in self.weekly.items():
            lines.append(f"  {telescope}: {series}")
            coverage = self.coverage.get(telescope)
            if coverage and min(coverage) < 1.0:
                scaled = [round(v, 1) for v in self.normalized[telescope]]
                lines.append(f"  {telescope} (gap-normalized): {scaled}")
        return "\n".join(lines)


@traced("analysis.fig9")
def fig9(analysis: CorpusAnalysis) -> Fig9Result:
    weeks = int(analysis.corpus.config.split_start / WEEK)
    analysis.warn_if_degraded("fig9")
    weekly: dict[str, list[int]] = {}
    coverage: dict[str, list[float]] = {}
    normalized: dict[str, list[float]] = {}
    for telescope in TELESCOPES:
        series = [0] * weeks
        for session in analysis.sessions(telescope, AggregationLevel.ADDR,
                                         Phase.INITIAL):
            series[min(int(session.start // WEEK), weeks - 1)] += 1
        weekly[telescope] = series
        fractions = [
            analysis.corpus.covered_fraction(telescope, w * WEEK,
                                             (w + 1) * WEEK)
            for w in range(weeks)]
        coverage[telescope] = fractions
        normalized[telescope] = [
            count / fraction if fraction > 0.0 else 0.0
            for count, fraction in zip(series, fractions)]
    return Fig9Result(weekly=weekly, coverage=coverage,
                      normalized=normalized)


# -- Fig. 10: cumulative sessions per announced prefix ------------------------


@dataclass
class Fig10Result:
    cumulative: dict[Prefix, list[int]]
    cycle_indices: list[int]

    def final_share_of_48s(self) -> float:
        """Share of the *final announcement period's* sessions that land
        in /48 prefixes (the paper's 15.7% headline)."""
        total = last_48 = 0
        for prefix, series in self.cumulative.items():
            increment = series[-1] - (series[-2] if len(series) > 1 else 0)
            total += increment
            if prefix.length == 48:
                last_48 += increment
        return last_48 / total if total else 0.0

    def render(self) -> str:
        lines = ["Fig 10: cumulative sessions per most-specific prefix"]
        ranked = sorted(self.cumulative.items(),
                        key=lambda kv: -kv[1][-1])[:8]
        for prefix, series in ranked:
            lines.append(f"  {prefix}: {series[-1]}")
        lines.append(f"  /48 share in final cycle: "
                     f"{self.final_share_of_48s():.3f}")
        return "\n".join(lines)


@traced("analysis.fig10")
def fig10(analysis: CorpusAnalysis) -> Fig10Result:
    sessions = analysis.sessions("T1", AggregationLevel.ADDR,
                                 Phase.FULL).sessions
    cycles = analysis.corpus.schedule
    return Fig10Result(
        cumulative=sessions_per_prefix_cumulative(sessions, cycles),
        cycle_indices=[c.index for c in cycles])


# -- Fig. 11: bi-weekly sessions and sources, T1 vs the rest -------------------


@dataclass
class Fig11Result:
    t1: list[CycleActivity]
    others: list[CycleActivity]

    def render(self) -> str:
        lines = ["Fig 11: bi-weekly activity (T1 vs aggregated T2-T4)"]
        for a, b in zip(self.t1, self.others):
            lines.append(f"  cycle {a.cycle_index:2d}: "
                         f"T1 src={a.sources:5d} sess={a.sessions:6d} | "
                         f"rest src={b.sources:5d} sess={b.sessions:6d}")
        return "\n".join(lines)


@traced("analysis.fig11")
def fig11(analysis: CorpusAnalysis) -> Fig11Result:
    cycles = analysis.corpus.schedule
    t1_sessions = analysis.sessions("T1", AggregationLevel.ADDR,
                                    Phase.FULL).sessions
    other_sessions = []
    for telescope in ("T2", "T3", "T4"):
        other_sessions.extend(
            analysis.sessions(telescope, AggregationLevel.ADDR,
                              Phase.FULL).sessions)
    return Fig11Result(t1=cycle_activity(t1_sessions, cycles),
                       others=cycle_activity(other_sessions, cycles))


# -- Fig. 12/13: nibble matrices of example sessions ----------------------------


@dataclass
class NibbleMatrix:
    """Targets of one session as a (packets x 32) nibble matrix."""

    source: int
    nibbles: np.ndarray  # shape (n, 32), dtype uint8

    def column_entropy(self, column: int) -> float:
        """Shannon entropy (bits) of one nibble position."""
        counts = np.bincount(self.nibbles[:, column], minlength=16)
        probs = counts[counts > 0] / counts.sum()
        return float(-(probs * np.log2(probs)).sum())

    def sorted_lexicographically(self) -> "NibbleMatrix":
        order = np.lexsort(self.nibbles.T[::-1])
        return NibbleMatrix(source=self.source,
                            nibbles=self.nibbles[order])


@dataclass
class Fig12Result:
    structured: NibbleMatrix | None
    random: NibbleMatrix | None

    def render(self) -> str:
        lines = ["Fig 12: target nibble matrices of two example sessions"]
        for label, matrix in (("structured", self.structured),
                              ("random", self.random)):
            if matrix is None:
                lines.append(f"  {label}: (no qualifying session)")
                continue
            iid_entropy = np.mean([matrix.column_entropy(c)
                                   for c in range(16, 32)])
            subnet_entropy = np.mean([matrix.column_entropy(c)
                                      for c in range(8, 16)])
            lines.append(f"  {label}: n={len(matrix.nibbles)} "
                         f"subnet-entropy={subnet_entropy:.2f} "
                         f"iid-entropy={iid_entropy:.2f}")
        return "\n".join(lines)


def _nibble_matrix(session: Session) -> NibbleMatrix:
    data = np.array([nibbles_of(t) for t in session.targets()],
                    dtype=np.uint8)
    return NibbleMatrix(source=session.source, nibbles=data)


@traced("analysis.fig12")
def fig12(analysis: CorpusAnalysis, min_packets: int = 100) -> Fig12Result:
    """Pick one structured and one random T1 session and matrix them."""
    structured = best_random = None
    sessions = analysis.sessions("T1", AggregationLevel.ADDR, Phase.FULL)
    codes = analysis.address_classes("T1", AggregationLevel.ADDR, Phase.FULL)
    for session, code in zip(sessions, codes.tolist()):
        if len(session) < min_packets:
            continue
        verdict = CLASS_ORDER[code]
        if verdict is AddressClass.STRUCTURED and structured is None:
            structured = _nibble_matrix(session)
        elif verdict is AddressClass.RANDOM and best_random is None:
            best_random = _nibble_matrix(session)
        if structured is not None and best_random is not None:
            break
    return Fig12Result(structured=structured, random=best_random)


@traced("analysis.fig13")
def fig13(analysis: CorpusAnalysis, min_packets: int = 100) -> NibbleMatrix:
    """Fig. 12(a)'s session sorted lexicographically (Fig. 13)."""
    result = fig12(analysis, min_packets)
    if result.structured is None:
        if not analysis.has_gaps():
            raise AnalysisError("no structured session with enough packets")
        warn_degraded("fig13: no structured session survived the coverage "
                      "gaps; emitting an empty matrix", artifact="fig13",
                      reason="coverage_gap")
        return NibbleMatrix(source=0,
                            nibbles=np.zeros((0, 32), dtype=np.uint8))
    return result.structured.sorted_lexicographically()


# -- Fig. 14: packets per temporal class across /48 subnets ----------------------


@dataclass
class Fig14Result:
    """Ranked per-/48-subnet packet counts per temporal class."""

    ranked: dict[TemporalClass, list[int]]
    top_subnet: dict[TemporalClass, int]

    def render(self) -> str:
        lines = ["Fig 14: packets per scanner type across /48 subnets"]
        for cls, series in self.ranked.items():
            lines.append(f"  {cls.value}: subnets={len(series)} "
                         f"top={series[0] if series else 0}")
        return "\n".join(lines)


@traced("analysis.fig14")
def fig14(analysis: CorpusAnalysis) -> Fig14Result:
    t1 = analysis.corpus.t1_prefix
    temporal = analysis.temporal_classes("T1", AggregationLevel.ADDR,
                                         Phase.SPLIT)
    by_source = analysis.by_source("T1", AggregationLevel.ADDR, Phase.SPLIT)
    per_class: dict[TemporalClass, Counter] = {
        cls: Counter() for cls in TemporalClass}
    for source, sessions in by_source.items():
        cls = temporal[source]
        for session in sessions:
            for p in session.packets:
                subnet = p.dst >> (128 - 48) & 0xFFFF
                per_class[cls][subnet] += 1
    ranked = {cls: sorted(counter.values(), reverse=True)
              for cls, counter in per_class.items()}
    top = {cls: (counter.most_common(1)[0][0] if counter else -1)
           for cls, counter in per_class.items()}
    return Fig14Result(ranked=ranked, top_subnet=top)


# -- Fig. 15: taxonomy classification of T1 split scanners -----------------------


@dataclass
class Fig15Result:
    histogram: dict[tuple[TemporalClass, AddressClass], int]

    def render(self) -> str:
        lines = ["Fig 15: sessions per temporal x address class (T1 split)"]
        for (temporal, address), count in sorted(
                self.histogram.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {temporal.value}/{address.value}: {count}")
        return "\n".join(lines)


@traced("analysis.fig15")
def fig15(analysis: CorpusAnalysis) -> Fig15Result:
    return Fig15Result(histogram=_taxonomy(analysis, "T1", Phase.SPLIT))


# -- Fig. 16: source overlap over time ----------------------------------------------


@dataclass
class Fig16Result:
    everywhere_sources: set[int]
    daily_activity: dict[int, dict[str, dict[int, int]]]
    weekly_same_day_share: list[float]

    def render(self) -> str:
        lines = [f"Fig 16(a): {len(self.everywhere_sources)} sources seen "
                 "at all four telescopes"]
        lines.append("Fig 16(b): same-day overlap share per week: "
                     + ", ".join(f"{v:.2f}"
                                 for v in self.weekly_same_day_share))
        return "\n".join(lines)


@traced("analysis.fig16")
def fig16(analysis: CorpusAnalysis) -> Fig16Result:
    source_sets = {
        t: {p.src for p in analysis.corpus.phase_packets(t, Phase.FULL)}
        for t in TELESCOPES}
    everywhere = sources_everywhere(source_sets)
    daily: dict[int, dict[str, dict[int, int]]] = {}
    for telescope in TELESCOPES:
        for p in analysis.corpus.phase_packets(telescope, Phase.FULL):
            if p.src in everywhere:
                per_scope = daily.setdefault(p.src, {}).setdefault(
                    telescope, {})
                day = int(p.time // DAY)
                per_scope[day] = per_scope.get(day, 0) + 1
    t1_packets = analysis.corpus.phase_packets("T1", Phase.FULL)
    t2_packets = analysis.corpus.phase_packets("T2", Phase.FULL)
    weeks = int(analysis.corpus.config.duration / WEEK)
    shares = []
    for week in range(1, weeks + 1):
        overlap = day_overlap(t1_packets, t2_packets, until=week * WEEK)
        shares.append(overlap.same_day_share)
    return Fig16Result(everywhere_sources=everywhere, daily_activity=daily,
                       weekly_same_day_share=shares)


# -- Fig. 17: NIST test outcomes, IID vs subnet bits -----------------------------------


@dataclass
class Fig17Result:
    """Per temporal class and section: share of sessions passing each test."""

    pass_shares: dict[tuple[TemporalClass, str, str], float]
    sessions_tested: int

    def render(self) -> str:
        lines = [f"Fig 17: NIST outcomes over {self.sessions_tested} "
                 "sessions (>=100 packets)"]
        for (temporal, section, test), share in sorted(
                self.pass_shares.items(),
                key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])):
            lines.append(f"  {temporal.value:12s} {section:6s} "
                         f"{test:9s}: pass {share:.2f}")
        return "\n".join(lines)


@traced("analysis.fig17")
def fig17(analysis: CorpusAnalysis, min_packets: int = 100) -> Fig17Result:
    temporal = analysis.temporal_classes("T1", AggregationLevel.ADDR,
                                         Phase.SPLIT)
    by_source = analysis.by_source("T1", AggregationLevel.ADDR, Phase.SPLIT)
    prefix_len = analysis.corpus.t1_prefix.length
    totals: Counter = Counter()
    passes: Counter = Counter()
    tested = 0
    for source, sessions in by_source.items():
        cls = temporal[source]
        for session in sessions:
            if len(session) < min_packets:
                continue
            tested += 1
            targets = session.targets()
            sections = {
                "iid": bits_from_addresses(targets, take_bits=64,
                                           skip_high=64),
                "subnet": bits_from_addresses(
                    targets, take_bits=64 - prefix_len,
                    skip_high=prefix_len),
            }
            for section, bits in sections.items():
                results = run_battery(bits)
                for test, ok in results.passes().items():
                    totals[(cls, section, test)] += 1
                    if ok:
                        passes[(cls, section, test)] += 1
    shares = {key: passes.get(key, 0) / count
              for key, count in totals.items()}
    return Fig17Result(pass_shares=shares, sessions_tested=tested)
