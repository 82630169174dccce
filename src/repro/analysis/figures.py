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
from repro.core.addrclass import CLASS_CODE, CLASS_ORDER, AddressClass
from repro.core.aggregation import AggregationLevel
from repro.core.columnar import first_arrivals
from repro.core.heavy import HeavyHitter, find_heavy_hitters
from repro.core.nist import (bits_from_addresses, run_battery)
from repro.core.overlap import (UpSetData, day_overlap, source_days,
                                sources_everywhere, upset)
from repro.core.reactivity import (CycleActivity, cycle_activity,
                                   new_source_prefixes_per_day,
                                   sessions_per_prefix_cumulative)
from repro.core.sessions import SessionSet
from repro.core.temporal import TemporalClass
from repro.errors import AnalysisError
from repro.experiment.phases import Phase
from repro.net.prefix import Prefix
from repro.sim.clock import HOUR, WEEK

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
    tables = [analysis.corpus.phase_table(t, Phase.INITIAL)
              for t in TELESCOPES]
    start, end = 0.0, analysis.corpus.config.split_start
    return Fig3Result(daily_new=new_source_prefixes_per_day(
        tables, start, end))


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
    tables = [analysis.corpus.phase_table(t, Phase.FULL) for t in TELESCOPES]
    if not sum(len(table) for table in tables):
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
    # a week's horizon ends it: an item counts from the first week whose
    # horizon lies past its first arrival
    horizons = (np.arange(len(weeks), dtype=np.float64) + 1) * WEEK

    def cumulative(times: np.ndarray) -> list[float]:
        week = np.searchsorted(horizons, times, side="right")
        counts = np.bincount(week, minlength=len(weeks) + 1)[:len(weeks)]
        return np.cumsum(counts).astype(np.float64).tolist()

    time = np.concatenate([t.time for t in tables])
    src_hi = np.concatenate([t.src_hi for t in tables])
    src_lo = np.concatenate([t.src_lo for t in tables])
    asn = np.concatenate([t.src_asn for t in tables]).astype(np.uint64)
    with_asn = asn != 0
    zeros = np.zeros(len(time), dtype=np.uint64)
    series: dict[str, list[float]] = {
        "packets": cumulative(time),
        "asns": cumulative(first_arrivals(zeros[with_asn], asn[with_asn],
                                          time[with_asn])),
        "sources_128": cumulative(first_arrivals(src_hi, src_lo, time)),
        "sources_64": cumulative(first_arrivals(zeros, src_hi, time)),
    }
    # sessions: count per week bucket from the sessionized view
    for level, name in ((AggregationLevel.ADDR, "sessions_128"),
                        (AggregationLevel.SUBNET, "sessions_64")):
        series[name] = cumulative(np.concatenate([
            analysis.sessions(t, level, Phase.FULL).starts()
            for t in TELESCOPES]))
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
    tables = {t: analysis.corpus.phase_table(t, Phase.FULL)
              for t in TELESCOPES}
    hitters = find_heavy_hitters(tables)
    daily: dict[tuple[int, str], dict[int, int]] = {}
    for telescope, table in tables.items():
        wanted = {h.source for h in hitters if h.telescope == telescope}
        days = source_days(table.take(np.flatnonzero(
            table.source_mask(wanted))))
        for hi, lo, day, count in zip(days.src_hi.tolist(),
                                      days.src_lo.tolist(),
                                      days.day.tolist(),
                                      days.packets.tolist()):
            daily.setdefault(((hi << 64) | lo, telescope), {})[day] = count
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
        time = analysis.corpus.phase_table(telescope, Phase.INITIAL).time
        hour = np.minimum(np.floor_divide(time, HOUR), hours - 1)
        hourly[telescope] = np.bincount(hour.astype(np.int64),
                                        minlength=hours).tolist()
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
    sources = session_set.source_codes()
    classes = list(TemporalClass)
    source_class = np.array([classes.index(temporal[source])
                             for source in session_set.source_keys()],
                            dtype=np.int64)
    # sessions source by source, each source's in session order
    order = np.argsort(sources, kind="stable")
    pairs = source_class[sources[order]] * len(CLASS_ORDER) \
        + codes[order].astype(np.int64)
    keys, first, counts = np.unique(pairs, return_index=True,
                                    return_counts=True)
    met = np.argsort(first)
    return {(classes[key // len(CLASS_ORDER)],
             CLASS_ORDER[key % len(CLASS_ORDER)]): count
            for key, count in zip(keys[met].tolist(), counts[met].tolist())}


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
        table = analysis.corpus.phase_table(telescope, Phase.INITIAL)
        asn_sets[telescope] = set(
            np.unique(table.src_asn[table.src_asn != 0]).tolist())
        source_sets[telescope] = table.unique_source_addresses()
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
        starts = analysis.sessions(telescope, AggregationLevel.ADDR,
                                   Phase.INITIAL).starts()
        week = np.minimum(np.floor_divide(starts, WEEK), weeks - 1)
        series = np.bincount(week.astype(np.int64),
                             minlength=weeks).tolist()
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
    sessions = analysis.sessions("T1", AggregationLevel.ADDR, Phase.FULL)
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
    t1_sessions = [analysis.sessions("T1", AggregationLevel.ADDR,
                                     Phase.FULL)]
    other_sessions = [analysis.sessions(telescope, AggregationLevel.ADDR,
                                        Phase.FULL)
                      for telescope in ("T2", "T3", "T4")]
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


def _session_targets(session_set: SessionSet,
                     session: int) -> tuple[np.ndarray, np.ndarray]:
    """(dst_hi, dst_lo) of one session's packets, in arrival order."""
    rows, offsets = session_set.session_rows()
    rows = rows[offsets[session]:offsets[session + 1]]
    return session_set.table.dst_hi[rows], session_set.table.dst_lo[rows]


def _nibble_matrix(session_set: SessionSet, session: int) -> NibbleMatrix:
    """The 32 hex digits of every target, most significant first."""
    halves = np.stack(_session_targets(session_set, session), axis=1)
    shifts = np.arange(60, -1, -4, dtype=np.uint64)
    nibbles = (halves[:, :, None] >> shifts) & np.uint64(0xF)
    return NibbleMatrix(source=session_set.sessions[session].source,
                        nibbles=nibbles.reshape(len(halves), 32)
                        .astype(np.uint8))


@traced("analysis.fig12")
def fig12(analysis: CorpusAnalysis, min_packets: int = 100) -> Fig12Result:
    """Pick the first structured and the first random T1 session of at
    least ``min_packets`` packets and matrix them."""
    sessions = analysis.sessions("T1", AggregationLevel.ADDR, Phase.FULL)
    codes = analysis.address_classes("T1", AggregationLevel.ADDR, Phase.FULL)
    long_enough = sessions.sizes() >= min_packets
    matrices = []
    for verdict in (AddressClass.STRUCTURED, AddressClass.RANDOM):
        found = np.flatnonzero(long_enough
                               & (codes == CLASS_CODE[verdict]))
        matrices.append(_nibble_matrix(sessions, int(found[0]))
                        if len(found) else None)
    return Fig12Result(structured=matrices[0], random=matrices[1])


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
    temporal = analysis.temporal_classes("T1", AggregationLevel.ADDR,
                                         Phase.SPLIT)
    session_set = analysis.split_sessions_t1()
    classes = list(TemporalClass)
    source_class = np.array([classes.index(temporal[source])
                             for source in session_set.source_keys()],
                            dtype=np.int64)
    # packets source by source (each source's sessions in order): the
    # order a Counter met the subnets in, which breaks count ties
    rows, _ = session_set.session_rows()
    row_source = session_set.source_codes()[session_set.row_sessions()]
    by_source = np.argsort(row_source, kind="stable")
    row_class = source_class[row_source[by_source]]
    subnet = ((session_set.table.dst_hi[rows[by_source]] >> np.uint64(16))
              & np.uint64(0xFFFF)).astype(np.int64)
    ranked, top = {}, {}
    for index, cls in enumerate(classes):
        keys, first, counts = np.unique(subnet[row_class == index],
                                        return_index=True,
                                        return_counts=True)
        ranked[cls] = sorted(counts.tolist(), reverse=True)
        top[cls] = int(keys[np.lexsort((first, -counts))[0]]) \
            if len(keys) else -1
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
    tables = {t: analysis.corpus.phase_table(t, Phase.FULL)
              for t in TELESCOPES}
    everywhere = sources_everywhere({
        t: table.unique_source_addresses() for t, table in tables.items()})
    daily: dict[int, dict[str, dict[int, int]]] = {}
    for telescope, table in tables.items():
        days = source_days(table.take(np.flatnonzero(
            table.source_mask(everywhere))))
        for hi, lo, day, count in zip(days.src_hi.tolist(),
                                      days.src_lo.tolist(),
                                      days.day.tolist(),
                                      days.packets.tolist()):
            daily.setdefault((hi << 64) | lo, {}).setdefault(
                telescope, {})[day] = count
    weeks = int(analysis.corpus.config.duration / WEEK)
    shares = [overlap.same_day_share for overlap in day_overlap(
        tables["T1"], tables["T2"],
        [week * WEEK for week in range(1, weeks + 1)])]
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
    session_set = analysis.split_sessions_t1()
    sources = session_set.source_keys()
    prefix_len = analysis.corpus.t1_prefix.length
    totals: Counter = Counter()
    passes: Counter = Counter()
    long_sessions = np.flatnonzero(session_set.sizes() >= min_packets)
    for session in long_sessions.tolist():
        cls = temporal[sources[session_set.source_codes()[session]]]
        dst_hi, dst_lo = _session_targets(session_set, session)
        sections = {
            "iid": bits_from_addresses(dst_hi, dst_lo, take_bits=64,
                                       skip_high=64),
            "subnet": bits_from_addresses(
                dst_hi, dst_lo, take_bits=64 - prefix_len,
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
    return Fig17Result(pass_shares=shares,
                       sessions_tested=len(long_sessions))
