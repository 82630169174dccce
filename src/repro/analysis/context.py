"""Cached analysis context over one corpus.

Sessionization and classification are the expensive steps shared by most
tables and figures; :class:`CorpusAnalysis` computes each combination of
(telescope, aggregation level, phase) exactly once.

Sessionization runs on the columnar engine
(:func:`repro.core.columnar.sessionize_table`), and address classes are
one column per session set (:func:`repro.core.addrclass.classify_segments`).
Every analysis reads packet columns and the session sets' row layout;
none builds a :class:`~repro.telescope.packet.Packet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.addrclass import classify_segments
from repro.core.aggregation import AggregationLevel
from repro.core.columnar import sessionize_table
from repro.core.netclass import NetworkClass
from repro.core.netclass import classify_all as classify_network_all
from repro.core.sessions import SessionSet
from repro.core.temporal import TemporalClass
from repro.core.temporal import classify_all as classify_temporal_all
from repro.analysis.degrade import warn_degraded
from repro.experiment.corpus import PacketCorpus
from repro.experiment.phases import Phase, phase_bounds


@dataclass
class CorpusAnalysis:
    """Lazy, cached access to derived analysis products."""

    corpus: PacketCorpus
    _sessions: dict = field(default_factory=dict)
    _temporal: dict = field(default_factory=dict)
    _network: dict = field(default_factory=dict)
    _address: dict = field(default_factory=dict)

    # -- coverage ------------------------------------------------------------

    def has_gaps(self) -> bool:
        """True when any telescope's capture has coverage gaps."""
        return self.corpus.has_gaps()

    def covered_fraction(self, telescope: str, phase: Phase = Phase.FULL) \
            -> float:
        """Fraction of a phase the telescope was actually capturing."""
        start, end = phase_bounds(self.corpus.config, phase)
        return self.corpus.covered_fraction(telescope, start, end)

    def warn_if_degraded(self, artifact: str) -> bool:
        """Emit one :class:`DegradationWarning` per gapped telescope.

        Returns True when the corpus has gaps, so artifact generators can
        switch to gap-normalized output in one call.
        """
        degraded = False
        for telescope, windows in self.corpus.coverage_gaps.items():
            if not windows:
                continue
            degraded = True
            down = sum(end - start for start, end in windows)
            warn_degraded(
                f"{artifact}: {telescope} capture has "
                f"{len(windows)} coverage gap(s) totalling {down:.0f}s; "
                f"output is normalized by covered time",
                artifact=artifact, telescope=telescope,
                reason="coverage_gap")
        return degraded

    # -- sessions ------------------------------------------------------------

    def sessions(self, telescope: str,
                 level: AggregationLevel = AggregationLevel.ADDR,
                 phase: Phase = Phase.FULL) -> SessionSet:
        key = (telescope, level, phase)
        cached = self._sessions.get(key)
        if cached is not None:
            obs.add("analysis.sessions.cache_hits_total")
            return cached
        obs.add("analysis.sessions.cache_misses_total")
        with obs.span("analysis.sessionize", telescope=telescope,
                      level=level.name, phase=phase.name):
            table = self.corpus.phase_table(telescope, phase)
            self._sessions[key] = sessionize_table(
                table, telescope=telescope, level=level)
        return self._sessions[key]

    # -- classification ---------------------------------------------------------

    def temporal_classes(self, telescope: str,
                         level: AggregationLevel = AggregationLevel.ADDR,
                         phase: Phase = Phase.FULL) \
            -> dict[int, TemporalClass]:
        key = (telescope, level, phase)
        if key not in self._temporal:
            obs.add("analysis.classify.cache_misses_total")
            with obs.span("analysis.classify_temporal", telescope=telescope,
                          level=level.name, phase=phase.name):
                self._temporal[key] = classify_temporal_all(
                    self.sessions(telescope, level, phase))
        else:
            obs.add("analysis.classify.cache_hits_total")
        return self._temporal[key]

    def address_classes(self, telescope: str,
                        level: AggregationLevel = AggregationLevel.ADDR,
                        phase: Phase = Phase.FULL) -> np.ndarray:
        """Address-class codes (:data:`~repro.core.addrclass.CLASS_ORDER`),
        one per session of :meth:`sessions`, in its order."""
        key = (telescope, level, phase)
        if key not in self._address:
            session_set = self.sessions(telescope, level, phase)
            obs.add("analysis.classify.cache_misses_total")
            with obs.span("analysis.classify_address", telescope=telescope,
                          level=level.name, phase=phase.name):
                codes = np.empty(0, dtype=np.uint8)
                if len(session_set):
                    table, rows = session_set.table, session_set.rows
                    codes = classify_segments(
                        table.dst_hi[rows], table.dst_lo[rows],
                        session_set.bounds[:-1])[session_set.run_of]
                self._address[key] = codes
        else:
            obs.add("analysis.classify.cache_hits_total")
        return self._address[key]

    def network_classes(self, level: AggregationLevel = AggregationLevel.ADDR) \
            -> dict[int, NetworkClass]:
        """T1 split-period network-selection classes per source."""
        if level not in self._network:
            obs.add("analysis.classify.cache_misses_total")
            with obs.span("analysis.classify_network", level=level.name):
                self._network[level] = classify_network_all(
                    self.sessions("T1", level, Phase.SPLIT),
                    self.corpus.schedule)
        else:
            obs.add("analysis.classify.cache_hits_total")
        return self._network[level]

    # -- convenience -----------------------------------------------------------------

    def split_sessions_t1(self,
                          level: AggregationLevel = AggregationLevel.ADDR) \
            -> SessionSet:
        return self.sessions("T1", level, Phase.SPLIT)
