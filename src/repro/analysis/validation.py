"""Classifier validation against the generative ground truth.

The original study could never check its classifiers — real scanners do
not disclose their schedules. The simulation knows them, so this module
closes the loop: it maps observed /128 sources back to the scanner agents
that own them and scores each classifier with a confusion matrix.

Recurring scanners legitimately degrade when the capture window clips
their schedule (a periodic scanner seen once *is* a one-off in the data),
so accuracy is reported both raw and with those degradations excused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.context import CorpusAnalysis
from repro.core.aggregation import AggregationLevel
from repro.core.columnar import join_halves, pair_counts
from repro.errors import AnalysisError
from repro.experiment.driver import ExperimentResult
from repro.experiment.phases import Phase

#: (truth, predicted) pairs that the observation window legitimately
#: produces: a recurring scanner captured with too few sessions.
EXCUSABLE = {
    ("periodic", "one-off"),
    ("periodic", "intermittent"),
    ("intermittent", "one-off"),
    ("intermittent", "periodic"),
}


@dataclass
class ConfusionMatrix:
    """Counts of (truth, predicted) label pairs."""

    counts: Counter = field(default_factory=Counter)

    def add(self, truth: str, predicted: str) -> None:
        self.counts[(truth, predicted)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def correct(self) -> int:
        return sum(count for (truth, predicted), count
                   in self.counts.items() if truth == predicted)

    def accuracy(self, excuse: set[tuple[str, str]] = frozenset()) \
            -> float:
        """Share of correct predictions; ``excuse`` pairs count correct."""
        if self.total == 0:
            raise AnalysisError("empty confusion matrix")
        good = self.correct + sum(
            count for pair, count in self.counts.items()
            if pair in excuse and pair[0] != pair[1])
        return good / self.total

    def render(self, title: str = "confusion") -> str:
        lines = [title]
        for (truth, predicted), count in sorted(
                self.counts.items(), key=lambda kv: -kv[1]):
            marker = "=" if truth == predicted else ">"
            lines.append(f"  {truth} {marker} {predicted}: {count}")
        return "\n".join(lines)


def _source_owners(result: ExperimentResult, telescope: str) \
        -> dict[int, int]:
    """Map observed /128 sources to the scanner_id of their first
    packet."""
    table = result.corpus.table(telescope)
    hi, lo, _, first = pair_counts(table.src_hi, table.src_lo)
    return dict(zip(join_halves(hi, lo),
                    table.scanner_id[first].tolist()))


def validate_temporal(result: ExperimentResult,
                      telescope: str = "T1",
                      phase: Phase = Phase.SPLIT) -> ConfusionMatrix:
    """Score the §5.1 temporal classifier against the ground truth."""
    analysis = CorpusAnalysis(result.corpus)
    predicted = analysis.temporal_classes(telescope, AggregationLevel.ADDR,
                                          phase)
    truth = result.ground_truth_temporal()
    owners = _source_owners(result, telescope)
    matrix = ConfusionMatrix()
    for source, predicted_class in predicted.items():
        scanner_id = owners.get(source)
        if scanner_id is None:
            continue
        expected = truth.get(scanner_id)
        if expected in (None, "reactive"):
            continue  # reactive scanners have no intrinsic class
        matrix.add(expected, predicted_class.value)
    if matrix.total == 0:
        raise AnalysisError("no attributable sources to validate")
    return matrix


def validate_network(result: ExperimentResult) -> ConfusionMatrix:
    """Score the §5.2 network-selection classifier (T1, split period)."""
    analysis = CorpusAnalysis(result.corpus)
    predicted = analysis.network_classes()
    truth = result.ground_truth_network()
    owners = _source_owners(result, "T1")
    matrix = ConfusionMatrix()
    for source, predicted_class in predicted.items():
        scanner_id = owners.get(source)
        if scanner_id is None:
            continue
        expected = truth.get(scanner_id)
        if not expected:
            continue
        matrix.add(expected, predicted_class.value)
    if matrix.total == 0:
        raise AnalysisError("no attributable sources to validate")
    return matrix


def validate_tools(result: ExperimentResult) -> ConfusionMatrix:
    """Score tool identification (§5.4) against the scanners' real tools."""
    from repro.core.payloads import identify_tools
    analysis = CorpusAnalysis(result.corpus)
    session_set = analysis.split_sessions_t1()
    report = identify_tools(session_set, resolver=result.corpus.resolver)
    owners = _source_owners(result, "T1")
    by_id = {s.scanner_id: s for s in result.population}
    matrix = ConfusionMatrix()
    for source, tool_name in report.source_tools.items():
        scanner_id = owners.get(source)
        scanner = by_id.get(scanner_id) if scanner_id is not None else None
        if scanner is None:
            continue
        expected = scanner.tool.name if scanner.tool else "(none)"
        matrix.add(expected, tool_name)
    if matrix.total == 0:
        raise AnalysisError("no attributed tools to validate")
    return matrix
