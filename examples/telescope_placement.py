#!/usr/bin/env python3
"""Operational guidance for telescope placement (§8).

The paper's practical findings for telescope operators:

(i)   a prefix announced on its own attracts orders of magnitude more
      scanners than a silent subnet of a covering prefix;
(ii)  the *number* of announced prefixes matters more than their size;
(iii) different attractors (DNS vs BGP) draw different scanners;
(iv)  active services draw scanners to neighboring space.

This example demonstrates (i), (iii) and (iv) on one simulated campaign
and (ii) by comparing per-prefix session yields across sizes.

Usage:
    python examples/telescope_placement.py [scale]
"""

import sys
from collections import Counter

from repro.analysis.context import CorpusAnalysis
from repro.core.aggregation import AggregationLevel
from repro.core.reactivity import sessions_per_prefix_cumulative
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.phases import Phase


def main() -> int:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    result = run_experiment(ExperimentConfig(seed=23, scale=scale))
    corpus = result.corpus
    analysis = CorpusAnalysis(corpus)

    print("(i) announce your own prefix — visibility per attachment:")
    labels = {
        "T1": "own BGP announcements (/32../48)",
        "T2": "stable /48 + DNS attractor",
        "T3": "silent subnet of a covering /29",
        "T4": "reactive subnet of a covering /29",
    }
    for telescope in corpus.telescopes():
        packets = corpus.packets(telescope)
        sources = len({p.src for p in packets})
        print(f"  {telescope} ({labels[telescope]}): "
              f"{len(packets):>9,} packets / {sources:>6,} sources")
    print()

    print("(ii) announced prefix count beats prefix size — split-period "
          "sessions per prefix size:")
    sessions = analysis.sessions("T1", AggregationLevel.ADDR, Phase.FULL)
    cumulative = sessions_per_prefix_cumulative(sessions, corpus.schedule)
    by_length: Counter = Counter()
    prefix_count: Counter = Counter()
    for prefix, series in cumulative.items():
        by_length[prefix.length] += series[-1]
        prefix_count[prefix.length] += 1
    for length in sorted(by_length):
        per_prefix = by_length[length] / prefix_count[length]
        print(f"  /{length}: {per_prefix:8.0f} sessions per announced "
              "prefix")
    print("  -> small /48s earn sessions comparable to much larger "
          "prefixes once announced\n")

    print("(iii) different attractors draw different scanners:")
    t1_sources = {p.src for p in corpus.packets("T1")}
    t2_sources = {p.src for p in corpus.packets("T2")}
    only_t1 = len(t1_sources - t2_sources)
    only_t2 = len(t2_sources - t1_sources)
    both = len(t1_sources & t2_sources)
    print(f"  BGP-drawn only: {only_t1:,}; DNS-drawn only: {only_t2:,}; "
          f"both: {both:,}\n")

    print("(iv) activity attracts — reactive vs silent subnet of the "
          "same /29:")
    t3 = len(corpus.packets("T3"))
    t4 = len(corpus.packets("T4"))
    factor = t4 / max(t3, 1)
    print(f"  silent T3: {t3:,} packets; reactive T4: {t4:,} packets "
          f"({factor:.0f}x)\n")

    from repro.analysis.bias import bias_report
    from repro.analysis.guidance import derive_guidance
    print(derive_guidance(analysis).render())
    print()
    print(bias_report(analysis).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
