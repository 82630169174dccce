#!/usr/bin/env python3
"""The BGP prefix-split experiment (§7): how scanners react to BGP signals.

Shows the announcement schedule (Fig. 2), runs the full campaign, and
reports the paper's reactivity headlines:

- packets into the split /33 vs the stable companion /33 (+286%),
- weekly source/session growth of the split period vs the baseline
  (+275% / +555%),
- live BGP monitors arriving within 30 minutes of announcements,
- cumulative sessions per most-specific prefix (Fig. 10),
- hitlist publication lag of the new /32 (~5 days).

Usage:
    python examples/bgp_split_experiment.py [scale]
"""

import sys

from repro.analysis.context import CorpusAnalysis
from repro.analysis.figures import fig10, fig11
from repro.core.aggregation import AggregationLevel
from repro.core.reactivity import (baseline_split_growth, live_monitors,
                                   split_half_comparison)
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.phases import Phase
from repro.sim.clock import WEEK


def main() -> int:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    config = ExperimentConfig(seed=7, scale=scale)

    print("announcement schedule (Fig. 2):")
    schedule = None
    result = run_experiment(config)
    schedule = result.corpus.schedule
    for cycle in schedule:
        most_specific = max(p.length for p in cycle.prefixes)
        print(f"  cycle {cycle.index:2d} @ week "
              f"{cycle.announce_time / WEEK:4.0f}: "
              f"{len(cycle.prefixes):2d} prefixes, most-specific "
              f"/{most_specific}")
    print()

    corpus = result.corpus
    analysis = CorpusAnalysis(corpus)
    t1_table = corpus.table("T1")
    sessions = analysis.sessions("T1", AggregationLevel.ADDR, Phase.FULL)

    comparison = split_half_comparison(t1_table, corpus.t1_prefix,
                                       schedule)
    print(f"split /33 vs stable /33 packets: "
          f"{comparison.split_packets:,} vs {comparison.stable_packets:,} "
          f"(+{100 * comparison.increase:.0f}%; paper: +286%)")

    source_growth = baseline_split_growth(sessions, schedule, "sources")
    session_growth = baseline_split_growth(sessions, schedule, "sessions")
    print(f"weekly sources, split vs baseline: +{100 * source_growth:.0f}% "
          "(paper: +275%)")
    print(f"weekly sessions, split vs baseline: "
          f"+{100 * session_growth:.0f}% (paper: +555%)")

    monitors = live_monitors(t1_table, schedule)
    print(f"live BGP monitors (<30 min reaction): {len(monitors)} "
          f"(paper: 18 at full scale)")

    lag = result.deployment.hitlist.publication_lag(corpus.t1_prefix, 0.0)
    print(f"hitlist publication lag of the /32: {lag:.1f} days "
          "(paper: 5 days)\n")

    print(fig10(analysis).render())
    print()
    print(fig11(analysis).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
