"""Figure 5 — daily heavy-hitter activity.

Paper: ten heavy hitters (>10% of one telescope's packets) carry 73% of
all packets but only 0.04% of sessions; most burst over few days, while
two T2 hitters (one the 6Sense campaign) recur over the whole period.
"""

from conftest import print_comparison

from repro.analysis.figures import fig5
from repro.core.heavy import heavy_hitter_impact


def test_fig05_heavy_hitters(benchmark, bench_analysis):
    result = benchmark.pedantic(fig5, args=(bench_analysis,),
                                rounds=1, iterations=1)
    print(result.render())
    corpus = bench_analysis.corpus
    impact = heavy_hitter_impact(
        {t: corpus.table(t) for t in corpus.telescopes()},
        {t: bench_analysis.sessions(t) for t in corpus.telescopes()})
    print_comparison("Fig 5 / §4.2", [
        ("heavy hitters", "10", str(impact.num_hitters)),
        ("packet share", "73%", f"{100 * impact.packet_share:.0f}%"),
        ("session share", "0.04%",
         f"{100 * impact.session_share:.2f}%"),
    ])
    assert 5 <= impact.num_hitters <= 15
    assert impact.packet_share > 0.5
    assert impact.session_share < 0.05
    # burst-vs-recurring dichotomy: some hitters active on few days,
    # the long-running T2 hitters on many
    days = [result.active_days(h.source, h.telescope)
            for h in result.hitters]
    assert min(days) <= 7
    assert max(days) >= 30
