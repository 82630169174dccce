"""§7.1 headline reactivity numbers.

Paper: packets into the iteratively split /33 exceed the stable companion
/33 by +286%; 18 scan sources live-monitor BGP (first packets within 30
minutes of a new announcement); prefixes appear on the TUM hitlist within
days without a traffic effect.
"""

from conftest import print_comparison

from repro.core.aggregation import AggregationLevel
from repro.core.reactivity import (baseline_split_growth, live_monitors,
                                   split_half_comparison)
from repro.experiment.phases import Phase


def test_split_half_increase(benchmark, bench_analysis):
    corpus = bench_analysis.corpus
    result = benchmark.pedantic(
        split_half_comparison,
        args=(corpus.table("T1"), corpus.t1_prefix, corpus.schedule),
        rounds=1, iterations=1)
    print_comparison("§7.1 split vs stable /33", [
        ("packet increase", "+286%", f"+{100 * result.increase:.0f}%"),
    ])
    # announcing more-specifics attracts multiples of the stable half's
    # traffic — the paper's central reactivity finding
    assert result.increase > 1.0
    assert result.split_packets > result.stable_packets


def test_live_bgp_monitors(benchmark, bench_analysis):
    corpus = bench_analysis.corpus
    monitors = benchmark.pedantic(
        live_monitors, args=(corpus.table("T1"), corpus.schedule),
        rounds=1, iterations=1)
    expected = round(18 * corpus.config.scale)
    print_comparison("§7.2 live BGP monitors", [
        ("sources within 30 min", f"18 (scaled: ~{expected})",
         str(len(monitors))),
    ])
    assert len(monitors) >= max(1, expected // 2)


def test_source_and_session_growth(benchmark, bench_analysis):
    sessions = bench_analysis.sessions("T1", AggregationLevel.ADDR,
                                       Phase.FULL)
    schedule = bench_analysis.corpus.schedule
    source_growth = benchmark.pedantic(
        baseline_split_growth, args=(sessions, schedule, "sources"),
        rounds=1, iterations=1)
    session_growth = baseline_split_growth(sessions, schedule, "sessions")
    print_comparison("§7.1 T1 weekly growth, split vs baseline", [
        ("source growth", "+275%", f"+{100 * source_growth:.0f}%"),
        ("session growth", "+555%", f"+{100 * session_growth:.0f}%"),
    ])
    assert source_growth > 1.0
    assert session_growth > 1.0


def test_hitlist_lag_without_effect(benchmark, bench_result):
    """Prefixes appear on the hitlist ~5 days post-announcement (§3.2)."""
    deployment = bench_result.deployment
    corpus = bench_result.corpus
    lag = benchmark.pedantic(
        deployment.hitlist.publication_lag,
        args=(corpus.t1_prefix, 0.0), rounds=1, iterations=1)
    print_comparison("§3.2 hitlist publication", [
        ("T1 /32 publication lag", "5 days", f"{lag:.1f} days"),
    ])
    assert 4.0 <= lag <= 6.5
