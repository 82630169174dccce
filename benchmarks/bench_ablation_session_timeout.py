"""Ablation — the 1-hour session timeout (§3.3).

The paper adopts T = 1h after Richter et al. and Zhao et al. This sweep
shows how the session count reacts to the timeout: far below 1h, slow
scanners shatter into many sessions; far above, distinct visits merge.
The 1h point sits on the stable plateau between the two regimes.
"""

import pytest
from conftest import print_comparison

from repro.core.columnar import sessionize_table
from repro.sim.clock import HOUR, MINUTE

TIMEOUTS = {
    "5min": 5 * MINUTE,
    "15min": 15 * MINUTE,
    "1h": HOUR,
    "4h": 4 * HOUR,
    "24h": 24 * HOUR,
}


@pytest.fixture(scope="module")
def t1_table(bench_corpus):
    return bench_corpus.table("T1")


@pytest.mark.parametrize("label", list(TIMEOUTS))
def test_ablation_session_timeout(benchmark, t1_table, label):
    timeout = TIMEOUTS[label]
    result = benchmark.pedantic(
        sessionize_table, args=(t1_table,),
        kwargs={"telescope": "T1", "timeout": timeout},
        rounds=1, iterations=1)
    print_comparison(f"timeout={label}", [
        ("sessions", "-", str(len(result))),
    ])
    assert len(result) > 0


def test_ablation_timeout_monotonicity(t1_table):
    """Session counts must decrease monotonically with the timeout."""
    counts = [len(sessionize_table(t1_table, timeout=t))
              for t in sorted(TIMEOUTS.values())]
    assert counts == sorted(counts, reverse=True)
    # the paper's 1h choice sits on a plateau: quadrupling the timeout
    # changes the session count far less than quartering it does
    sessions_15m = len(sessionize_table(t1_table, timeout=15 * MINUTE))
    sessions_1h = len(sessionize_table(t1_table, timeout=HOUR))
    sessions_4h = len(sessionize_table(t1_table, timeout=4 * HOUR))
    shrink_below = sessions_15m - sessions_1h
    shrink_above = sessions_1h - sessions_4h
    assert shrink_above <= shrink_below
