"""§3.2 — creating an IRR route6 object has no noticeable effect.

Paper: the authors announced T1's /32 without a route object, created one
for the non-split /33 four months in, and saw no noticeable effect on
scanners. This benchmark runs the same before/after comparison on the
simulated corpus.
"""

import pytest
from conftest import print_comparison

from repro.analysis.routeobject import route_object_effect


def test_route_object_no_effect(benchmark, bench_result):
    deployment = bench_result.deployment
    corpus = bench_result.corpus
    created_at = deployment.route_object_created_at
    if created_at is None:
        pytest.skip("route object never created in this configuration")
    stable_33 = corpus.t1_prefix.split()[0]
    effect = benchmark.pedantic(
        route_object_effect,
        args=(corpus.table("T1"), stable_33, created_at),
        kwargs={"window_days": 21}, rounds=1, iterations=1)
    print_comparison("§3.2 route6 object", [
        ("daily-source change", "no noticeable effect",
         f"{100 * effect.source_change:+.0f}% (p={effect.p_value:.2f})"),
        ("IRR validation of 'not found'", "not filtered",
         "reproduced (see bgp.policy)"),
    ])
    assert not effect.is_noticeable()
    assert abs(effect.source_change) < 0.5
