#!/usr/bin/env python
"""Shard-scaling bench: the sharded corpus builder vs the unsharded one.

The sharded pipeline's simulate-side critical path on a machine with at
least ``shards`` free cores is::

    record_timeline CPU  +  max over workers of (simulate + flush) CPU

because the coordinator's infrastructure-only recording pass must finish
before any worker can replay its routing feed, and the merge then waits
for the slowest worker. ``speedup`` is unsharded simulate+flush seconds
over that critical path.

Measurement discipline (the numbers are meaningless without it):

- **Per-shard CPU, not wall.** Every worker is its own supervised
  process, so its CPU seconds (``time.process_time`` inside the worker)
  include genuine per-process costs (allocator growth, cache warm-up)
  and exclude time spent waiting for a core. On a box with fewer cores
  than shards the workers time-slice, and the cache thrash that comes
  with it inflates their CPU clocks: there the critical path is an
  upper bound.
- **The unsharded timing run carries no flight recorder.** Workers skip
  their recorder when the coordinator has none, so reusing a
  recorder-instrumented baseline would inflate the speedup. The
  ``baseline_result`` a caller passes in is used for the digest oracle
  only; timing baselines are re-run uninstrumented here.
- **Per-component minimum over ``repeats`` runs.** The partition is
  deterministic, so shard ``i`` does identical work every repeat; the
  minimum is the standard noise-floor estimate for each component
  (unsharded stage seconds, record pass, each worker).

Every sharded corpus is also checked byte-identical to the unsharded
one (``corpus_digest``) — a scaling number for a corpus that differs
would be meaningless.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.store import corpus_digest

SHARD_COUNTS = (1, 2, 4)
SIM_STAGES = ("simulate", "flush_batches")


def _min_merge(target: list[float], values: list[float]) -> list[float]:
    if not target:
        return list(values)
    return [min(a, b) for a, b in zip(target, values)]


def bench_shard_scaling(seed: int, scale: float,
                        shard_counts=SHARD_COUNTS,
                        baseline_result=None,
                        repeats: int = 3) -> dict:
    """Measure shard scaling; returns a JSON-ready report fragment.

    ``baseline_result`` (e.g. the campaign run_benches.py already built)
    is only consulted for the digest oracle; all timings are measured
    fresh and uninstrumented, ``repeats`` times each.
    """
    base_digest = None
    if baseline_result is not None:
        base_digest = corpus_digest(baseline_result.corpus)

    config = ExperimentConfig(seed=seed, scale=scale, batch_emit=True)
    baseline_seconds = float("inf")
    for _ in range(repeats):
        base = run_experiment(config)
        digest = corpus_digest(base.corpus)
        if base_digest is None:
            base_digest = digest
        elif digest != base_digest:
            raise SystemExit("unsharded build is not deterministic — "
                             "scaling numbers would be meaningless")
        baseline_seconds = min(
            baseline_seconds,
            sum(base.stage_seconds[s] for s in SIM_STAGES))
        del base

    runs: dict[str, dict] = {}
    for count in shard_counts:
        record_cpu = float("inf")
        per_shard: list[float] = []
        wall = float("inf")
        for _ in range(repeats):
            result = run_experiment(config, shards=count)
            if corpus_digest(result.corpus) != base_digest:
                raise SystemExit(
                    f"shards={count} corpus diverged from the unsharded "
                    "build — scaling numbers would be meaningless")
            record_cpu = min(
                record_cpu,
                result.stage_cpu_seconds["record_timeline"])
            per_shard = _min_merge(per_shard, [
                sum(stats["stage_cpu_seconds"][s] for s in SIM_STAGES)
                for stats in result.shard_stats])
            wall = min(wall, result.stage_seconds["shard_simulate"])
            del result
        critical = record_cpu + max(per_shard)
        runs[str(count)] = {
            "wall_shard_simulate": round(wall, 4),
            "record_timeline_cpu": round(record_cpu, 4),
            "worst_shard_cpu": round(max(per_shard), 4),
            "critical_path_cpu": round(critical, 4),
            "per_shard_cpu": [round(v, 4) for v in per_shard],
            "speedup": round(baseline_seconds / critical, 2),
            "digest_matches_unsharded": True,
        }

    return {
        "config": {"seed": seed, "scale": scale, "repeats": repeats},
        "cpus": len(os.sched_getaffinity(0)),
        "unsharded_simulate_flush_seconds": round(baseline_seconds, 4),
        "methodology": (
            "speedup = unsharded simulate+flush_batches seconds / "
            "(coordinator record_timeline CPU + max over workers of "
            "per-shard simulate+flush_batches CPU). Each worker is its "
            "own supervised process, so its process clock measures "
            "per-shard work including per-process warm-up; with fewer "
            "cores than shards the workers time-slice and the critical "
            "path is an upper bound. All components take the minimum "
            "over repeats and no run carries a flight recorder. The "
            "critical path is the simulate-stage latency on a machine "
            "with >= shards free cores; coordinator wall time on a "
            "smaller box measures OS time-slicing, not the builder."),
        "shards": runs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shards", type=int, nargs="+",
                        default=list(SHARD_COUNTS))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    report = bench_shard_scaling(args.seed, args.scale,
                                 tuple(args.shards),
                                 repeats=args.repeats)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
