#!/usr/bin/env python
"""Fault-supervision bench: what does the shard supervisor cost?

Two questions, one report fragment (DESIGN §11):

- **Clean-run overhead.** The supervisor (one supervised worker
  process per shard: exit/hang polling, stderr capture, JSON result
  files) versus a bare fan-out: the same shard tasks mapped over a
  bench-local ``ProcessPoolExecutor`` running :func:`run_shard`, the
  pre-supervision dispatch. The acceptance criterion is <= 5% added
  wall time on the ``shard_simulate`` stage, minimum over ``repeats``
  runs of each, with the bare pool timed from pool creation to the last
  result (the supervisor's stage includes its worker forks too).
- **Cost of one recovered kill.** A declarative ``kill_shard`` fault
  SIGKILLs one worker halfway through its simulation; the supervisor
  retries it and the run completes. Reported as the wall-clock delta
  against the clean supervised run — roughly the re-executed shard's
  work plus the (tiny, 0.05s base) backoff — with the corpus digest
  checked byte-identical to the clean build, because a recovery that
  changes the corpus is not a recovery.

No run carries a flight recorder: supervision overhead is measured on
the uninstrumented path a production ``--shards`` run uses.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

from repro.bgp.messages import UpdateKind
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.driver import deployment_for
from repro.experiment.sharding import ShardTask, run_shard
from repro.experiment.store import corpus_digest
from repro.faults import FaultPlan, ProcessFault
from repro.sim.rng import RngStreams

#: Clean-run supervision overhead acceptance bound (ISSUE PR 10).
OVERHEAD_BUDGET = 0.05

#: Fast backoff so the kill-retry number measures re-execution, not
#: sleeping.
RETRY = {"max_attempts": 3, "base_delay": 0.05}


def _recorded_feed(config: ExperimentConfig) -> tuple:
    """The announcements of the coordinator's recording pass."""
    deployment = deployment_for(config, RngStreams(config.seed))
    deployment.simulator.run_until(config.duration)
    return tuple(e for e in deployment.collector.journal
                 if e.kind is UpdateKind.ANNOUNCE)


def _segment_digests(shard_results) -> list[dict]:
    """Per-shard, per-telescope chunk sha256 lists of a fan-out."""
    return [{name: [chunk["sha256"] for chunk in info["manifest"]]
             for name, info in sorted(res["segments"].items())}
            for res in sorted(shard_results, key=lambda r: r["shard"])]


def _bare_pool_fan_out(config: ExperimentConfig, num_shards: int,
                       feed: tuple) -> tuple[float, list[dict]]:
    """Wall seconds and segment digests of an unsupervised fan-out."""
    with tempfile.TemporaryDirectory(prefix="repro-bare-") as spill:
        tasks = [ShardTask(config=config, plan=None, shard=shard,
                           num_shards=num_shards, spill_dir=spill,
                           feed=feed, record_obs=False)
                 for shard in range(num_shards)]
        started = time.perf_counter()
        # fork, as the supervisor does, so both pay the same per-worker
        # startup and the ratio isolates supervision
        with ProcessPoolExecutor(
                max_workers=num_shards,
                mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(run_shard, tasks))
        wall = time.perf_counter() - started
    return wall, _segment_digests(results)


def bench_shard_faults(seed: int, scale: float, num_shards: int = 2,
                       repeats: int = 3) -> dict:
    """Measure supervision overhead + kill-retry cost; JSON fragment."""
    config = ExperimentConfig(seed=seed, scale=scale, batch_emit=True,
                              retry_policy=RETRY)

    supervised = float("inf")
    base_digest = None
    for _ in range(repeats):
        result = run_experiment(config, shards=num_shards)
        digest = corpus_digest(result.corpus)
        if base_digest is None:
            base_digest = digest
            segments = _segment_digests(result.shard_stats)
        elif digest != base_digest:
            raise SystemExit("supervised sharded build is not "
                             "deterministic — overhead numbers would be "
                             "meaningless")
        supervised = min(supervised,
                         result.stage_seconds["shard_simulate"])
        del result

    feed = _recorded_feed(config)
    pooled = float("inf")
    for _ in range(repeats):
        wall, pool_segments = _bare_pool_fan_out(config, num_shards, feed)
        if pool_segments != segments:
            raise SystemExit("bare-pool shard segments diverged from the "
                             "supervised ones")
        pooled = min(pooled, wall)

    overhead = supervised / pooled - 1.0

    # one SIGKILLed worker halfway through its simulation, retried once
    plan = FaultPlan(process_faults=(
        ProcessFault(kind="kill_shard", shard=num_shards - 1,
                     at_fraction=0.5),))
    killed = float("inf")
    attempts = None
    for _ in range(repeats):
        result = run_experiment(config, faults=plan, shards=num_shards)
        if corpus_digest(result.corpus) != base_digest:
            raise SystemExit("kill+retry corpus diverged from the clean "
                             "build — the recovery is not a recovery")
        killed = min(killed, result.stage_seconds["shard_simulate"])
        attempts = result.shard_stats[num_shards - 1]["attempts"]
        del result

    return {
        "config": {"seed": seed, "scale": scale, "shards": num_shards,
                   "repeats": repeats},
        "cpus": len(os.sched_getaffinity(0)),
        "clean": {
            "supervised_wall": round(supervised, 4),
            "pool_wall": round(pooled, 4),
            "supervision_overhead_fraction": round(overhead, 4),
            "overhead_budget": OVERHEAD_BUDGET,
            "within_budget": overhead <= OVERHEAD_BUDGET,
        },
        "kill_retry": {
            "wall": round(killed, 4),
            "retry_cost_seconds": round(killed - supervised, 4),
            "faulted_shard_attempts": attempts,
            "digest_matches_clean": True,
        },
        "methodology": (
            "supervision_overhead_fraction = supervised shard_simulate "
            "wall / bare ProcessPoolExecutor fan-out of the same "
            "run_shard tasks (pool creation to last result) - 1, "
            "minimum over repeats, no flight recorder. kill_retry "
            "SIGKILLs one worker at 50% of its simulated horizon via a "
            "declarative kill_shard fault and reports the wall delta of "
            "the recovered run; its corpus is digest-checked against "
            "the clean build."),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    report = bench_shard_faults(args.seed, args.scale,
                                num_shards=args.shards,
                                repeats=args.repeats)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
