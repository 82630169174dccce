#!/usr/bin/env python
"""Machine-readable perf trajectory for the analysis pipeline.

Runs the bench corpus at a fixed scale and times the stages that gate
production throughput:

- ``corpus_build`` — full campaign simulation + corpus packaging on the
  batched emission kernel (the default path), with per-stage span
  timings (``stages``) from the driver's flight recorder;
- ``corpus_build_legacy`` — the same campaign on the per-packet
  emission oracle (``batch_emit=False``), for the emission speedup;
- ``cold_analysis_columnar`` — sessionize all telescopes at /128 and
  /64 over the full phase on the columnar engine (the default path);
- ``cold_analysis_legacy`` — the same work on the per-packet object
  path (kept as the correctness oracle);
- ``tables`` — per-table generation (Tables 2-8) on a warm analysis,
  fanned out over ``--jobs`` worker threads (default serial);
- ``robustness`` — the same campaign with crash-safe checkpointing
  (``checkpoint_dir``: one supervised shard persisted to the shard
  manifest), reporting its wall time, its recording-pass and shard
  stages, and whether its corpus digest matches the plain build's;
- ``shard_scaling`` — the sharded multi-process builder at 1/2/4
  shards vs a fresh uninstrumented unsharded build (digest-checked
  byte-identical), reporting the critical path (coordinator recording
  pass CPU + worst worker simulate+flush CPU, each worker alone in a
  fresh process) and speedup (see ``bench_shard_scaling.py`` for the
  methodology);
- ``shard_faults`` — the shard supervisor's clean-run overhead
  (supervised process backend vs a bare pool, acceptance <= 5%) and
  the wall cost of recovering one SIGKILLed worker via retry,
  digest-checked (see ``bench_shard_faults.py``);
- ``store_oocore`` — the v1 eager-npz vs v2 chunked-mmap store matrix
  (cold load, phase-sliced query, full materialization, each in a
  fresh subprocess), with the acceptance criteria — peak-RSS ratios,
  sliced-bytes fraction, cold-load speedup — under ``criteria`` (see
  ``bench_store_oocore.py`` for the methodology);
- ``obs_server`` — /metrics and /status scrape latency of the live obs
  HTTP server under many concurrent clients (see
  ``bench_obs_server.py``).

``--compare OLD.json NEW.json`` diffs two reports instead of running
anything: every shared numeric timing under ``seconds`` is compared and
the exit status is non-zero when any regressed more than ``--threshold``
(default 10%) — the CI contract for perf trajectories.

Each in-process stage also records ``peak_rss_kb`` — the coordinator's
``ru_maxrss`` sampled right after the stage finishes. ``ru_maxrss`` is
a monotone high-water mark, so the series reads as "the peak by the end
of stage X", not per-stage working sets; the attributable per-store
numbers live in ``store_oocore``, whose children measure in isolation.

The cold-analysis timings run with *no* recorder installed, so they
measure the disabled-instrumentation path a production analysis sees.
``--emit-metrics`` additionally embeds the flight recorder's metrics
snapshot (per-telescope packet counters, event-loop accounting) as an
``obs`` smoke target for CI.

Results land in ``BENCH_<date>.json`` next to this script (override
with ``--out``), so the perf trajectory stays diffable across PRs::

    PYTHONPATH=src python benchmarks/run_benches.py --scale 1.0
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import resource
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.analysis import tables as T
from repro.analysis.context import CorpusAnalysis
from repro.analysis.parallel import fan_out
from repro.core.aggregation import AggregationLevel
from repro.experiment import ExperimentConfig, Phase, run_experiment
from repro.experiment.sharding import ShardManifest
from repro.experiment.store import corpus_digest

from bench_obs_server import bench_obs_server
from bench_shard_faults import bench_shard_faults
from bench_shard_scaling import bench_shard_scaling
from bench_store_oocore import bench_store_oocore

#: ``--compare`` flags a timing as regressed only past this fractional
#: slowdown AND this absolute delta (sub-50ms noise is scheduler, not
#: code) — mirroring ``repro runs compare``.
COMPARE_THRESHOLD = 0.10
COMPARE_MIN_SECONDS = 0.05

COLD_LEVELS = (AggregationLevel.ADDR, AggregationLevel.SUBNET)
TABLES = {
    "table2": T.table2, "table3": T.table3, "table4": T.table4,
    "table5": T.table5, "table6": T.table6, "table7": T.table7,
    "table8": T.table8,
}


def time_call(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _peak_rss_kb() -> int:
    """The coordinator's running RSS high-water mark in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _flatten_seconds(tree, prefix: str = "") -> dict[str, float]:
    """Flatten a report's nested ``seconds`` dict to dotted-key floats."""
    flat: dict[str, float] = {}
    for key, value in (tree or {}).items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten_seconds(value, path))
        elif isinstance(value, (int, float)) and value is not None:
            flat[path] = float(value)
    return flat


def compare_reports(old_path: Path, new_path: Path,
                    threshold: float = COMPARE_THRESHOLD) -> int:
    """Diff two BENCH_*.json reports; exit status for CI.

    Compares every numeric timing both reports share under ``seconds``,
    flags slowdowns beyond ``threshold`` (and :data:`COMPARE_MIN_SECONDS`
    absolute), and returns 1 when any timing regressed, else 0.
    """
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    old_cfg, new_cfg = old.get("config", {}), new.get("config", {})
    print(f"compare {Path(old_path).name} (old) -> "
          f"{Path(new_path).name} (new), threshold {threshold:.0%}")
    if old_cfg != new_cfg:
        print(f"  note: configs differ ({old_cfg} vs {new_cfg}) — deltas "
              "reflect workload changes, not just code")
    old_flat = _flatten_seconds(old.get("seconds", {}))
    new_flat = _flatten_seconds(new.get("seconds", {}))
    regressions: list[str] = []
    print(f"  {'timing':<40} {'old_s':>9} {'new_s':>9} {'ratio':>7}")
    for key in sorted(set(old_flat) | set(new_flat)):
        a, b = old_flat.get(key), new_flat.get(key)
        if a is None or b is None:
            print(f"  {key:<40} "
                  f"{a if a is not None else '-':>9} "
                  f"{b if b is not None else '-':>9}       -  only one "
                  "report")
            continue
        ratio = b / a if a > 0 else float("inf")
        flag = ""
        if b > a * (1.0 + threshold) and b - a > COMPARE_MIN_SECONDS:
            flag = "REGRESSION"
            regressions.append(key)
        elif a > b * (1.0 + threshold) and a - b > COMPARE_MIN_SECONDS:
            flag = "improved"
        print(f"  {key:<40} {a:9.3f} {b:9.3f} {ratio:7.2f}"
              + (f"  {flag}" if flag else ""))
    if regressions:
        print(f"  RESULT: {len(regressions)} timing regression(s): "
              + ", ".join(regressions))
        return 1
    print(f"  RESULT: no timing regressions beyond {threshold:.0%}")
    return 0


def cold_analysis(corpus, use_columnar: bool,
                  rounds: int = 3) -> tuple[dict, int]:
    """Cold sessionization sweep timings + total sessions.

    Every round constructs a fresh :class:`CorpusAnalysis`, so the full
    sweep (all telescopes, /128 + /64, full phase) is recomputed from
    scratch each time — nothing is cached between rounds. ``first``
    additionally pays one-time process costs (heap growth, page faults);
    ``best`` is the steady-state number a long-lived analysis service
    sees, and both paths get identical treatment.
    """

    def run() -> int:
        analysis = CorpusAnalysis(corpus, use_columnar=use_columnar)
        total = 0
        for telescope in corpus.telescopes():
            for level in COLD_LEVELS:
                total += len(analysis.sessions(telescope, level, Phase.FULL))
        return total

    first, sessions = time_call(run)
    best = min(time_call(run)[0] for _ in range(rounds))
    return {"first": first, "best": best}, sessions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="population scale (default 1.0)")
    parser.add_argument("--seed", type=int, default=42,
                        help="campaign seed (default 42)")
    parser.add_argument("--skip-legacy", action="store_true",
                        help="skip the slow object/per-packet oracle "
                             "timings (analysis and emission)")
    parser.add_argument("--skip-robustness", action="store_true",
                        help="skip the checkpointed-build timing (one "
                             "extra full campaign)")
    parser.add_argument("--skip-shards", action="store_true",
                        help="skip the shard-scaling sweep (several extra "
                             "full campaigns: unsharded + 1/2/4 shards, "
                             "twice each)")
    parser.add_argument("--skip-shard-faults", action="store_true",
                        help="skip the shard-supervision overhead / "
                             "kill-retry bench (several extra sharded "
                             "campaigns)")
    parser.add_argument("--skip-store", action="store_true",
                        help="skip the out-of-core store matrix (one v1 + "
                             "one v2 save plus seven measurement "
                             "subprocesses)")
    parser.add_argument("--skip-obs-server", action="store_true",
                        help="skip the obs HTTP server scrape-latency "
                             "bench")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        type=Path, default=None,
                        help="diff two BENCH_*.json reports instead of "
                             "running; exits non-zero on any timing "
                             "regression beyond --threshold")
    parser.add_argument("--threshold", type=float,
                        default=COMPARE_THRESHOLD,
                        help="fractional regression threshold for "
                             "--compare (default 0.10)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for the table fan-out "
                             "(default 1: serial, per-table timings "
                             "stay contention-free)")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent
                        / "BENCH_2026-08-06.json",
                        help="prior report to compute corpus_build "
                             "speedup against")
    parser.add_argument("--emit-metrics", action="store_true",
                        help="embed the flight recorder's metrics snapshot "
                             "in the report (obs smoke target)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default benchmarks/BENCH_<date>"
                             ".json)")
    args = parser.parse_args()

    if args.compare is not None:
        raise SystemExit(compare_reports(args.compare[0], args.compare[1],
                                         threshold=args.threshold))

    print(f"simulating campaign (seed={args.seed} scale={args.scale}) ...")
    # record the build so the report gets stage-resolved timings; the
    # recorder is uninstalled again before any analysis timing below,
    # which must measure the disabled-instrumentation path
    with obs.FlightRecorder() as recorder:
        build_seconds, result = time_call(
            lambda: run_experiment(
                ExperimentConfig(seed=args.seed, scale=args.scale,
                                 batch_emit=True)))
    stage_rss: dict[str, int] = {}
    corpus = result.corpus
    total_packets = corpus.total_packets()
    stage_rss["corpus_build"] = _peak_rss_kb()
    print(f"  corpus: {total_packets} packets in {build_seconds:.2f}s "
          "(batched emission)")
    for stage, seconds in result.stage_seconds.items():
        print(f"    {stage}: {seconds:.2f}s")

    legacy_build_seconds = None
    if not args.skip_legacy:
        legacy_build_seconds, legacy_result = time_call(
            lambda: run_experiment(
                ExperimentConfig(seed=args.seed, scale=args.scale,
                                 batch_emit=False)))
        print(f"  corpus: {legacy_result.corpus.total_packets()} packets "
              f"in {legacy_build_seconds:.2f}s (per-packet oracle)")
        del legacy_result
        stage_rss["corpus_build_legacy"] = _peak_rss_kb()

    robustness = None
    if not args.skip_robustness:
        with tempfile.TemporaryDirectory() as ckdir:
            ck_seconds, ck_result = time_call(
                lambda: run_experiment(
                    ExperimentConfig(seed=args.seed, scale=args.scale,
                                     batch_emit=True),
                    checkpoint_dir=ckdir))
            completed = len(ShardManifest.open(ckdir, 1).completed)
            digest_ok = corpus_digest(ck_result.corpus) \
                == corpus_digest(corpus)
        stages = ck_result.stage_seconds
        robustness = {
            "checkpointed_build": round(ck_seconds, 4),
            "record_timeline": round(stages["record_timeline"], 4),
            "shard_simulate": round(stages["shard_simulate"], 4),
            "shards_completed": completed,
            "digest_matches_unsharded": digest_ok,
        }
        print(f"  checkpointed build: {ck_seconds:.2f}s (record pass "
              f"{stages['record_timeline']:.2f}s, shard "
              f"{stages['shard_simulate']:.2f}s, {completed} shard "
              "checkpointed)")
        del ck_result
        stage_rss["robustness"] = _peak_rss_kb()

    shard_scaling = None
    if not args.skip_shards:
        print("  shard scaling (1/2/4 shards, digest-checked) ...")
        shard_scaling = bench_shard_scaling(
            args.seed, args.scale, baseline_result=result)
        for count, run in shard_scaling["shards"].items():
            print(f"    shards={count}: critical path "
                  f"{run['critical_path_cpu']:.2f}s CPU "
                  f"(record {run['record_timeline_cpu']:.2f}s + worst "
                  f"worker {run['worst_shard_cpu']:.2f}s) "
                  f"-> {run['speedup']}x")
        stage_rss["shard_scaling"] = _peak_rss_kb()

    shard_faults = None
    if not args.skip_shard_faults:
        print("  shard supervision overhead + kill-retry cost ...")
        shard_faults = bench_shard_faults(args.seed, args.scale)
        clean = shard_faults["clean"]
        retry = shard_faults["kill_retry"]
        print(f"    clean run: supervised {clean['supervised_wall']:.2f}s "
              f"vs pool {clean['pool_wall']:.2f}s "
              f"({clean['supervision_overhead_fraction']:+.2%} overhead, "
              f"budget {clean['overhead_budget']:.0%}"
              f"{'' if clean['within_budget'] else ' EXCEEDED'})")
        print(f"    one killed worker: {retry['wall']:.2f}s "
              f"(+{retry['retry_cost_seconds']:.2f}s to recover, "
              "digest byte-identical)")
        stage_rss["shard_faults"] = _peak_rss_kb()

    store_oocore = None
    if not args.skip_store:
        print("  out-of-core store (v1 npz vs v2 chunked mmap) ...")
        store_oocore = bench_store_oocore(corpus)
        criteria = store_oocore["criteria"]
        print(f"    cold load: {criteria['cold_load_speedup']}x faster, "
              f"RSS ratio {criteria['peak_rss_ratio_load']}x")
        print(f"    phase slice: RSS ratio "
              f"{criteria['peak_rss_ratio_slice']}x, touches "
              f"{criteria['sliced_bytes_fraction']:.1%} of store bytes")
        stage_rss["store_oocore"] = _peak_rss_kb()

    obs_server = None
    if not args.skip_obs_server:
        print("  obs server scrape latency (8 concurrent clients) ...")
        obs_server = bench_obs_server()
        for endpoint in ("metrics", "status"):
            timing = obs_server[endpoint]
            print(f"    /{endpoint}: p50 {timing['p50_ms']}ms / "
                  f"p99 {timing['p99_ms']}ms "
                  f"({timing['throughput_rps']} req/s)")
        stage_rss["obs_server"] = _peak_rss_kb()

    columnar_seconds, columnar_sessions = cold_analysis(corpus, True)
    stage_rss["cold_analysis_columnar"] = _peak_rss_kb()
    print(f"  cold analysis (columnar): first {columnar_seconds['first']:.3f}s"
          f" / best {columnar_seconds['best']:.3f}s "
          f"({columnar_sessions} sessions)")

    legacy_seconds = legacy_sessions = None
    if not args.skip_legacy:
        legacy_seconds, legacy_sessions = cold_analysis(corpus, False)
        print(f"  cold analysis (legacy):   first {legacy_seconds['first']:.3f}s"
              f" / best {legacy_seconds['best']:.3f}s "
              f"({legacy_sessions} sessions)")
        if legacy_sessions != columnar_sessions:
            raise SystemExit("legacy and columnar paths disagree on "
                             f"session counts: {legacy_sessions} vs "
                             f"{columnar_sessions}")
        stage_rss["cold_analysis_legacy"] = _peak_rss_kb()

    analysis = CorpusAnalysis(corpus)
    if args.jobs > 1:
        # pre-warm the shared sessionization so the fan-out measures the
        # generators, not a race to fill the analysis caches
        analysis.all_sessions()
    table_runs = fan_out(
        {name: (lambda g=generate: g(analysis))
         for name, generate in TABLES.items()},
        jobs=args.jobs)
    table_seconds = {name: seconds
                     for name, (seconds, _) in table_runs.items()}
    stage_rss["tables"] = _peak_rss_kb()
    for name, seconds in table_seconds.items():
        print(f"  {name}: {seconds:.3f}s")

    baseline_build = None
    if args.baseline and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        # only comparable when the campaign knobs match
        if baseline.get("config", {}).get("seed") == args.seed \
                and baseline.get("config", {}).get("scale") == args.scale:
            baseline_build = baseline.get("seconds", {}).get("corpus_build")

    report = {
        "date": datetime.date.today().isoformat(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "config": {"seed": args.seed, "scale": args.scale,
                   "jobs": args.jobs},
        "corpus": {"total_packets": total_packets,
                   "per_telescope": {t: len(corpus.table(t))
                                     for t in corpus.telescopes()}},
        "seconds": {
            "corpus_build": round(build_seconds, 4),
            "corpus_build_legacy": round(legacy_build_seconds, 4)
                if legacy_build_seconds is not None else None,
            "stages": {k: round(v, 4)
                       for k, v in result.stage_seconds.items()},
            "cold_analysis_columnar":
                {k: round(v, 4) for k, v in columnar_seconds.items()},
            "cold_analysis_legacy":
                {k: round(v, 4) for k, v in legacy_seconds.items()}
                if legacy_seconds else None,
            "tables": {k: round(v, 4) for k, v in table_seconds.items()},
        },
        "sessions": {"cold_total": columnar_sessions},
        # running ru_maxrss high-water marks, sampled after each stage
        "peak_rss_kb": stage_rss,
        "robustness": robustness,
        "shard_scaling": shard_scaling,
        "shard_faults": shard_faults,
        "store_oocore": store_oocore,
        "obs_server": obs_server,
        "speedup_cold_analysis": {
            "first": round(legacy_seconds["first"]
                           / columnar_seconds["first"], 2),
            "best": round(legacy_seconds["best"]
                          / columnar_seconds["best"], 2),
        } if legacy_seconds else None,
        "speedup_corpus_build": {
            "vs_legacy_emit": round(legacy_build_seconds / build_seconds, 2)
                if legacy_build_seconds is not None else None,
            "vs_baseline": round(baseline_build / build_seconds, 2)
                if baseline_build else None,
            "baseline": args.baseline.name if baseline_build else None,
        },
    }
    if args.emit_metrics:
        report["metrics"] = recorder.metrics.snapshot()
    out = args.out or _default_out(Path(__file__).parent, report["date"])
    out.write_text(json.dumps(report, indent=1) + "\n")
    if report["speedup_cold_analysis"]:
        speedup = report["speedup_cold_analysis"]
        print(f"  speedup (cold analysis): first {speedup['first']}x / "
              f"best {speedup['best']}x")
    build_speedup = report["speedup_corpus_build"]
    if build_speedup["vs_legacy_emit"]:
        print(f"  speedup (corpus build): {build_speedup['vs_legacy_emit']}x"
              " vs per-packet emission")
    if build_speedup["vs_baseline"]:
        print(f"  speedup (corpus build): {build_speedup['vs_baseline']}x "
              f"vs {args.baseline.name}")
    print(f"wrote {out}")


def _default_out(directory: Path, date: str) -> Path:
    """``BENCH_<date>.json``, suffixed to never clobber a prior report."""
    candidate = directory / f"BENCH_{date}.json"
    counter = 1
    while candidate.exists():
        candidate = directory / f"BENCH_{date}.{counter}.json"
        counter += 1
    return candidate


if __name__ == "__main__":
    main()
