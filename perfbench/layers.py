"""The per-layer rows of a traced run: catalogue and derivation.

Each row names the program layer it measures (module names), the
workload whose traced run exercises it, and the end-to-end metric it
should move. Every traced run reports every row; a row whose layer is
not on the workload's path reads 0. Rows are derived after the run from
the merged Chrome trace (program spans plus the benchmark's ``bench.*``
spans, shard workers included), the flight recorder's metrics snapshot,
and a few facts the workload reads off the program's results.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from spans import self_seconds, span_forest

#: Tables 2-8, the 13 figures the ``repro figures`` command renders,
#: and the two section 8 reports, in the order the workload runs them.
TABLES = tuple(f"table{i}" for i in range(2, 9))
FIGURES = ("fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10",
           "fig11", "fig12", "fig14", "fig15", "fig16", "fig17")
ARTIFACTS = TABLES + FIGURES + ("guidance", "bias")

#: Threshold above which a traced run's per-layer rows are flagged: the
#: repository's own tracing-overhead guard.
OVERHEAD_LIMIT = 0.05


@dataclass(frozen=True)
class Row:
    name: str
    unit: str
    better: str
    layer: str
    workload: str
    moves: str


def _rows() -> tuple[Row, ...]:
    s, mib, n, ratio = "s", "MiB", "count", "ratio"
    rows = [
        Row("driver.setup_stages.self_s", s, "lower", "experiment.driver",
            "build", "wall_s, cpu_s, peak_rss_mb"),
        Row("driver.package_corpus.self_s", s, "lower", "experiment.driver",
            "build", "wall_s, cpu_s, peak_rss_mb"),
        Row("driver.run_experiment.cpu_s", s, "lower", "experiment.driver",
            "build", "cpu_s"),
        Row("driver.run_experiment.peak_rss_mb", mib, "lower",
            "experiment.driver", "build", "peak_rss_mb"),
        Row("sim.run_until.self_s", s, "lower", "sim", "build",
            "wall_s, cpu_s"),
        Row("sim.events_executed", n, "lower", "sim", "build",
            "wall_s, cpu_s"),
        Row("sim.queue_high_water", n, "lower", "sim", "build",
            "peak_rss_mb"),
        Row("bgp.announcements", n, "lower", "bgp", "sharded_build",
            "wall_s"),
        Row("bgp.withdrawals", n, "lower", "bgp", "sharded_build",
            "wall_s"),
        Row("driver.record_timeline.self_s", s, "lower",
            "bgp + sim (record pass)", "sharded_build", "wall_s"),
        Row("driver.record_timeline.cpu_s", s, "lower",
            "bgp + sim (record pass)", "sharded_build", "wall_s"),
        Row("scanners.batch_emit.self_s", s, "lower", "scanners", "build",
            "wall_s, cpu_s, peak_rss_mb"),
        Row("scanners.batch_emit.calls", n, "lower", "scanners", "build",
            "wall_s, cpu_s"),
        Row("scanners.packets_emitted", n, "lower", "scanners", "build",
            "wall_s, cpu_s, peak_rss_mb"),
        Row("driver.flush_batches.self_s", s, "lower", "scanners", "build",
            "wall_s, cpu_s"),
        Row("net.packets_unrouted", n, "lower", "net.lpm", "build",
            "wall_s"),
        Row("telescope.packets_captured", n, "lower", "telescope.capture",
            "build", "wall_s, store_mb"),
        Row("telescope.packets_dropped", n, "lower", "telescope.capture",
            "build", "wall_s"),
        Row("telescope.delivery_ratio", ratio, "higher",
            "net.lpm + telescope.capture", "build", "wall_s"),
        Row("sharding.shard_simulate.wall_s", s, "lower",
            "experiment.sharding", "sharded_build", "wall_s"),
        Row("sharding.worker_cpu_max_s", s, "lower", "experiment.sharding",
            "sharded_build", "wall_s, cpu_s"),
        Row("sharding.worker_skew", ratio, "lower", "experiment.sharding",
            "sharded_build", "wall_s"),
        Row("sharding.worker_build_cpu_s", s, "lower",
            "experiment.sharding", "sharded_build", "cpu_s"),
        Row("sharding.worker_spill_s", s, "lower", "experiment.sharding",
            "sharded_build", "wall_s"),
        Row("sharding.worker_peak_rss_mb", mib, "lower",
            "experiment.sharding", "sharded_build", "peak_rss_mb"),
        Row("sharding.retries", n, "lower", "experiment.sharding",
            "sharded_build", "wall_s, cpu_s"),
        Row("sharding.merge.self_s", s, "lower", "experiment.corpus",
            "sharded_build", "wall_s, peak_rss_mb"),
        Row("obs.events_written", n, "lower", "obs", "sharded_build",
            "wall_s, cpu_s"),
        Row("obs.tailer_stalls", n, "lower", "obs", "sharded_build",
            "wall_s"),
        Row("obs.trace_overhead_frac", ratio, "lower", "obs", "all",
            "none"),
        Row("store.save_corpus.wall_s", s, "lower", "experiment.store",
            "build", "wall_s"),
        Row("store.save_corpus.peak_rss_mb", mib, "lower",
            "experiment.store", "build", "peak_rss_mb"),
        Row("store.write_chunks.self_s", s, "lower", "experiment.store",
            "build", "wall_s, store_mb"),
        Row("store.corpus_digest.wall_s", s, "lower", "experiment.store",
            "build", "wall_s"),
        Row("store.load_corpus.wall_s", s, "lower", "experiment.store",
            "reproduce", "wall_s"),
        Row("store.chunks_opened", n, "lower", "experiment.store",
            "reproduce", "wall_s, peak_rss_mb"),
        Row("store.chunks_verified", n, "lower", "experiment.store",
            "reproduce", "wall_s"),
        Row("store.bytes_mapped_frac", ratio, "lower", "experiment.store",
            "reproduce", "peak_rss_mb"),
        Row("columnar.sessionize.self_s", s, "lower", "core.columnar",
            "reproduce", "wall_s"),
        Row("columnar.aggregate.self_s", s, "lower", "core.columnar",
            "reproduce", "wall_s"),
        Row("columnar.materialize_chunks.self_s", s, "lower",
            "core.columnar", "reproduce", "wall_s"),
        Row("columnar.packets_sessionized", n, "lower", "core.columnar",
            "reproduce", "wall_s"),
        Row("analysis.classify_temporal.self_s", s, "lower",
            "analysis.context + core.temporal", "reproduce", "wall_s"),
        Row("analysis.classify_network.self_s", s, "lower",
            "analysis.context + core.netclass", "reproduce", "wall_s"),
        Row("analysis.sessions_cache_hit_ratio", ratio, "higher",
            "analysis.context", "reproduce", "wall_s"),
        Row("analysis.packet_objects", n, "lower", "telescope.packet",
            "reproduce", "wall_s, peak_rss_mb"),
    ]
    for artifact in ARTIFACTS:
        module = ("analysis.tables" if artifact in TABLES
                  else "analysis.figures" if artifact in FIGURES
                  else f"analysis.{artifact}")
        rows.append(Row(f"analysis.{artifact}.self_s", s, "lower", module,
                        "reproduce", "wall_s"))
        rows.append(Row(f"analysis.{artifact}.peak_rss_mb", mib, "lower",
                        module, "reproduce", "peak_rss_mb"))
    rows.append(Row("failed_frac", ratio, "lower", "benchmark checks",
                    "all", "failed_frac"))
    return tuple(rows)


CATALOGUE = _rows()


def _sum_series(series: dict, name: str) -> float:
    """Sum a metric over all its label sets (telescopes, shards)."""
    return sum(value for key, value in series.items()
               if key.partition("{")[0] == name)


def derive(events: list[dict], snapshot: dict, facts: dict) -> dict:
    """Every catalogue row's value for one traced run.

    ``events`` is the merged Chrome trace, ``snapshot`` the recorder's
    metrics snapshot, and ``facts`` what the workload read off the
    program's results (see ``workload.py``). Self times of a span name
    sum over all its spans in all processes.
    """
    self_s: dict[str, float] = defaultdict(float)
    wall_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    executed = 0
    bench: dict[str, dict] = {}
    artifact_s: dict[str, float] = defaultdict(float)
    nodes = span_forest(events)
    for node in nodes:
        name = node["name"]
        self_s[name] += self_seconds(node)
        wall_s[name] += node["dur"]
        calls[name] += 1
        if name == "sim.run_until":
            executed += int(node["args"].get("executed", 0))
        call = name.removeprefix("bench.")
        if call != name:
            bench[call] = node["args"]
            artifact_s[call] += self_seconds(node)
        artifact = name.removeprefix("analysis.")
        if node["parent"] is not None \
                and nodes[node["parent"]]["name"] == f"bench.{artifact}":
            # the program's own span of an artifact (``@traced``) holds
            # the artifact's code too, not a lower layer's
            artifact_s[artifact] += self_seconds(node)
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})

    def counter(name: str) -> float:
        return _sum_series(counters, name)

    def bench_attr(call: str, attr: str) -> float:
        return float(bench.get(call, {}).get(attr) or 0.0)

    stats = facts.get("shard_stats") or []
    worker_cpu = [sum(s["stage_cpu_seconds"].values()) for s in stats]
    emitted = facts.get("packets_emitted", 0)
    hits = counter("analysis.sessions.cache_hits_total")
    misses = counter("analysis.sessions.cache_misses_total")
    store_bytes = facts.get("store_bytes", 0)
    sharded = bool(stats)
    values = {
        "driver.setup_stages.self_s": sum(
            self_s[f"driver.{stage}"] for stage in
            ("build_deployment", "build_population", "schedule_scanners")),
        "driver.package_corpus.self_s": self_s["driver.package_corpus"],
        "driver.run_experiment.cpu_s": bench_attr("run_experiment", "cpu_s"),
        "driver.run_experiment.peak_rss_mb":
            bench_attr("run_experiment", "peak_rss_mb"),
        "sim.run_until.self_s": self_s["sim.run_until"],
        "sim.events_executed": executed,
        "sim.queue_high_water": facts.get("queue_high_water", 0),
        "bgp.announcements": counter("bgp.announcements_total"),
        "bgp.withdrawals": counter("bgp.withdrawals_total"),
        "driver.record_timeline.self_s": self_s["driver.record_timeline"],
        "driver.record_timeline.cpu_s":
            facts.get("record_timeline_cpu_s", 0.0),
        "scanners.batch_emit.self_s": self_s["scanner.batch_emit"],
        "scanners.batch_emit.calls": calls["scanner.batch_emit"],
        "scanners.packets_emitted": emitted,
        "driver.flush_batches.self_s": self_s["driver.flush_batches"],
        "net.packets_unrouted": facts.get("packets_unrouted", 0),
        "telescope.packets_captured": facts.get("packets_captured", 0),
        "telescope.packets_dropped":
            counter("telescope.packets_dropped_total"),
        "telescope.delivery_ratio":
            facts.get("packets_captured", 0) / emitted if emitted else 0.0,
        "sharding.shard_simulate.wall_s": wall_s["driver.shard_simulate"],
        "sharding.worker_cpu_max_s": max(worker_cpu, default=0.0),
        "sharding.worker_skew": (max(worker_cpu) * len(worker_cpu)
                                 / sum(worker_cpu))
        if worker_cpu and sum(worker_cpu) else 0.0,
        "sharding.worker_build_cpu_s": sum(
            s["stage_cpu_seconds"].get("build", 0.0) for s in stats),
        "sharding.worker_spill_s": max(
            (s["stage_seconds"].get("spill", 0.0) for s in stats),
            default=0.0),
        "sharding.worker_peak_rss_mb": facts.get("worker_peak_kb", 0) / 1024,
        "sharding.retries": counter("sharding.retries_total"),
        "sharding.merge.self_s":
            self_s["driver.package_corpus"] if sharded else 0.0,
        "obs.events_written": facts.get("events_written", 0),
        "obs.tailer_stalls": counter("tailer.stalled_total"),
        "store.save_corpus.wall_s": wall_s["bench.save_corpus"],
        "store.save_corpus.peak_rss_mb":
            bench_attr("save_corpus", "peak_rss_mb"),
        "store.write_chunks.self_s": self_s["store.write_chunks"],
        "store.corpus_digest.wall_s": wall_s["bench.corpus_digest"],
        "store.load_corpus.wall_s": wall_s["bench.load_corpus"],
        "store.chunks_opened": counter("store.chunks_opened_total"),
        "store.chunks_verified": counter("store.chunks_verified_total"),
        "store.bytes_mapped_frac":
            _sum_series(gauges, "store.bytes_mapped") / store_bytes
            if store_bytes else 0.0,
        "columnar.sessionize.self_s": self_s["columnar.sessionize"],
        "columnar.aggregate.self_s": self_s["columnar.aggregate"],
        "columnar.materialize_chunks.self_s":
            self_s["columnar.materialize_chunks"],
        "columnar.packets_sessionized":
            counter("columnar.packets_sessionized_total"),
        "analysis.classify_temporal.self_s":
            self_s["analysis.classify_temporal"],
        "analysis.classify_network.self_s":
            self_s["analysis.classify_network"],
        "analysis.sessions_cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "analysis.packet_objects": facts.get("packet_objects", 0),
    }
    for artifact in ARTIFACTS:
        values[f"analysis.{artifact}.self_s"] = artifact_s[artifact]
        values[f"analysis.{artifact}.peak_rss_mb"] = \
            bench_attr(artifact, "peak_rss_mb")
    return values
