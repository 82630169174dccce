"""One step of a benchmark workload, run in a fresh process.

``run.py`` starts this script for every step, so each timed iteration
starts from a cold interpreter:

    python3 perfbench/workload.py --mode run --workload build \\
        --seed 42 --scale 1.0 --workdir DIR --out RESULT.json [--trace]

Modes:

- ``setup``     the workload's set-up: interpreter start and imports,
  plus for ``reproduce`` building and saving the input corpus at
  ``--store``;
- ``reference`` the unsharded build of ``--seed``, for checking that a
  sharded build is byte-identical to it where ``golden.json`` holds no
  digest (a ``--scale`` override);
- ``run``       one timed iteration, then its correctness checks.

``--seed`` is the benchmark's seed: :func:`config_seed` maps it to the
configuration seed the program receives (see NOTES.md).

The result file holds the timed phase's wall and CPU seconds, peak RSS,
the store size, the checks made (attempted / failed / skipped) and,
with ``--trace``, the per-layer rows and the path of the Chrome trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from layers import ARTIFACTS, TABLES, derive
from spans import BenchSpans, read_hwm_kb

WORKLOADS = ("build", "sharded_build", "reproduce")

#: Corpus scale of each workload: the paper-scale build, and a small
#: corpus for the analysis sweep so one iteration fits a run.
SCALES = {"build": 1.0, "sharded_build": 1.0, "reproduce": 0.03}

#: Worker processes of the sharded build, as ``repro save --shards 2``.
SHARDS = 2

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def import_entry_points():
    """Import every public entry point the workloads call."""
    import repro
    from repro.analysis import bias, figures, guidance, tables
    from repro.experiment import store
    return repro, store, tables, figures, guidance, bias


class Checks:
    """Checked operations of one step: attempted, failed and skipped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []
        self.skipped: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail else name)
        return ok

    def error(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
        traceback.print_exc()

    def skip(self, name: str, why: str) -> None:
        self.skipped.append(f"{name}: {why}")


def golden_for(workload: str, seed: int, scale: float) -> dict | None:
    """The committed input of a benchmark seed: its configuration seed
    and golden values (see NOTES.md), or None off the committed scale.

    ``sharded_build`` shares ``build``'s inputs, so the two digests of
    one benchmark seed must agree.
    """
    listed = json.loads(GOLDEN.read_text())[
        "reproduce" if workload == "reproduce" else "build"]
    if scale != listed["scale"]:
        return None
    return listed["seeds"][seed % len(listed["seeds"])]


def config_seed(args) -> int:
    """The seed the program's ``ExperimentConfig`` receives."""
    golden = golden_for(args.workload, args.seed, args.scale)
    return golden["seed"] if golden is not None else args.seed


def store_bytes(path: Path) -> tuple[int, int]:
    """(on-disk bytes of every file, bytes of the chunk manifest)."""
    total = sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    meta = json.loads((path / "meta.json").read_text())
    chunks = sum(entry["bytes"] for manifest in
                 meta["store"]["chunks"].values() for entry in manifest)
    return total, chunks


def render(name: str, result) -> str:
    """An artifact's text, as the ``repro tables/figures/guidance``
    commands print it."""
    if name == "table5":
        return result.table_a.render() + "\n\n" + result.table_b.render()
    if name in TABLES:
        return result.table.render()
    return result.render()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- timed phases ------------------------------------------------------------


def _build(args, spans: BenchSpans, shards=None, **run_kwargs) -> dict:
    repro, store, *_ = import_entry_points()
    config = repro.ExperimentConfig(seed=config_seed(args), scale=args.scale)
    with spans.span("bench.run_experiment"):
        result = repro.run_experiment(config, shards=shards, **run_kwargs)
    path = Path(args.workdir) / "store"
    with spans.span("bench.save_corpus"):
        store.save_corpus(result.corpus, path)
    with spans.span("bench.corpus_digest"):
        digest = store.corpus_digest(result.corpus)
    return {"result": result, "store": path, "digest": digest}


def build(args, spans: BenchSpans, checks: Checks) -> dict:
    """Unsharded paper-scale build, v2 store save, corpus digest."""
    return _build(args, spans)


def sharded_build(args, spans: BenchSpans, checks: Checks) -> dict:
    """The same build over two shard workers, under the telemetry stack
    ``repro save --shards 2 --ledger`` installs: the flight recorder
    (installed by the caller), a run event log and the run ledger."""
    from repro import obs
    run_id = obs.events.new_run_id()
    ledger = Path(args.workdir) / "ledger"
    event_log = obs.EventLog(ledger / run_id / "events.jsonl", run_id=run_id)
    worker_peak_kb = [0]

    def on_event(record: dict) -> None:
        # every worker is reaped when shard_simulate ends; later the
        # ledger's git call forks the coordinator, and ru_maxrss would
        # report that fork's inherited RSS as a child's peak
        if record["kind"] == "stage.end" \
                and record.get("stage") == "shard_simulate":
            worker_peak_kb[0] = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss

    if args.trace:
        event_log.add_listener(on_event)
    obs.events.install(event_log)
    try:
        out = _build(args, spans, shards=SHARDS, run_id=run_id,
                     ledger_dir=ledger)
    finally:
        obs.events.uninstall()
        event_log.close()
    out.update(ledger=ledger, run_id=run_id, events=event_log.path,
               worker_peak_kb=worker_peak_kb[0])
    return out


def reproduce(args, spans: BenchSpans, checks: Checks) -> dict:
    """Cold load of the saved corpus, then every table, figure and
    section 8 report, serially on one analysis context."""
    repro, store, tables, figures, guidance, bias = import_entry_points()
    path = Path(args.store)
    with spans.span("bench.load_corpus"):
        corpus = store.load_corpus(path)
    analysis = repro.CorpusAnalysis(corpus)
    generators = {name: getattr(tables, name) for name in TABLES}
    generators.update({name: getattr(figures, name)
                       for name in ARTIFACTS if name.startswith("fig")})
    generators["guidance"] = guidance.derive_guidance
    generators["bias"] = bias.bias_report
    outputs: dict[str, str] = {}
    for name in ARTIFACTS:
        try:
            with spans.span(f"bench.{name}"):
                outputs[name] = _sha256(render(name, generators[name](
                    analysis)))
        except Exception as exc:  # one failed artifact, the rest still run
            checks.error(name, exc)
    return {"corpus": corpus, "store": path, "outputs": outputs}


PHASES = {"build": build, "sharded_build": sharded_build,
          "reproduce": reproduce}


# -- checks (after the timed phase) -----------------------------------------


def check(args, out: dict, checks: Checks) -> None:
    _, store, *_ = import_entry_points()
    golden = golden_for(args.workload, args.seed, args.scale)
    if args.workload == "reproduce":
        expected = golden["artifacts"] if golden else None
        for name, digest in out["outputs"].items():
            if expected is None:
                checks.skip(name, f"no golden output for seed {args.seed} "
                                  f"at scale {args.scale}")
            else:
                checks.expect(name, digest == expected[name],
                              f"output digest {digest[:12]} differs from "
                              f"golden {expected[name][:12]}")
        digest = store.corpus_digest(out["corpus"])
        checks.expect("load_corpus", digest == args.expect_digest,
                      "loaded corpus differs from the corpus set-up saved")
        if golden is not None:
            checks.expect("golden_digest", digest == golden["corpus_digest"],
                          f"{digest[:12]} != golden "
                          f"{golden['corpus_digest'][:12]}")
        return
    digest = out["digest"]
    if args.workload == "build":
        if golden is None:
            checks.skip("golden_digest", f"no golden digest for seed "
                                         f"{args.seed} at scale {args.scale}")
        else:
            checks.expect("golden_digest", digest == golden["corpus_digest"],
                          f"{digest[:12]} != golden "
                          f"{golden['corpus_digest'][:12]}")
    else:
        checks.expect("sharded_digest", digest == args.expect_digest,
                      f"sharded {digest[:12]} != unsharded "
                      f"{(args.expect_digest or '')[:12]}")
        from repro.obs import ledger
        manifest = ledger.load_manifest(out["ledger"], out["run_id"])
        checks.expect("ledger_digest", manifest["corpus_digest"] == digest,
                      "ledger manifest records another corpus digest")
    loaded = store.corpus_digest(store.load_corpus(out["store"]))
    checks.expect("store_roundtrip", loaded == digest,
                  "saved store reloads as another corpus")


# -- facts for the per-layer rows -------------------------------------------


def facts(out: dict, store_chunk_bytes: int) -> dict:
    from repro import obs
    result = out.get("result")
    corpus = result.corpus if result is not None else out["corpus"]
    found = {
        "store_bytes": store_chunk_bytes,
        "packet_objects": sum(len(packets) for packets in
                              corpus.packets_by_telescope.values()),
        "worker_peak_kb": out.get("worker_peak_kb", 0),
    }
    if result is not None:
        found.update(
            packets_emitted=result.context.packets_emitted,
            packets_unrouted=result.context.packets_unrouted,
            packets_captured=corpus.total_packets(),
            queue_high_water=result.deployment.simulator.queue.high_water,
            record_timeline_cpu_s=result.stage_cpu_seconds.get(
                "record_timeline", 0.0),
            shard_stats=result.shard_stats or [])
    if "events" in out:
        found["events_written"] = len(obs.events.read_events(out["events"]))
    return found


# -- modes -------------------------------------------------------------------


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run(args) -> dict:
    import_entry_points()
    from repro import obs
    checks = Checks()
    # the sharded workload's flight recorder is part of its input; the
    # other workloads get one only when traced
    recorder = obs.FlightRecorder() \
        if args.trace or args.workload == "sharded_build" else None
    run_id = obs.events.new_run_id()
    spans = BenchSpans(recorder if args.trace else None, run_id)
    wall_start, cpu_start = time.perf_counter(), _cpu_seconds()
    out: dict = {}
    try:
        with recorder if recorder is not None else nullcontext():
            out = PHASES[args.workload](args, spans, checks)
    except Exception as exc:
        checks.error(args.workload, exc)
    wall = time.perf_counter() - wall_start
    cpu = _cpu_seconds() - cpu_start
    peak_kb = max(read_hwm_kb(), resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024,
              "run_id": run_id}
    if not out:
        return {**report, **_checks(checks)}
    disk, chunk_bytes = store_bytes(out["store"])
    report["store_mb"] = disk / 2 ** 20
    if args.trace:
        trace = recorder.chrome_trace()
        report["layers"] = derive(trace["traceEvents"],
                                  recorder.metrics.snapshot(),
                                  facts(out, chunk_bytes))
        report["hwm_reset"] = spans.hwm_reset
        trace_path = Path(args.workdir) / "trace.json"
        trace_path.write_text(json.dumps(trace) + "\n")
        report["trace"] = str(trace_path)
    try:
        check(args, out, checks)
    except Exception as exc:
        checks.error("checks", exc)
    if args.workload == "reproduce":
        report["outputs"] = out["outputs"]
    elif "digest" in out:
        report["digest"] = out["digest"]
    return {**report, **_checks(checks)}


def setup(args) -> dict:
    repro, store, *_ = import_entry_points()
    if args.workload != "reproduce":
        return {}
    result = repro.run_experiment(
        repro.ExperimentConfig(seed=config_seed(args), scale=args.scale))
    store.save_corpus(result.corpus, Path(args.store))
    return {"digest": store.corpus_digest(result.corpus)}


def reference(args) -> dict:
    repro, store, *_ = import_entry_points()
    result = repro.run_experiment(
        repro.ExperimentConfig(seed=config_seed(args), scale=args.scale))
    return {"digest": store.corpus_digest(result.corpus)}


def _checks(checks: Checks) -> dict:
    return {"attempted": checks.attempted, "failed": checks.failed,
            "skipped": checks.skipped}


MODES = {"setup": setup, "reference": reference, "run": run}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--store", default=None,
                        help="input corpus of reproduce (saved by setup)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--expect-digest", default=None)
    args = parser.parse_args(argv)
    result = MODES[args.mode](args)
    Path(args.out).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
