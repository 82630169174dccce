"""Command-line interface.

Subcommands:

- ``repro schedule`` — print the Fig. 2 announcement plan.
- ``repro run``      — simulate a campaign and print a summary.
- ``repro tables``   — simulate (or reuse a seed) and print Tables 2-8.
- ``repro figures``  — print the figure-data summaries.
- ``repro save``     — simulate and persist the corpus as a chunked
  store.
- ``repro load``     — analyze a saved corpus (lazy, memory-mapped).
- ``repro runs``     — browse the run ledger (``list``, ``show``, and
  ``compare``, which exits non-zero on a stage-time regression).

Every pipeline subcommand accepts ``--serve-obs PORT`` (live /metrics,
/status, /events and /trace over HTTP while it runs), ``--events PATH``
(structured JSONL run-event log) and — for the simulating commands —
``--ledger DIR`` (durable run manifests for ``repro runs``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.context import CorpusAnalysis
from repro.analysis import figures as figure_module
from repro.analysis.tables import (table2, table3, table4, table5, table6,
                                   table7, table8)
from repro.bgp.controller import build_split_schedule
from repro.errors import ExperimentError, ReproError
from repro.experiment import ExperimentConfig, run_experiment
from repro.net.prefix import Prefix
from repro.sim.clock import WEEK
from repro.telescope.deployment import T1_PREFIX

FIGURES = ("fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10",
           "fig11", "fig12", "fig14", "fig15", "fig16", "fig17")

#: Sim-time spacing of ``-v`` heartbeat lines (one per simulated week).
HEARTBEAT_INTERVAL = WEEK

log = obs.log.get_logger("cli")


def _add_obs_flags(cmd: argparse.ArgumentParser) -> None:
    """Observability flags shared by every pipeline subcommand."""
    cmd.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace-event JSON (Perfetto) "
                          "of the run")
    cmd.add_argument("--metrics", metavar="PATH", default=None,
                     help="write a metrics snapshot JSON of the run")
    cmd.add_argument("--log-level", choices=obs.log.LEVELS, default="info",
                     help="stderr log verbosity (default info)")
    cmd.add_argument("-v", "--verbose", action="store_true",
                     help="log a sim-time heartbeat (events/sec, queue "
                          "depth, ETA) while simulating")
    cmd.add_argument("--serve-obs", metavar="PORT", type=int, default=None,
                     help="serve live /metrics (Prometheus), /status, "
                          "/events and /trace on this port while the "
                          "command runs (0 = ephemeral)")
    cmd.add_argument("--events", metavar="PATH", default=None,
                     help="append the structured run-event log (JSONL: "
                          "stage transitions, heartbeats, checkpoints, "
                          "faults, quarantines) to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Detailed Measurement View on IPv6 "
                    "Scanners and Their Adaption to BGP Signals'")
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = sub.add_parser("schedule",
                              help="print the Fig. 2 announcement plan")
    schedule.add_argument("--prefix", default=str(T1_PREFIX),
                          help="covering prefix to split (default: "
                               f"{T1_PREFIX})")
    schedule.add_argument("--cycles", type=int, default=16,
                          help="number of split cycles (default 16)")

    for name, help_text in (
            ("run", "simulate a campaign and print a summary"),
            ("tables", "simulate and print Tables 2-8"),
            ("figures", "simulate and print figure-data summaries"),
            ("guidance", "simulate and print the §8 operator guidance"),
            ("validate", "simulate and score the classifiers against "
                         "the ground truth"),
            ("save", "simulate a campaign and save the corpus")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--seed", type=int, default=42)
        cmd.add_argument("--scale", type=float, default=0.1,
                         help="population scale (default 0.1)")
        cmd.add_argument("--faults", metavar="PLAN.json", default=None,
                         help="arm a fault-injection plan (blackouts, "
                              "BGP flaps, packet loss) from a JSON file")
        cmd.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="make the build crash-safe: run it as "
                              "supervised shards (one unless --shards "
                              "says more) and persist every completed "
                              "shard in this directory")
        cmd.add_argument("--resume", action="store_true",
                         help="continue from --checkpoint-dir instead of "
                              "starting fresh, re-running only the "
                              "shards the manifest shows incomplete (a "
                              "finer restart point needs more shards)")
        cmd.add_argument("--shards", metavar="N|auto", default=None,
                         help="build the corpus with N supervised "
                              "worker processes ('auto' = one per CPU); "
                              "byte-identical to the unsharded build. "
                              "With --checkpoint-dir, completed shards "
                              "persist and --resume re-runs only the "
                              "missing ones")
        cmd.add_argument("--shard-retries", metavar="N", type=int,
                         default=None,
                         help="max executions per shard before the run "
                              "fails or degrades (default 3; 1 = fail "
                              "fast)")
        cmd.add_argument("--shard-timeout", metavar="SECS", type=float,
                         default=None,
                         help="wall-clock budget for the heaviest "
                              "shard's first attempt; a worker making "
                              "no progress for its (load-scaled) budget "
                              "is killed and retried (default: no "
                              "timeout)")
        cmd.add_argument("--on-shard-failure", choices=("raise", "degrade"),
                         default="raise",
                         help="after a shard exhausts its retries: "
                              "'raise' aborts the run (default), "
                              "'degrade' quarantines the shard as "
                              "coverage gaps over its scanners' "
                              "traffic")
        cmd.add_argument("--ledger", metavar="DIR", default=None,
                         help="record the run in this ledger directory "
                              "(run.json manifest + event log; browse "
                              "with 'repro runs')")
        _add_obs_flags(cmd)
        if name == "figures":
            cmd.add_argument("--only", choices=FIGURES, default=None,
                             help="print a single figure")
        if name == "save":
            cmd.add_argument("--out", required=True,
                             help="output directory for the corpus")

    load = sub.add_parser("load",
                          help="load a saved corpus and print Tables 2-8")
    load.add_argument("path", help="corpus directory written by 'save'")
    load.add_argument("--lenient", action="store_true",
                      help="quarantine corrupt segments/chunks (load them "
                           "empty with a coverage gap) instead of failing")
    _add_obs_flags(load)

    runs = sub.add_parser("runs", help="browse the run ledger")
    runs.add_argument("action", choices=("list", "show", "compare"),
                      help="list all runs, show one manifest, or diff "
                           "two runs' stage timings and metrics")
    runs.add_argument("run_ids", nargs="*",
                      help="run id (show) or OLD NEW (compare)")
    runs.add_argument("--ledger", metavar="DIR", required=True,
                      help="ledger directory written by --ledger runs")
    runs.add_argument("--threshold", type=float, default=0.10,
                      help="stage-time regression threshold for compare "
                           "(fractional, default 0.10)")
    return parser


def cmd_schedule(args: argparse.Namespace) -> int:
    prefix = Prefix.parse(args.prefix)
    schedule = build_split_schedule(prefix, num_cycles=args.cycles)
    print(f"announcement plan for {prefix} "
          f"({len(schedule)} cycles):")
    for cycle in schedule:
        prefixes = ", ".join(str(p) for p in cycle.prefixes)
        print(f"  cycle {cycle.index:2d} @ week "
              f"{cycle.announce_time / WEEK:4.0f}: {prefixes}")
    return 0


def _simulate(args: argparse.Namespace):
    from repro.experiment.driver import resume_experiment
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    run_id = getattr(args, "run_id", None)
    ledger_dir = getattr(args, "ledger", None)
    if getattr(args, "resume", False):
        if not checkpoint_dir:
            raise ExperimentError("--resume requires --checkpoint-dir")
        log.info("resuming from checkpoints in %s ...", checkpoint_dir)
        result = resume_experiment(checkpoint_dir, run_id=run_id,
                                   ledger_dir=ledger_dir)
    else:
        retries = getattr(args, "shard_retries", None)
        config = ExperimentConfig(
            seed=args.seed, scale=args.scale,
            retry_policy=({"max_attempts": retries}
                          if retries is not None else None),
            shard_timeout=getattr(args, "shard_timeout", None),
            on_shard_failure=getattr(args, "on_shard_failure", "raise"))
        faults = None
        if getattr(args, "faults", None):
            from repro.faults import FaultPlan
            faults = FaultPlan.from_file(args.faults)
            log.info("armed fault plan %s (%d blackouts, %d flaps, "
                     "loss %.3g)", args.faults, len(faults.blackouts),
                     len(faults.flaps), faults.loss_rate)
        weeks = config.duration / WEEK
        log.info("simulating %.0f weeks at scale %s (seed %s) ...",
                 weeks, args.scale, args.seed)
        shards = getattr(args, "shards", None)
        if shards is not None:
            log.info("sharded build: --shards %s", shards)
        result = run_experiment(
            config, faults=faults, checkpoint_dir=checkpoint_dir,
            shards=shards, run_id=run_id, ledger_dir=ledger_dir)
    log.info("done in %.1fs: %s packets",
             result.wall_seconds, f"{result.corpus.total_packets():,}")
    return result


def cmd_run(args: argparse.Namespace) -> int:
    result = _simulate(args)
    corpus = result.corpus
    for telescope in corpus.telescopes():
        with obs.span("analysis.summary", telescope=telescope):
            table = corpus.table(telescope)
            sources = len(table.unique_source_addresses())
            asns = len(np.unique(table.src_asn[table.src_asn != 0]))
            print(f"{telescope}: {len(table):,} packets, "
                  f"{sources:,} sources, {asns:,} ASes")
    total = sum(result.stage_seconds.values())
    print(f"stages ({total:.1f}s of {result.wall_seconds:.1f}s):")
    for stage, seconds in result.stage_seconds.items():
        print(f"  {stage:<20} {seconds:8.2f}s")
    if corpus.has_gaps():
        print("coverage gaps:")
        for telescope, windows in sorted(corpus.coverage_gaps.items()):
            spans = ", ".join(f"[{s:.0f}, {e:.0f})" for s, e in windows)
            print(f"  {telescope}: {spans} "
                  f"({corpus.covered_fraction(telescope):.1%} covered)")
    return 0


def _print_tables(analysis: CorpusAnalysis) -> None:
    for generator in (table2, table3, table4, table5, table6, table7,
                      table8):
        result = generator(analysis)
        if generator is table5:
            print(result.table_a.render())
            print()
            print(result.table_b.render())
        else:
            print(result.table.render())
        print()


def cmd_tables(args: argparse.Namespace) -> int:
    result = _simulate(args)
    _print_tables(CorpusAnalysis(result.corpus))
    return 0


def cmd_guidance(args: argparse.Namespace) -> int:
    from repro.analysis.bias import bias_report
    from repro.analysis.guidance import derive_guidance
    result = _simulate(args)
    analysis = CorpusAnalysis(result.corpus)
    print(derive_guidance(analysis).render())
    print()
    print(bias_report(analysis).render())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import (EXCUSABLE, validate_network,
                                           validate_temporal,
                                           validate_tools)
    result = _simulate(args)
    temporal = validate_temporal(result)
    print(temporal.render("temporal classifier (truth > predicted)"))
    print(f"  accuracy: {temporal.accuracy():.3f} raw, "
          f"{temporal.accuracy(excuse=EXCUSABLE):.3f} excusing "
          "window clipping")
    network = validate_network(result)
    print(network.render("network-selection classifier"))
    print(f"  accuracy: {network.accuracy():.3f}")
    tools = validate_tools(result)
    print(tools.render("tool attribution"))
    print(f"  accuracy: {tools.accuracy():.3f}")
    return 0


def cmd_save(args: argparse.Namespace) -> int:
    from repro.experiment.store import FORMAT_VERSION, save_corpus
    result = _simulate(args)
    path = save_corpus(result.corpus, args.out)
    print(f"corpus written to {path} (format v{FORMAT_VERSION})")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    from repro.experiment.store import load_corpus
    corpus = load_corpus(args.path, strict=not args.lenient)
    log.info("loaded %s packets from %s",
             f"{corpus.total_packets():,}", args.path)
    _print_tables(CorpusAnalysis(corpus))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    result = _simulate(args)
    analysis = CorpusAnalysis(result.corpus)
    for name in (args.only,) if args.only else FIGURES:
        print(getattr(figure_module, name)(analysis).render())
        print()
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs import ledger as obsledger
    try:
        if args.action == "list":
            print(obsledger.render_runs_table(
                obsledger.list_runs(args.ledger)))
            return 0
        if args.action == "show":
            if len(args.run_ids) != 1:
                raise ExperimentError(
                    "'runs show' takes exactly one run id")
            print(json.dumps(
                obsledger.load_manifest(args.ledger, args.run_ids[0]),
                indent=2, default=str))
            return 0
        if len(args.run_ids) != 2:
            raise ExperimentError(
                "'runs compare' takes exactly two run ids (OLD NEW)")
        comparison = obsledger.compare_runs(
            args.ledger, args.run_ids[0], args.run_ids[1],
            threshold=args.threshold)
        print(comparison.render())
        # non-zero on regression, so scripts can gate on the exit status
        return 1 if comparison.regressions else 0
    except FileNotFoundError as exc:
        raise ExperimentError(
            f"no such run in ledger {args.ledger}: {exc}") from exc


def _dispatch_with_obs(handler, args: argparse.Namespace) -> int:
    """Run a handler under the full telemetry stack when flags ask for it.

    - ``--trace/--metrics/-v`` install a :class:`FlightRecorder` for the
      handler's whole lifetime (so simulation *and* analysis spans land
      in one trace); exports are written even if the handler fails.
    - ``--events/--ledger/--serve-obs`` additionally install a run
      :class:`~repro.obs.events.EventLog` (under the ledger directory
      when only ``--ledger`` is given) and stamp the run id onto every
      log line.
    - ``--serve-obs PORT`` serves /metrics, /status, /events and /trace
      live for the duration of the command.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    verbose = getattr(args, "verbose", False)
    serve_port = getattr(args, "serve_obs", None)
    events_path = getattr(args, "events", None)
    ledger_dir = getattr(args, "ledger", None)
    if not (trace_path or metrics_path or verbose or events_path
            or ledger_dir is not None or serve_port is not None):
        return handler(args)

    run_id = obs.events.new_run_id()
    args.run_id = run_id
    obs.log.configure(getattr(args, "log_level", "info"), run_id=run_id)
    # heartbeats feed both the -v log lines and the live /status board
    recorder = obs.FlightRecorder(
        heartbeat_interval=HEARTBEAT_INTERVAL
        if (verbose or serve_port is not None) else None)

    if events_path:
        log_path = Path(events_path)
    elif ledger_dir is not None:
        log_path = Path(ledger_dir) / run_id / "events.jsonl"
    elif serve_port is not None:
        # serving needs an event stream even if nobody asked to keep it
        args._obs_tmpdir = tempfile.TemporaryDirectory(prefix="repro-obs-")
        log_path = Path(args._obs_tmpdir.name) / "events.jsonl"
    else:
        log_path = None
    event_log = obs.EventLog(log_path, run_id=run_id) \
        if log_path is not None else None

    server = None
    if serve_port is not None:
        board = obs.StatusBoard(run_id=run_id)
        if event_log is not None:
            event_log.add_listener(board.on_event)
        server = obs.ObsServer(port=serve_port, recorder=recorder,
                               board=board, event_log=event_log)
    try:
        with recorder:
            if event_log is not None:
                obs.events.install(event_log)
            if server is not None:
                server.start()
            try:
                return handler(args)
            finally:
                if server is not None:
                    server.stop()
                if event_log is not None:
                    if obs.events.current() is event_log:
                        obs.events.uninstall()
                    event_log.close()
                    if events_path or ledger_dir is not None:
                        log.info("event log written to %s", log_path)
    finally:
        if trace_path:
            recorder.write_trace(trace_path)
            log.info("trace written to %s", trace_path)
        if metrics_path:
            recorder.write_metrics(metrics_path)
            log.info("metrics written to %s", metrics_path)
        tmpdir = getattr(args, "_obs_tmpdir", None)
        if tmpdir is not None:
            tmpdir.cleanup()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    obs.log.configure(getattr(args, "log_level", "info"))
    handlers = {
        "schedule": cmd_schedule,
        "run": cmd_run,
        "tables": cmd_tables,
        "figures": cmd_figures,
        "guidance": cmd_guidance,
        "validate": cmd_validate,
        "save": cmd_save,
        "load": cmd_load,
        "runs": cmd_runs,
    }
    try:
        if args.command == "runs":  # pure reader — no telemetry stack
            return cmd_runs(args)
        return _dispatch_with_obs(handlers[args.command], args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
