"""Experiment driver: build, run, collect.

``run_experiment(config)`` performs the whole measurement campaign, and
``resume_experiment`` continues a checkpointed one; both run the same
staged body:

1. build the deployment (§3: BGP fabric, telescopes, collector, hitlist),
2. build the calibrated scanner population,
3. register RDNS entries for fixed-source scanners and schedule the
   scanners (then arm the fault plan, if any),
4. run them to the horizon — in this process with BGP live
   (``simulate``, ``flush_batches``) for one shard, or fanned out to
   supervised shard workers that replay a recorded routing timeline
   (``record_timeline``, ``shard_simulate``) for more shards or a
   checkpoint (DESIGN §8, §11),
5. package the captures into a :class:`PacketCorpus`.

Each stage runs inside a ``driver.*`` tracing span. When a
:class:`repro.obs.FlightRecorder` is installed the spans land in its
trace (nested under ``driver.run_experiment``, with ``sim.run_until``
below ``driver.simulate``) and the simulator heartbeat is attached;
otherwise a private throwaway tracer measures the same stages so
:attr:`ExperimentResult.stage_seconds` is always populated.
"""

from __future__ import annotations

import shutil
import tempfile
import time as _time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import obs
from repro.obs import events as obsevents
from repro.obs import ledger as obsledger
from repro.bgp.messages import UpdateKind
from repro.experiment import checkpoint as ckpt
from repro.experiment.config import ExperimentConfig
from repro.experiment.corpus import PacketCorpus, merge_chunked_shards
from repro.faults import FaultInjector, FaultPlan
from repro.scanners.base import Scanner, ScannerContext, SourceModel
from repro.scanners.population import (PopulationInputs, build_population)
from repro.scanners.registry import ASRegistry
from repro.sim.events import Simulator
from repro.sim.rng import RngStreams
from repro.telescope.deployment import (Deployment, T1_PREFIX, T2_PREFIX,
                                        T3_PREFIX, T4_PREFIX,
                                        build_deployment)


@dataclass
class ExperimentResult:
    """Corpus plus ground truth and infrastructure handles."""

    corpus: PacketCorpus
    deployment: Deployment
    population: list[Scanner]
    context: ScannerContext
    wall_seconds: float
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: CPU (process) seconds of coordinator stages that matter for
    #: scaling accounting — currently only ``record_timeline`` of a
    #: fan-out; empty for an in-process run.
    stage_cpu_seconds: dict[str, float] = field(default_factory=dict)
    #: per-worker results of a fan-out (segment row counts, wall and
    #: CPU seconds per worker stage) — ``None`` for an in-process run.
    shard_stats: list[dict] | None = field(default=None, repr=False)
    #: shards that exhausted their retry budget under
    #: ``on_shard_failure="degrade"`` — their scanners' traffic is
    #: missing from the corpus and recorded as coverage gaps.
    quarantined_shards: tuple[int, ...] = ()

    def ground_truth_temporal(self) -> dict[int, str]:
        """scanner_id -> generative temporal kind (validation only)."""
        return {s.scanner_id: s.temporal.kind.value for s in self.population}

    def ground_truth_network(self) -> dict[int, str]:
        return {s.scanner_id: s.truth_network_class
                for s in self.population if s.truth_network_class}


#: Stage names of an in-process run, in execution order, as they appear
#: in ``stage_seconds`` and as ``driver.<stage>`` tracing spans. When a
#: fault plan is armed an extra ``install_faults`` stage runs (and is
#: timed) between ``schedule_scanners`` and ``simulate``. A fan-out
#: (more than one shard, or any ``checkpoint_dir``) replaces
#: ``simulate`` and ``flush_batches`` with a coordinator
#: ``record_timeline`` stage (the infrastructure-only recording pass)
#: followed by one ``shard_simulate`` stage covering the whole worker
#: fan-out; the per-worker breakdown lands in
#: :attr:`ExperimentResult.shard_stats`.
STAGES = ("build_deployment", "build_population", "schedule_scanners",
          "simulate", "flush_batches", "package_corpus")

_log = obs.log.get_logger("driver")


@contextmanager
def _stage(tracer, name, stage_seconds, **attrs):
    """One driver stage: a tracing span bracketed by run events.

    Records the stage's duration in ``stage_seconds[name]``. Event
    emission is a no-op unless an :class:`~repro.obs.events.EventLog`
    is installed.
    """
    obs.event("stage.start", stage=name, **attrs)
    with tracer.span(f"driver.{name}", **attrs) as sp:
        yield sp
    stage_seconds[name] = sp.duration
    obs.event("stage.end", stage=name, seconds=round(sp.duration, 4))


def _record_run(result: "ExperimentResult", config, run_id, ledger_dir,
                fault_plan=None, shards=None) -> None:
    """Emit the ``run.end`` event and persist the ledger manifest."""
    corpus = result.corpus
    obs.event("run.end", wall_seconds=round(result.wall_seconds, 3),
              packets=corpus.total_packets(), scanners=len(result.population))
    if ledger_dir is None:
        return
    from repro.experiment.store import corpus_digest
    recorder = obs.current()
    event_log = obsevents.current()
    manifest = obsledger.build_manifest(
        run_id=run_id or (event_log.run_id if event_log is not None
                          else obsevents.new_run_id()),
        config=config,
        stage_seconds=result.stage_seconds,
        wall_seconds=result.wall_seconds,
        stage_cpu_seconds=result.stage_cpu_seconds,
        shards=shards,
        corpus_summary={
            "total_packets": corpus.total_packets(),
            "telescopes": {name: len(corpus.table(name))
                           for name in corpus.tables_by_telescope}},
        corpus_digest=corpus_digest(corpus),
        coverage_gaps=corpus.coverage_gaps,
        fault_plan=(obsledger.config_to_dict(fault_plan)
                    if fault_plan is not None else None),
        metrics=(recorder.metrics.snapshot()
                 if recorder is not None else None),
        events_file=(str(event_log.path)
                     if event_log is not None else None))
    path = obsledger.write_manifest(ledger_dir, manifest)
    _log.info("run %s recorded in ledger: %s", manifest["run_id"], path)


def deployment_for(config: ExperimentConfig, streams: RngStreams,
                   simulator: Simulator | None = None,
                   replay_feed=None) -> Deployment:
    """The deployment ``config`` describes (``replay_feed``: see
    :func:`~repro.telescope.deployment.build_deployment`)."""
    return build_deployment(
        streams,
        simulator=simulator,
        baseline_weeks=config.baseline_weeks,
        cycle_weeks=config.cycle_weeks,
        num_cycles=config.num_cycles,
        num_tier1=config.num_tier1,
        num_tier2=config.num_tier2,
        num_stubs=config.num_stubs,
        feed_delay=config.feed_delay,
        replay_feed=replay_feed)


def population_for(config: ExperimentConfig, deployment: Deployment,
                   registry: ASRegistry,
                   streams: RngStreams) -> list[Scanner]:
    """The calibrated scanner population of ``config`` on ``deployment``."""
    inputs = PopulationInputs(
        schedule=deployment.cycles(),
        announced=deployment.announced_t1_prefixes,
        t1_prefix=T1_PREFIX,
        t2_prefix=T2_PREFIX,
        t3_prefix=T3_PREFIX,
        t4_prefix=T4_PREFIX,
        attractor_addr=deployment.productive.attractor_addr,
        duration=config.duration)
    return build_population(config.population, inputs, registry, streams)


def context_for(config: ExperimentConfig,
                deployment: Deployment) -> ScannerContext:
    """The scanners' view of ``deployment`` for the whole campaign."""
    return ScannerContext(
        simulator=deployment.simulator,
        route=deployment.route_batch,
        defer_batch=True,
        collector=deployment.collector,
        window_start=0.0,
        window_end=config.duration)


def _build_stages(config, registry, tracer, stage_seconds) \
        -> tuple[Deployment, list[Scanner]]:
    """The ``build_deployment`` and ``build_population`` stages."""
    streams = RngStreams(config.seed)
    with _stage(tracer, "build_deployment", stage_seconds):
        deployment = deployment_for(config, streams)
    with _stage(tracer, "build_population", stage_seconds):
        population = population_for(config, deployment, registry, streams)
    return deployment, population


def _corpus(config, registry, deployment, tables,
            coverage_gaps) -> PacketCorpus:
    """The campaign's corpus around its per-telescope packet ``tables``."""
    return PacketCorpus(
        config=config,
        tables_by_telescope=tables,
        schedule=deployment.cycles(),
        registry=registry,
        resolver=deployment.resolver,
        t1_prefix=T1_PREFIX,
        t2_prefix=T2_PREFIX,
        t3_prefix=T3_PREFIX,
        t4_prefix=T4_PREFIX,
        attractor_addr=deployment.productive.attractor_addr,
        coverage_gaps=coverage_gaps)


def run_experiment(config: ExperimentConfig | None = None,
                   registry: ASRegistry | None = None,
                   faults: FaultInjector | FaultPlan | None = None,
                   checkpoint_dir: str | Path | None = None,
                   after_checkpoint=None,
                   shards: int | str | None = None,
                   run_id: str | None = None,
                   ledger_dir: str | Path | None = None) -> ExperimentResult:
    """Run one full measurement campaign and return its result.

    ``faults`` arms a :class:`repro.faults.FaultPlan` (or a prebuilt
    injector) on the deployment before the simulation starts; an empty
    plan leaves the run byte-identical to a fault-free one.

    ``shards`` (an int or ``"auto"``, one per CPU) partitions the
    scanner population across that many worker processes, each running
    its own event loop against a replica of the deployment; the merged
    corpus is byte-identical to the in-process build (DESIGN §8).
    ``None`` and ``1`` both mean one shard, simulated in this process
    with BGP live. Workers run under the
    :class:`~repro.experiment.sharding.ShardSupervisor`: crashed or hung
    workers run up to ``config.shard_attempts`` times (with per-shard
    timeouts derived from ``config.shard_timeout`` and the LPT cost
    model), and ``config.on_shard_failure`` picks between a terminal
    :class:`~repro.errors.ShardError` and quarantining the shard as
    coverage gaps.

    ``checkpoint_dir`` makes the run crash-safe. It always fans out —
    one supervised shard unless ``shards`` asks for more — and persists
    a setup snapshot, a crash-safe ``shards.json`` manifest and every
    completed shard's spill segments there; after a crash
    :func:`resume_experiment` re-runs only the shards that had not
    completed and produces the corpus the uninterrupted run would have
    (DESIGN §11). A finer restart point means more shards.
    ``after_checkpoint`` is called with the manifest path after each
    recorded shard completion (test hook).

    ``ledger_dir`` records the run in the durable run ledger
    (:mod:`repro.obs.ledger`): a ``run.json`` manifest with config and
    git digests, per-stage timings, the final metrics snapshot and the
    corpus digest, browsable with ``repro runs list|show|compare``.
    ``run_id`` names the ledger entry (defaults to the installed event
    log's run id, else a fresh one).
    """
    started = _time.monotonic()
    from repro.experiment import sharding
    if config is None:
        config = ExperimentConfig()
    num_shards = sharding.resolve_shards(shards if shards is not None else 1)
    obs.event("run.start", seed=config.seed, scale=config.scale,
              duration=config.duration, shards=num_shards,
              faults=faults is not None)
    return _run(config, registry if registry is not None else ASRegistry(),
                faults, num_shards, started, run_id=run_id,
                ledger_dir=ledger_dir, checkpoint_dir=checkpoint_dir,
                after_checkpoint=after_checkpoint)


def resume_experiment(checkpoint_dir: str | Path,
                      after_checkpoint=None,
                      run_id: str | None = None,
                      ledger_dir: str | Path | None = None) \
        -> ExperimentResult:
    """Continue a killed checkpointed campaign at shard granularity.

    Everything a worker needs is a pure function of ``(config, plan,
    num_shards)``, read back from the setup snapshot (see
    :data:`repro.experiment.sharding.SETUP_NAME`), so the coordinator
    re-derives the deployment replica and re-runs the recording pass
    deterministically. Shards recorded complete in ``shards.json`` are
    restored from their on-disk spill segments and only the missing
    shards execute; the resulting corpus is byte-identical to the one an
    uninterrupted run would have produced. Raises
    :class:`~repro.errors.CheckpointError` when ``checkpoint_dir`` holds
    no valid setup snapshot of this format version.
    """
    started = _time.monotonic()
    from repro.experiment import sharding
    state = ckpt.read_checkpoint(
        Path(checkpoint_dir) / sharding.SETUP_NAME)
    config = state["config"]
    num_shards = state["num_shards"]
    obs.add("checkpoint.resumes_total")
    obs.event("run.resume", checkpoint=sharding.SETUP_NAME,
              shards=num_shards, horizon=config.duration)
    _log.info("resuming run from %s (%d shards, horizon %.0f)",
              checkpoint_dir, num_shards, config.duration)
    return _run(config, ASRegistry(), state["plan"], num_shards, started,
                run_id=run_id, ledger_dir=ledger_dir,
                checkpoint_dir=checkpoint_dir,
                after_checkpoint=after_checkpoint, resume=True)


def _run(config: ExperimentConfig, registry: ASRegistry,
         faults: FaultInjector | FaultPlan | None, num_shards: int,
         started: float, *, run_id: str | None,
         ledger_dir: str | Path | None,
         checkpoint_dir: str | Path | None = None,
         after_checkpoint=None, resume: bool = False) -> ExperimentResult:
    """The staged body of every build (see the module docstring).

    One shard without a checkpoint simulates in this process. Anything
    else fans out: the coordinator's replica runs no scanner, its one
    simulation is the recording pass whose collector journal the workers
    replay, and the workers' spilled segments are merged (verified) at
    ``package_corpus``.
    """
    from repro.experiment import sharding
    recorder = obs.current()
    tracer = recorder.tracer if recorder is not None else obs.Tracer()
    plan = faults.plan if isinstance(faults, FaultInjector) else faults
    fan_out = num_shards > 1 or checkpoint_dir is not None
    stage_seconds: dict[str, float] = {}
    stage_cpu: dict[str, float] = {}
    shard_results: list[dict | None] | None = None
    with tracer.span("driver.run_experiment", seed=config.seed,
                     scale=config.scale, shards=num_shards), \
            ExitStack() as cleanup:
        deployment, population = _build_stages(config, registry, tracer,
                                               stage_seconds)
        context = context_for(config, deployment)

        # a fan-out's workers start their own scanners; the coordinator
        # only publishes the RDNS entries its corpus resolver needs
        with _stage(tracer, "schedule_scanners", stage_seconds,
                    scanners=len(population)):
            for scanner in population:
                _register_rdns(deployment, scanner)
                if not fan_out:
                    scanner.start(context)

        if plan is not None:
            injector = faults if isinstance(faults, FaultInjector) \
                else FaultInjector(plan, seed=config.seed)
            with _stage(tracer, "install_faults", stage_seconds):
                # in a fan-out this arms the coordinator captures'
                # blackout windows for the coverage gaps, and the flaps
                # fire during the recording pass, baking the fault's BGP
                # activity into the recorded timeline
                injector.install(deployment)

        if not fan_out:
            if recorder is not None:
                recorder.attach(deployment.simulator, config.duration)
            try:
                with _stage(tracer, "simulate", stage_seconds,
                            horizon=config.duration):
                    deployment.simulator.run_until(config.duration)
            finally:
                if recorder is not None:
                    recorder.detach(deployment.simulator)
            # sessions only *resolved* during the run materialize now,
            # one cross-session kernel call per scanner
            with _stage(tracer, "flush_batches", stage_seconds):
                context.flush_batches()
        else:
            # recording pass: with no scanners scheduled, only the
            # infrastructure events run, so the BGP convergence flood is
            # simulated exactly once per campaign (DESIGN §8)
            with _stage(tracer, "record_timeline", stage_seconds):
                cpu_before = _time.process_time()
                deployment.simulator.run_until(config.duration)
                stage_cpu["record_timeline"] = \
                    _time.process_time() - cpu_before
                # ship announcements only: every feed subscriber a
                # worker can host (reactive scanners, the hitlist
                # service) returns at once on non-ANNOUNCE entries
                feed = tuple(e for e in deployment.collector.journal
                             if e.kind is UpdateKind.ANNOUNCE)
            # the LPT assignment and load table: the per-shard timeouts
            # scale with estimated load, and a quarantined shard's
            # coverage gaps are derived from the scanners assigned to it
            assign = sharding.weighted_assignment(
                population, num_shards, config.duration, len(feed))
            timeouts = sharding.derive_timeouts(
                sharding.shard_loads(population, assign, num_shards,
                                     config.duration, len(feed)),
                config.shard_timeout)
            if checkpoint_dir is not None:
                spill, completed, on_complete = _checkpoint_spill(
                    checkpoint_dir, config, plan, num_shards, resume,
                    after_checkpoint)
            else:
                spill = cleanup.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-shards-"))
                completed, on_complete = {}, None

            # the supervisor drains every worker's event spool on each
            # poll; the tailer passes the records on to whatever
            # observes this run
            event_log = obsevents.current()
            tailer = sharding.SpoolTailer(
                sharding.spool_dir(spill), num_shards,
                event_log=event_log, recorder=recorder)
            tasks = {shard: sharding.ShardTask(
                        config=config, plan=plan, shard=shard,
                        num_shards=num_shards, spill_dir=str(spill),
                        feed=feed,
                        run_id=(event_log.run_id
                                if event_log is not None else run_id))
                     for shard in range(num_shards)}
            with _stage(tracer, "shard_simulate", stage_seconds,
                        shards=num_shards):
                shard_results = sharding.ShardSupervisor(
                    tasks, attempts=config.shard_attempts,
                    timeouts=timeouts, on_failure=config.on_shard_failure,
                    tailer=tailer, completed=completed,
                    on_complete=on_complete).run()
            tailer.fold()
            live = [r for r in shard_results if r is not None]
            context.packets_emitted = sum(
                r["packets_emitted"] for r in live)
            context.packets_unrouted = sum(
                r["packets_unrouted"] for r in live)
        quarantined = tuple(shard for shard, res
                            in enumerate(shard_results or ()) if res is None)

        with _stage(tracer, "package_corpus", stage_seconds,
                    shards=num_shards):
            if shard_results is None:
                tables = {name: telescope.capture.table()
                          for name, telescope
                          in deployment.telescopes.items()}
            else:
                # window-at-a-time merge over the lazily opened spill
                # manifests, finished before the spill directory goes:
                # the coordinator never holds the concatenated corpus
                # AND a lexsorted copy of it at once
                tables = merge_chunked_shards(
                    sharding.open_shard_segments(shard_results))
            # coverage gaps: each capture's blackout windows, plus — for
            # every quarantined shard — the activity envelope of the
            # scanners whose traffic is missing (all telescopes)
            gaps = {name: list(telescope.capture.blackout_windows)
                    for name, telescope in deployment.telescopes.items()}
            for shard in quarantined:
                windows = sharding.quarantine_windows(
                    population, assign, shard, config.duration)
                for name in gaps:
                    gaps[name].extend(windows)
            corpus = _corpus(
                config, registry, deployment, tables,
                coverage_gaps={name: sharding.merge_windows(windows)
                               for name, windows in gaps.items()
                               if windows})

    result = ExperimentResult(
        corpus=corpus, deployment=deployment, population=population,
        context=context, wall_seconds=_time.monotonic() - started,
        stage_seconds=stage_seconds, stage_cpu_seconds=stage_cpu,
        shard_stats=None if shard_results is None else [
            res if res is not None else {"shard": shard,
                                         "quarantined": True}
            for shard, res in enumerate(shard_results)],
        quarantined_shards=quarantined)
    _record_run(result, config, run_id, ledger_dir, fault_plan=plan,
                shards=num_shards)
    return result


def _checkpoint_spill(checkpoint_dir: str | Path, config: ExperimentConfig,
                      plan: FaultPlan | None, num_shards: int, resume: bool,
                      after_checkpoint) \
        -> tuple[Path, dict[int, dict], Callable[[int, dict], None]]:
    """Ready ``checkpoint_dir`` for a fan-out spilling into it.

    Persists the setup snapshot and opens the shard manifest. Returns
    the spill root, the shard results a resumed run restores from the
    manifest, and the per-completion callback that records the manifest.
    """
    from repro.experiment import sharding
    root = Path(checkpoint_dir)
    spill_root = root / "shards"
    if not resume:
        # a fresh run never trusts leftover state in its directory: only
        # resume_experiment continues a previous run
        shutil.rmtree(spill_root, ignore_errors=True)
        (root / sharding.MANIFEST_NAME).unlink(missing_ok=True)
    spill_root.mkdir(parents=True, exist_ok=True)
    ckpt.write_state(root / sharding.SETUP_NAME, {
        "format_version": ckpt.FORMAT_VERSION,
        "config": config, "plan": plan, "num_shards": num_shards})
    manifest = sharding.ShardManifest.open(root, num_shards)
    completed: dict[int, dict] = {}
    if resume:
        completed = manifest.restorable(spill_root)
        _log.info("resuming sharded run: %d/%d shards restored from "
                  "manifest", len(completed), num_shards)
        # the manifest restores a shard, not its spool: every old spool
        # goes, so the resumed run forwards and folds only the records
        # of workers it runs itself. A shard that re-runs also loses the
        # crashed run's partial spill, result and stderr files.
        shutil.rmtree(sharding.spool_dir(spill_root), ignore_errors=True)
        for shard in range(num_shards):
            if shard in completed:
                continue
            shutil.rmtree(spill_root / f"shard{shard:03d}",
                          ignore_errors=True)
            for suffix in ("result.json", "stderr"):
                (spill_root / f"shard{shard:03d}.{suffix}").unlink(
                    missing_ok=True)

    def on_complete(shard: int, result: dict) -> None:
        path = manifest.record(shard, result)
        if after_checkpoint is not None:
            after_checkpoint(path)

    return spill_root, completed, on_complete


def _register_rdns(deployment: Deployment, scanner: Scanner) -> None:
    """Publish the scanner's PTR record if it advertises one."""
    if not scanner.rdns_name:
        return
    if scanner.source_model is not SourceModel.FIXED:
        return  # rotating sources have no stable reverse entry
    deployment.rdns_zone.add_ptr(scanner.source_address(), scanner.rdns_name)
