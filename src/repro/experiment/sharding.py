"""Sharded multi-process corpus builder (DESIGN §8).

Partitions the scanner population across worker processes and runs the
event loop per shard. Each worker owns:

- a **disjoint subset of scanners** — a deterministic cost-balanced
  LPT assignment (:func:`weighted_assignment`) every worker derives
  identically from its population replica; every scanner draws from its
  own named RNG stream (:meth:`repro.sim.rng.RngStreams.fresh`), so
  skipping the scanners of other shards does not perturb a single draw
  of the scanners kept;
- a **replica of the deployment** — rebuilt from ``(config.seed,
  config)`` with its own :class:`Simulator`. The routing data plane is
  driven by the static announcement schedule, so workers never run the
  BGP convergence flood: the coordinator simulates the fabric once (its
  replica with no scanners scheduled), records the collector journal,
  and ships it in the :class:`ShardTask` for the worker's collector to
  replay (:meth:`repro.bgp.collector.RouteCollector.arm_replay`) —
  reactive scanners and the hitlist see publication-identical feeds;
- its own **batched-emission pipeline** producing per-shard
  :class:`~repro.core.columnar.PacketTable` segments, spilled as
  store-layout v2 chunk files (:func:`repro.experiment.store.
  write_table_chunks` — time-sorted, sha256-while-writing, mmap-able)
  whose manifests travel back to the coordinator in the result dict.

The coordinator opens the spill manifests lazily
(:func:`open_shard_segments`) and merges them window-at-a-time with a
stable ``(time, scanner_id)`` lexsort per time window
(:func:`repro.experiment.corpus.merge_chunked_shards`), which
reproduces the unsharded table byte-for-byte for any shard count, any
partitioning, and any chunk size — without ever lexsorting the full
corpus in RAM — the differential tests in ``tests/test_sharding.py``
and ``tests/test_store_v2.py`` pin this with ``corpus_digest`` as the
oracle.

Every worker also writes one event spool, its only telemetry channel
(:func:`run_shard`). The supervisor's poll loop is its one reader: it
drains each spool through a :class:`SpoolTailer`, counts a newly
consumed record as the shard's progress, and passes the records on to
whatever observes the run (event log, registry, trace).

Workers are stateless: every task rebuilds its world from the picklable
:class:`ShardTask`, so a fresh worker process executes it correctly, and
a *retried* task re-executes byte-identically — the
:class:`ShardSupervisor` (DESIGN §11) leans on exactly that: it runs
one supervised process per shard, detects crashed or hung workers,
retries them with bounded attempts and exponential backoff, and either
raises a :class:`~repro.errors.ShardError` carrying the worker's
captured stderr or quarantines the shard as coverage gaps
(``on_shard_failure="degrade"``). Completed shards are recorded in a
crash-safe :class:`ShardManifest`, which is how a coordinator kill
resumes by re-running only the missing shards.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.obs import events as obsevents
from repro.obs.metrics import _parse_key
from repro.bgp.collector import CollectorEntry
from repro.core.columnar import ChunkedPacketTable
from repro.errors import ExperimentError, ShardError
from repro.experiment.config import ExperimentConfig
from repro.experiment.corpus import TELESCOPE_NAMES
from repro.experiment.driver import (context_for, deployment_for,
                                     population_for)
from repro.experiment.store import (CHUNK_COLUMNS, chunk_file,
                                    open_table_chunks, write_table_chunks)
from repro.faults import FaultInjector, FaultPlan
from repro.scanners.base import (ConstPackets, Scanner, TemporalKind,
                                 UniformPackets)
from repro.scanners.registry import ASRegistry
from repro.sim.events import Simulator
from repro.sim.rng import RngStreams

_log = obs.log.get_logger("sharding")
_obs_log = obs.log.get_logger("obs")


# -- partitioner -----------------------------------------------------------


def resolve_shards(spec: int | str) -> int:
    """Turn a ``--shards`` value (``N`` or ``"auto"``) into a count.

    ``auto`` uses one shard per CPU available to this process.
    """
    if isinstance(spec, str):
        if spec.strip().lower() == "auto":
            try:
                return max(1, len(os.sched_getaffinity(0)))
            except AttributeError:  # pragma: no cover - non-Linux
                return max(1, os.cpu_count() or 1)
        try:
            spec = int(spec)
        except ValueError:
            raise ExperimentError(
                f"invalid shard count {spec!r} (expected an integer "
                "or 'auto')") from None
    count = int(spec)
    if count < 1:
        raise ExperimentError(f"shard count must be >= 1, got {count}")
    return count


#: cost-model constants for :func:`scanner_weight` — packets-equivalent
#: fixed cost of firing and flushing one session, expected packets per
#: session when the sampler is opaque, the session multiplier for
#: scanners that split each firing into one session per announced
#: prefix, and the surcharge per *reaction* session (feed callback,
#: ad-hoc scheduling and a tiny batch of its own make a reaction
#: session dearer than a pre-scheduled one of the same size).
_SESSION_COST = 20.0
_DEFAULT_PACKETS = 8.0
_SPREAD_FACTOR = 6.0
_REACTION_EXTRA = 40.0


def scanner_weight(scanner: Scanner, duration: float,
                   announce_count: int = 0) -> float:
    """Deterministic static estimate of a scanner's simulate+flush cost.

    A pure function of the agent's construction parameters (temporal
    schedule, session-size sampler, activity window) plus the number of
    feed announcements a reactive scanner will see, so every worker
    computes the identical weight table without coordination. Duck-typed
    over the agent protocol: TGA agents carry ``period`` and
    ``probes_per_round`` instead of a :class:`TemporalBehavior`. The
    estimate only has to *rank* scanners well enough for load balancing;
    corpus bytes never depend on the partition (the canonical flush
    order and the merge lexsort are partition-agnostic).
    """
    active_start = getattr(scanner, "active_start", None)
    active_end = getattr(scanner, "active_end", None)
    start = 0.0 if active_start is None else max(0.0, active_start)
    end = duration if active_end is None else min(duration, active_end)
    span = max(0.0, end - start)
    temporal = getattr(scanner, "temporal", None)
    if temporal is None:
        # TGA-style agent: fixed probe rounds on a fixed period
        period = getattr(scanner, "period", 0.0)
        sessions = 1.0 + span / period if period > 0 else 1.0
        packets = float(getattr(scanner, "probes_per_round",
                                _DEFAULT_PACKETS))
        return sessions * (_SESSION_COST + packets)
    if temporal.kind is TemporalKind.ONE_OFF:
        sessions = 1.0 if span > 0 else 0.0
    elif temporal.kind is TemporalKind.PERIODIC:
        sessions = 1.0 + span / temporal.period if temporal.period > 0 else 1.0
    elif temporal.kind is TemporalKind.INTERMITTENT:
        sessions = 1.0 + span / temporal.mean_gap \
            if temporal.mean_gap > 0 else 1.0
    else:
        sessions = 0.0
    react_sessions = 0.0
    if getattr(scanner, "reaction_delay", None) is not None and duration > 0:
        # one extra session per feed announcement landing in the window
        react_sessions = announce_count * (span / duration)
    if getattr(scanner, "spread_prefix_sessions", False):
        sessions *= _SPREAD_FACTOR
    sampler = getattr(scanner, "packets_per_session", None)
    if isinstance(sampler, ConstPackets):
        packets = float(sampler.n)
    elif isinstance(sampler, UniformPackets):
        packets = (sampler.low + sampler.high) / 2.0
    else:
        packets = _DEFAULT_PACKETS
    return (sessions + react_sessions) * (_SESSION_COST + packets) \
        + react_sessions * _REACTION_EXTRA


def weighted_assignment(population: "Sequence[Scanner]", num_shards: int,
                        duration: float,
                        announce_count: int = 0) -> dict[int, int]:
    """LPT assignment of scanners to shards by estimated cost.

    Longest-processing-time greedy: place scanners in descending weight
    order onto the currently lightest shard. Ties break on ascending
    scanner ID (sort) and lowest shard index (``min``), making the
    assignment a pure function of ``(population, num_shards, duration,
    announce_count)`` — every worker derives the same table from its
    own population replica. The six heavy hitters own the majority of
    all packets, so cost-blind modulo placement regularly stacks two of
    them on one worker; LPT keeps the worst shard near the mean.
    """
    if num_shards < 1:
        raise ExperimentError(f"shard count must be >= 1, got {num_shards}")
    order = sorted(
        ((scanner_weight(s, duration, announce_count), s.scanner_id)
         for s in population),
        key=lambda pair: (-pair[0], pair[1]))
    loads = [0.0] * num_shards
    assign: dict[int, int] = {}
    for weight, scanner_id in order:
        shard = min(range(num_shards), key=loads.__getitem__)
        loads[shard] += weight
        assign[scanner_id] = shard
    return assign


def shard_loads(population: "Sequence[Scanner]", assign: Mapping[int, int],
                num_shards: int, duration: float,
                announce_count: int = 0) -> list[float]:
    """Estimated cost per shard under ``assign`` (the LPT load table).

    The supervisor derives each shard's wall-clock timeout from these:
    ``shard_timeout`` budgets the *heaviest* shard, lighter shards get
    a proportional share (floored at half, since fixed per-worker setup
    cost dominates tiny shards).
    """
    loads = [0.0] * num_shards
    for scanner in population:
        loads[assign[scanner.scanner_id]] += scanner_weight(
            scanner, duration, announce_count)
    return loads


def derive_timeouts(loads: Sequence[float],
                    shard_timeout: float | None) -> dict[int, float] | None:
    """Per-shard timeouts from the LPT load table (None = no timeouts)."""
    if shard_timeout is None:
        return None
    peak = max(loads) if loads else 0.0
    if peak <= 0:
        return {shard: shard_timeout for shard in range(len(loads))}
    return {shard: shard_timeout * max(0.5, load / peak)
            for shard, load in enumerate(loads)}


def merge_windows(windows: Iterable[tuple[float, float]]) \
        -> tuple[tuple[float, float], ...]:
    """Union of half-open time windows, merged and sorted.

    Coverage-gap seconds are summed window-by-window downstream
    (:meth:`~repro.experiment.corpus.PacketCorpus.gap_seconds`), so
    overlapping windows must be merged before they are stored.
    """
    merged: list[list[float]] = []
    for start, end in sorted(windows):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return tuple((start, end) for start, end in merged)


def quarantine_windows(population: "Sequence[Scanner]",
                       assign: Mapping[int, int], shard: int,
                       duration: float) -> tuple[tuple[float, float], ...]:
    """Coverage-gap windows of a quarantined shard's scanner traffic.

    The union of the shard's scanners' activity windows, clamped to the
    campaign: inside these windows the corpus is missing whatever those
    scanners would have sent (to every telescope — sources spray all
    prefixes), so analyses must treat the time as uncovered rather than
    as genuinely quiet.
    """
    windows = []
    for scanner in population:
        if assign.get(scanner.scanner_id) != shard:
            continue
        start = getattr(scanner, "active_start", None)
        end = getattr(scanner, "active_end", None)
        start = 0.0 if start is None else max(0.0, float(start))
        end = duration if end is None else min(duration, float(end))
        if end > start:
            windows.append((start, end))
    return merge_windows(windows)


# -- worker ----------------------------------------------------------------


def spool_dir(spill_dir: str | Path) -> Path:
    """Directory of the shard event spools of a fan-out spilling to
    ``spill_dir`` (one ``shardNNN.events.jsonl`` per shard)."""
    return Path(spill_dir) / "obs"


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to rebuild and run its shard.

    Deliberately limited to picklable, value-semantic fields so the task
    crosses any process boundary (fork or spawn) unchanged.
    """

    config: ExperimentConfig
    plan: FaultPlan | None
    shard: int
    num_shards: int
    spill_dir: str
    #: announcements of the recorded collector journal (the
    #: coordinator's recording pass) the worker replays instead of
    #: simulating the BGP flood itself — withdrawals are pruned because
    #: every subscriber a worker can host ignores them.
    feed: tuple[CollectorEntry, ...]
    #: the campaign's run id, stamped on every spooled event record and
    #: onto the worker's log lines (``<run_id>/s<shard>``).
    run_id: str | None = None
    #: 1-based execution attempt, stamped by the supervisor on retries.
    #: Purely observational plus the gate for per-attempt process
    #: faults — the simulation itself never reads it, which is what
    #: makes a retried shard byte-identical to a first-try run.
    attempt: int = 1


def run_shard(task: ShardTask) -> dict:
    """Worker entrypoint: build, simulate, flush, and spill one shard.

    Returns a plain dict (picklable) with the spill segment paths and
    their sha256 digests, emission totals, and per-stage wall and CPU
    seconds. CPU seconds are what the scaling accounting aggregates —
    on a machine with fewer cores than shards, wall time includes
    time-slicing that says nothing about the per-shard work.

    The worker's event spool (under :func:`spool_dir`) is its only
    telemetry channel, written on every run whatever the coordinator
    observes: ``shard.start``; a ``heartbeat`` and a ``metrics.delta``
    every :data:`~repro.obs.recorder.HEARTBEAT_INTERVAL` of sim time
    (its own :class:`~repro.obs.FlightRecorder` runs throughout); the
    last ``metrics.delta``; ``shard.end`` with the stage seconds and the
    final gauges and histograms; and one ``shard.trace`` holding the
    worker's Chrome span events, pid and tracer wall anchor. The
    supervisor drains the spool on every poll (:class:`SpoolTailer`),
    each new record counting as the shard's progress. The
    process-wide event log inherited from the coordinator (fork) is
    saved and restored, never written to from shard code.
    """
    stage_wall: dict[str, float] = {}
    stage_cpu: dict[str, float] = {}
    last = [time.perf_counter(), time.process_time()]

    def stage(name: str) -> None:
        now_wall, now_cpu = time.perf_counter(), time.process_time()
        stage_wall[name] = now_wall - last[0]
        stage_cpu[name] = now_cpu - last[1]
        last[0], last[1] = now_wall, now_cpu

    previous_log = obsevents.current()
    event_log = obsevents.EventLog(
        obsevents.spool_path(spool_dir(task.spill_dir), task.shard),
        run_id=task.run_id, shard=task.shard)
    obsevents.install(event_log)
    if task.run_id:
        obs.log.configure(run_id=f"{task.run_id}/s{task.shard}")
    try:
        with obs.FlightRecorder(
                heartbeat_interval=obs.HEARTBEAT_INTERVAL) as recorder:
            return _run_shard_body(task, recorder, stage, stage_wall,
                                   stage_cpu)
    finally:
        event_log.close()
        if previous_log is not None:
            obsevents.install(previous_log)
        else:
            obsevents.uninstall()


def _run_shard_body(task: ShardTask, recorder: obs.FlightRecorder, stage,
                    stage_wall: dict, stage_cpu: dict) -> dict:
    config = task.config
    obsevents.emit("shard.start", pid=os.getpid(),
                   shards=task.num_shards, attempt=task.attempt)
    with obs.span("shard.run", shard=task.shard, shards=task.num_shards):
        streams = RngStreams(config.seed)
        simulator = Simulator(shard=task.shard)
        deployment = deployment_for(config, streams, simulator=simulator,
                                    replay_feed=task.feed)
        # the population build is replayed in full — its shared
        # assignment stream must see the same draw sequence as the
        # unsharded build — and only then thinned to this shard
        population = population_for(config, deployment, ASRegistry(),
                                    streams)
        stage("build")

        context = context_for(config, deployment)
        assign = weighted_assignment(population, task.num_shards,
                                     config.duration, len(task.feed))
        mine = [s for s in population
                if assign[s.scanner_id] == task.shard]
        for scanner in mine:
            scanner.start(context)
        if task.plan is not None:
            # the flap's BGP side is already in the recorded feed; arm
            # only the data-plane faults
            injector = FaultInjector(task.plan, seed=config.seed)
            injector.install(deployment, control_plane=False)
            injector.arm_process_faults(
                simulator, shard=task.shard, duration=config.duration,
                attempt=task.attempt)
        stage("schedule")

        recorder.attach(simulator, config.duration)
        try:
            simulator.run_until(config.duration)
        finally:
            recorder.detach(simulator)
        stage("simulate")

        context.flush_batches()
        stage("flush_batches")

        segments: dict[str, dict] = {}
        for name, telescope in deployment.telescopes.items():
            table = telescope.capture.table()
            chunk_dir = Path(task.spill_dir) / \
                f"shard{task.shard:03d}" / name
            manifest = write_table_chunks(table, chunk_dir)
            segments[name] = {"dir": str(chunk_dir),
                              "manifest": manifest,
                              "rows": len(table)}
        stage("spill")
    # flush_batches and the spill moved counters after the detach; ship
    # the remainder so the deltas sum exactly to the final counters
    recorder.emit_metric_deltas()
    final = recorder.metrics.snapshot()
    obsevents.emit("shard.end", pid=os.getpid(), scanners=len(mine),
                   packets_emitted=context.packets_emitted,
                   stage_seconds=stage_wall, gauges=final["gauges"],
                   histograms=final["histograms"])
    obsevents.emit("shard.trace", pid=os.getpid(),
                   anchor_wall=recorder.tracer.anchor_wall(),
                   events=recorder.tracer.chrome_events())

    return {
        "shard": task.shard,
        "scanners": len(mine),
        "segments": segments,
        "packets_emitted": context.packets_emitted,
        "packets_unrouted": context.packets_unrouted,
        "stage_seconds": stage_wall,
        "stage_cpu_seconds": stage_cpu,
    }


def _arm_pdeathsig() -> None:
    """SIGKILL this worker when its parent dies (Linux only, best-effort).

    A SIGKILLed coordinator cannot reap its children; without this, an
    orphaned worker keeps spilling into a directory a resumed run is
    about to wipe and re-fill.
    """
    try:
        import ctypes
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
    except Exception:  # pragma: no cover - non-glibc platform
        pass


def _worker_main(runner: Callable[[ShardTask], dict], task: ShardTask,
                 result_path: str, stderr_path: str) -> None:
    """Supervised-process entrypoint around :func:`run_shard`.

    Redirects the process's stderr fd to a per-shard capture file (so a
    crash traceback survives the process and can be surfaced in
    :class:`~repro.errors.ShardError`), then writes the result dict as
    JSON — atomically, so the supervisor can trust any result file it
    finds. An uncaught exception propagates: the traceback lands in the
    capture file and the nonzero exitcode is the failure signal.
    """
    _arm_pdeathsig()
    fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 2)
    os.close(fd)
    # rebind the Python-level stream too: a harness (pytest capture) may
    # have pointed sys.stderr at a private fd, and the interpreter's own
    # fatal-exception traceback goes through sys.stderr, not fd 2
    sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
    result = runner(task)
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, result_path)


# -- coordinator -----------------------------------------------------------


#: Seconds between the supervisor's polls of its worker processes.
SUPERVISE_POLL_SECONDS = 0.05

#: Backoff before a shard's attempt ``k + 1``: ``RETRY_BASE_DELAY *
#: 2**(k - 1)`` seconds (:func:`retry_delay`).
RETRY_BASE_DELAY = 0.25

#: Each retry multiplies a shard's derived timeout by this factor: a
#: shard killed for stalling may simply have landed on a loaded machine.
RETRY_TIMEOUT_FACTOR = 2.0


def retry_delay(attempt: int) -> float:
    """Backoff before launching ``attempt + 1`` (1-based attempts)."""
    return RETRY_BASE_DELAY * (2.0 ** max(0, attempt - 1))


class SpoolTailer:
    """Read shard-worker event spools into the coordinator's telemetry.

    The :class:`ShardSupervisor` calls :meth:`drain` on every poll; it
    reads each spool's new complete lines
    (:func:`repro.obs.events.iter_complete_lines` — half-written records
    are never parsed), then for every new record:

    - forwards it into the coordinator's unified :class:`EventLog`
      (preserving the worker's timestamps and ``shard`` field), which
      also fans it out to listeners — that is how the live
      :class:`~repro.obs.server.StatusBoard` sees per-shard progress
      while workers are still running. ``shard.trace`` records are the
      one exception: they carry a worker's span tree, which belongs in
      the trace, not the log;
    - folds ``metrics.delta`` counter increments into the live registry
      of the coordinator's ``recorder`` under a ``shard=<i>`` label, so
      ``/metrics`` moves during the simulate stage instead of jumping
      at merge time;
    - logs each ``heartbeat`` on the ``repro.obs`` logger, naming the
      shard, when that recorder beats itself (``-v`` or
      ``--serve-obs``);
    - keeps each shard's latest ``shard.end`` and ``shard.trace``, which
      :meth:`fold` merges into the recorder at the end.

    Without an event log or a recorder the records are still read (and
    ``shard.end``/``shard.trace`` kept): the supervisor needs them as
    progress either way. Counters folded live are exactly the worker's
    final counters (workers emit a last delta before ``shard.end``).

    The supervisor calls :meth:`reset_shard` before re-executing a
    failed shard: the spool of the dead attempt is discarded, its
    tail offset rewinds, its kept records go, and every counter the
    tailer folded for that shard is zeroed (a Prometheus-style counter
    reset on worker restart), so the retry's deltas fold from a clean
    slate and the final figures match an unfaulted run.
    """

    def __init__(self, spool_dir: str | Path, num_shards: int,
                 event_log: "obsevents.EventLog | None" = None,
                 recorder: "obs.FlightRecorder | None" = None) -> None:
        self.spool_dir = Path(spool_dir)
        self.num_shards = num_shards
        self.event_log = event_log
        self.recorder = recorder
        #: per-shard byte offset just past the last record consumed.
        self._offsets: dict[int, int] = {}
        #: per-shard counter keys folded so far (undone on reset_shard).
        self._folded_keys: dict[int, set[str]] = {}
        #: each shard's latest ``shard.end`` and ``shard.trace`` record.
        self.ends: dict[int, dict] = {}
        self.traces: dict[int, dict] = {}

    def drain(self, shard: int | None = None) -> int:
        """Consume the new complete records of ``shard`` (of every shard
        when None); returns how many."""
        if shard is None:
            return sum(self.drain(s) for s in range(self.num_shards))
        lines, self._offsets[shard] = obsevents.iter_complete_lines(
            obsevents.spool_path(self.spool_dir, shard),
            self._offsets.get(shard, 0))
        consumed = 0
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                consumed += 1
                self._consume(shard, record)
        return consumed

    def reset_shard(self, shard: int) -> None:
        """Discard everything tailed from ``shard`` ahead of a retry."""
        obsevents.spool_path(self.spool_dir, shard).unlink(missing_ok=True)
        self._offsets.pop(shard, None)
        for key in self._folded_keys.pop(shard, set()):
            name, labels = _parse_key(key)
            labels["shard"] = str(shard)
            self.recorder.metrics.counter(name, **labels).reset()
        self.ends.pop(shard, None)
        self.traces.pop(shard, None)

    def _consume(self, shard: int, record: dict) -> None:
        kind = record.get("kind")
        if kind == "shard.trace":
            self.traces[shard] = record
            return
        if kind == "shard.end":
            self.ends[shard] = record
        elif kind == "metrics.delta" and self.recorder is not None:
            for key, moved in (record.get("counters") or {}).items():
                name, labels = _parse_key(key)
                labels["shard"] = str(shard)
                try:
                    self.recorder.metrics.counter(name, **labels).inc(
                        float(moved))
                except (TypeError, ValueError):
                    continue
                self._folded_keys.setdefault(shard, set()).add(key)
        elif kind == "heartbeat" and self.recorder is not None \
                and self.recorder.heartbeat_interval:
            _obs_log.info("shard %d %s", shard, obs.heartbeat_line(record))
        if self.event_log is not None:
            self.event_log.forward(record)

    def fold(self) -> None:
        """Merge the kept ``shard.end`` and ``shard.trace`` records into
        the recorder (after the fan-out; a no-op without one).

        Each shard's stage seconds become ``shard.stage_seconds`` gauges
        and its final gauges and histograms merge in, all under
        ``shard=<i>`` (its counters already arrived live). Each trace is
        shifted onto the coordinator's timeline by the difference of the
        two tracers' wall anchors — a span that ran at wall time T
        renders at the same instant in every process track — under a
        ``shard <i>`` process track.
        """
        recorder = self.recorder
        if recorder is None:
            return
        metrics = recorder.metrics
        for shard, end in sorted(self.ends.items()):
            metrics.merge_snapshot(
                {"gauges": end.get("gauges") or {},
                 "histograms": end.get("histograms") or {}}, shard=shard)
            for stage, seconds in (end.get("stage_seconds") or {}).items():
                metrics.gauge("shard.stage_seconds", stage=stage,
                              shard=shard).set(seconds)
        anchor = recorder.tracer.anchor_wall()
        for shard, trace in sorted(self.traces.items()):
            shift_us = (float(trace["anchor_wall"]) - anchor) * 1e6
            recorder.add_foreign_events(
                [dict(ev, ts=ev.get("ts", 0.0) + shift_us)
                 for ev in trace.get("events") or ()],
                pid=trace.get("pid"), name=f"shard {shard}")


# -- supervision -----------------------------------------------------------


#: File name of the completed-shards manifest inside a checkpoint dir.
MANIFEST_NAME = "shards.json"

#: File name of the setup snapshot inside a checkpoint dir: the pickled
#: ``(config, plan, num_shards)`` a resumed coordinator needs to
#: re-derive the run deterministically (checkpoint file format — magic +
#: sha256 + pickle, see :mod:`repro.experiment.checkpoint`).
SETUP_NAME = "shards.setup.rpck"


class ShardManifest:
    """Crash-safe record of a sharded run's completed shards.

    One JSON file (``shards.json``) in the spill root, rewritten
    atomically (tmp + fsync + rename) after every shard completion, so
    it is never observed torn. After a coordinator crash,
    :meth:`restorable` returns the completed shard results whose spill
    segments are still intact on disk — those shards are skipped by the
    resumed run; everything else re-executes.

    Format::

        {"format_version": 1, "num_shards": N,
         "completed": {"<shard>": <run_shard result dict>, ...}}
    """

    FORMAT_VERSION = 1

    def __init__(self, path: str | Path, num_shards: int,
                 completed: dict[int, dict] | None = None) -> None:
        self.path = Path(path)
        self.num_shards = num_shards
        self.completed: dict[int, dict] = dict(completed or {})

    @classmethod
    def open(cls, directory: str | Path, num_shards: int) -> "ShardManifest":
        """Load the manifest of ``directory``, or start a fresh one.

        A manifest that does not parse, has the wrong format version, or
        was written for a different shard count is ignored (with a
        warning): the shards it recorded are not trusted and the run
        starts from zero completed — always safe, merely slower.
        """
        path = Path(directory) / MANIFEST_NAME
        if path.exists():
            try:
                raw = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                raw = None
            if isinstance(raw, dict) \
                    and raw.get("format_version") == cls.FORMAT_VERSION \
                    and raw.get("num_shards") == num_shards \
                    and isinstance(raw.get("completed"), dict):
                return cls(path, num_shards,
                           {int(k): v for k, v in raw["completed"].items()})
            _log.warning("ignoring unusable shard manifest %s", path)
        return cls(path, num_shards)

    def record(self, shard: int, result: dict) -> Path:
        """Durably mark ``shard`` completed with its worker result."""
        self.completed[shard] = result
        payload = json.dumps({
            "format_version": self.FORMAT_VERSION,
            "num_shards": self.num_shards,
            "completed": {str(k): v
                          for k, v in sorted(self.completed.items())},
        }, indent=1)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        obs.event("shard.manifest", shard=shard,
                  completed=len(self.completed))
        return self.path

    def restorable(self, spill_root: str | Path) -> dict[int, dict]:
        """Completed results whose spill chunks still exist, re-anchored.

        Segment directories are re-derived from ``spill_root`` (the
        canonical ``<root>/shardNNN/<telescope>`` layout) rather than
        trusted from the stored absolute paths, so a moved checkpoint
        directory restores correctly. A shard missing any column file of
        any chunk is dropped — it simply re-runs.
        """
        spill_root = Path(spill_root)
        good: dict[int, dict] = {}
        for shard, result in sorted(self.completed.items()):
            segments: dict[str, dict] = {}
            intact = True
            for name, info in (result.get("segments") or {}).items():
                chunk_dir = spill_root / f"shard{shard:03d}" / name
                manifest = info.get("manifest") or []
                if not all(
                        chunk_file(chunk_dir, c["name"], column).exists()
                        for c in manifest for column in CHUNK_COLUMNS):
                    intact = False
                    break
                segments[name] = dict(info, dir=str(chunk_dir))
            if intact and set(segments) == set(TELESCOPE_NAMES):
                good[shard] = dict(result, segments=segments,
                                   restored=True)
            else:
                _log.warning(
                    "shard %d recorded complete but its spill segments "
                    "are gone or partial; it will re-run", shard)
        return good


def _stderr_tail(path: Path, limit: int = 2048) -> str:
    """The last ``limit`` bytes of a worker's captured stderr."""
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - limit))
            return fh.read().decode("utf-8", errors="replace").strip()
    except OSError:
        return ""


@dataclass
class _ShardState:
    """Supervisor-side lifecycle of one shard."""

    task: ShardTask
    attempt: int = 0  # attempts started so far
    process: "multiprocessing.process.BaseProcess | None" = None
    started_at: float = 0.0
    last_progress: float = 0.0
    not_before: float = 0.0  # monotonic instant the next attempt may start
    done: bool = False
    quarantined: bool = False
    restored: bool = False
    result: dict | None = None
    last_cause: str = ""
    stderr_tail: str = ""


class ShardSupervisor:
    """Run shard tasks under failure detection, bounded retry, and
    graceful degradation (DESIGN §11).

    Every pending shard runs at once, in its own supervised
    ``multiprocessing.Process``. Each poll drains every running shard's
    event spool through ``tailer`` (a bare :class:`SpoolTailer` over
    the tasks' spill dir when none is given), then checks for exits (a
    missing result file or nonzero exitcode is a failure, with the
    worker's captured stderr tail as the diagnosis) and enforces
    per-shard wall-clock timeouts derived from the LPT cost model — a
    shard that spools no new record for its budget is declared hung and
    SIGKILLed. Workers arm ``PR_SET_PDEATHSIG`` so a SIGKILLed
    coordinator cannot leak orphans into a spill directory a resumed
    run will reuse.

    A failed shard runs up to ``attempts`` times in all, after
    exponential backoff (:func:`retry_delay`), its spill and telemetry
    remnants wiped first so the re-execution is byte-identical to a
    first try. A shard that
    exhausts its budget raises :class:`~repro.errors.ShardError`
    (strict) or is quarantined (``on_failure="degrade"``) for the driver
    to turn into coverage gaps. Progress is narrated as ``shard.retry``
    / ``shard.timeout`` / ``shard.quarantined`` / ``shard.skipped``
    events and ``sharding.*_total`` counters.
    """

    def __init__(self, tasks: Mapping[int, ShardTask], *,
                 attempts: int = 3,
                 timeouts: Mapping[int, float] | None = None,
                 on_failure: str = "raise",
                 tailer: SpoolTailer | None = None,
                 completed: Mapping[int, dict] | None = None,
                 on_complete: "Callable[[int, dict], None] | None" = None,
                 runner: "Callable[[ShardTask], dict]" = run_shard) -> None:
        self.attempts = attempts
        self.timeouts = dict(timeouts) if timeouts is not None else None
        self.on_failure = on_failure
        self.on_complete = on_complete
        self.runner = runner
        self.retries = 0
        self.quarantined: list[int] = []
        self._states = {shard: _ShardState(task=task)
                        for shard, task in sorted(tasks.items())}
        for shard, result in (completed or {}).items():
            state = self._states.get(shard)
            if state is None:
                continue
            state.done = True
            state.restored = True
            state.result = dict(result, restored=True)
        spills = {Path(t.spill_dir) for t in tasks.values()}
        if len(spills) != 1:
            raise ExperimentError(
                f"supervised shard tasks must share one spill dir, "
                f"got {sorted(map(str, spills))}")
        self.spill_dir = spills.pop()
        self.tailer = tailer if tailer is not None else SpoolTailer(
            spool_dir(self.spill_dir), len(tasks))

    # -- shared bookkeeping ------------------------------------------------

    def run(self) -> list[dict | None]:
        """Execute every shard; results in shard order (None =
        quarantined)."""
        for shard, state in self._states.items():
            if state.restored:
                _log.info("shard %d restored from manifest, skipping",
                          shard)
                obsevents.emit("shard.skipped", shard=shard)
        pending = [s for s in self._states.values() if not s.done]
        if pending:
            self._run_processes(pending)
        return [state.result
                for _, state in sorted(self._states.items())]

    def _result_path(self, shard: int) -> Path:
        return self.spill_dir / f"shard{shard:03d}.result.json"

    def _stderr_path(self, shard: int) -> Path:
        return self.spill_dir / f"shard{shard:03d}.stderr"

    def _shard_timeout(self, state: _ShardState) -> float | None:
        if self.timeouts is None:
            return None
        base = self.timeouts.get(state.task.shard)
        if base is None:
            return None
        return base * RETRY_TIMEOUT_FACTOR ** (state.attempt - 1)

    def _cleanup_attempt(self, state: _ShardState) -> None:
        """Wipe every remnant of a failed attempt before re-executing."""
        shard = state.task.shard
        shutil.rmtree(self.spill_dir / f"shard{shard:03d}",
                      ignore_errors=True)
        self._result_path(shard).unlink(missing_ok=True)
        self.tailer.reset_shard(shard)

    def _succeed(self, state: _ShardState, result: dict) -> None:
        result = dict(result, attempts=state.attempt)
        state.result = result
        state.done = True
        if self.on_complete is not None:
            self.on_complete(state.task.shard, result)

    def _fail(self, state: _ShardState, cause: str,
              stderr_tail: str = "") -> None:
        """One attempt failed: schedule a retry or exhaust the budget."""
        shard = state.task.shard
        state.last_cause = cause
        state.stderr_tail = stderr_tail or state.stderr_tail
        if state.attempt >= self.attempts:
            self._exhaust(state)
            return
        delay = retry_delay(state.attempt)
        self.retries += 1
        obs.add("sharding.retries_total")
        obsevents.emit("shard.retry", shard=shard, attempt=state.attempt,
                       cause=cause, delay=round(delay, 3))
        _log.warning(
            "shard %d attempt %d failed (%s); retrying in %.2fs%s",
            shard, state.attempt, cause, delay,
            f"\n  worker stderr tail:\n{state.stderr_tail}"
            if state.stderr_tail else "")
        self._cleanup_attempt(state)
        state.not_before = time.monotonic() + delay

    def _exhaust(self, state: _ShardState) -> None:
        shard = state.task.shard
        if self.on_failure == "degrade":
            state.quarantined = True
            state.done = True
            state.result = None
            self.quarantined.append(shard)
            obs.add("sharding.quarantined_total")
            obsevents.emit("shard.quarantined", shard=shard,
                           attempts=state.attempt, cause=state.last_cause)
            _log.error(
                "shard %d quarantined after %d attempts (%s): its "
                "scanners' traffic becomes coverage gaps",
                shard, state.attempt, state.last_cause)
            return
        self._kill_all()
        message = (f"shard {shard} failed terminally after "
                   f"{state.attempt} attempt(s): {state.last_cause}")
        if state.stderr_tail:
            message += f"\nworker stderr tail:\n{state.stderr_tail}"
        raise ShardError(message, shard=shard, attempt=state.attempt,
                         cause=state.last_cause,
                         stderr_tail=state.stderr_tail)

    def _kill_all(self) -> None:
        for state in self._states.values():
            proc = state.process
            if proc is not None and proc.is_alive():
                proc.kill()
                proc.join()
            state.process = None

    # -- process backend ---------------------------------------------------

    def _launch(self, state: _ShardState) -> None:
        shard = state.task.shard
        state.attempt += 1
        task = replace(state.task, attempt=state.attempt)
        result_path = self._result_path(shard)
        stderr_path = self._stderr_path(shard)
        for path in (result_path, stderr_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        proc = ctx.Process(
            target=_worker_main,
            args=(self.runner, task, str(result_path), str(stderr_path)),
            name=f"repro-shard-{shard}", daemon=True)
        proc.start()
        now = time.monotonic()
        state.process = proc
        state.started_at = now
        state.last_progress = now
        _log.debug("shard %d attempt %d launched (pid %d)",
                   shard, state.attempt, proc.pid)

    def _poll(self, state: _ShardState, now: float) -> bool:
        """Drain the shard's spool, then reap or time out its worker;
        True when the worker is gone."""
        # read the exit status before draining: every record an exited
        # worker wrote is then on disk and consumed before the reap
        exited = state.process.exitcode is not None
        if self.tailer.drain(state.task.shard):
            state.last_progress = now
        if exited:
            self._reap(state)
            return True
        timeout = self._shard_timeout(state)
        if timeout is not None and now - state.last_progress > timeout:
            self._timeout(state, timeout)
            return True
        return False

    def _reap(self, state: _ShardState) -> None:
        """A worker process exited: classify success or failure."""
        proc = state.process
        proc.join()
        state.process = None
        exitcode = proc.exitcode
        result_path = self._result_path(state.task.shard)
        if result_path.exists():
            try:
                self._succeed(state,
                              json.loads(result_path.read_text()))
                return
            except (OSError, json.JSONDecodeError):
                cause = "unreadable result file"
        elif exitcode == 0:
            cause = "exited 0 without a result"
        else:
            cause = f"exitcode {exitcode}"
        self._fail(state, cause,
                   _stderr_tail(self._stderr_path(state.task.shard)))

    def _run_processes(self, pending: list[_ShardState]) -> None:
        try:
            while True:
                now = time.monotonic()
                active = [s for s in pending if not s.done]
                if not active:
                    return
                for state in active:
                    if state.process is None and state.not_before <= now:
                        self._launch(state)
                moved = False
                for state in active:
                    if state.process is not None and self._poll(state, now):
                        moved = True
                if not moved:
                    time.sleep(SUPERVISE_POLL_SECONDS)
        except BaseException:
            self._kill_all()
            raise

    def _timeout(self, state: _ShardState, timeout: float) -> None:
        shard = state.task.shard
        obs.add("sharding.timeouts_total")
        obsevents.emit("shard.timeout", shard=shard,
                       attempt=state.attempt,
                       timeout=round(timeout, 3))
        _log.warning("shard %d attempt %d exceeded its %.1fs budget "
                     "without progress; killing worker pid %d",
                     shard, state.attempt, timeout, state.process.pid)
        state.process.kill()
        state.process.join()
        state.process = None
        self._fail(state, "timeout")


def open_shard_segments(results: Sequence[dict]) \
        -> dict[str, list[ChunkedPacketTable]]:
    """Lazy verified view of every worker spill segment, in shard order.

    Returns each segment as a
    :class:`~repro.core.columnar.ChunkedPacketTable` over the worker's
    spill manifest: nothing is read here, and each chunk's sha256 is
    checked on first touch (strict — a chunk truncated or corrupted
    between spill and merge raises :class:`repro.errors.StoreError`
    instead of silently merging garbage). The window merge then maps
    only the chunks of the window it is currently merging.
    """
    segments: dict[str, list[ChunkedPacketTable]] = {
        name: [] for name in TELESCOPE_NAMES}
    for res in sorted((r for r in results if r is not None),
                      key=lambda r: r["shard"]):
        for name in TELESCOPE_NAMES:
            info = res["segments"][name]
            segments[name].append(open_table_chunks(
                Path(info["dir"]), info["manifest"], telescope=name,
                strict=True))
    return segments
