"""Tests for the sharded multi-process corpus builder (DESIGN §8).

The differential tests use ``corpus_digest`` as the oracle: a sharded
build must be byte-identical to the in-process one for any shard count,
including under an active fault plan (blackout + flap + delivery loss).
"""

import os

import pytest

from repro import obs
from repro.errors import ExperimentError
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment import sharding
from repro.experiment.driver import STAGES, resume_experiment
from repro.experiment.sharding import (resolve_shards, scanner_weight,
                                       weighted_assignment)
from repro.scanners.base import (ConstPackets, TemporalBehavior,
                                 TemporalKind, UniformPackets)
from repro.experiment.store import corpus_digest
from repro.faults import BgpFlap, BlackoutWindow, FaultPlan


class TestPartitioner:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 7, 16])
    @pytest.mark.parametrize("population", [0, 1, 5, 97])
    def test_every_scanner_in_exactly_one_shard(self, num_shards,
                                                population):
        # realistic ID blocks: ordinary scanners from 1, the atlas fleet
        # from 1_000_000, heavy hitters from 2_000_000
        ids = (list(range(1, population + 1))
               + list(range(1_000_000, 1_000_000 + population))
               + list(range(2_000_000, 2_000_000 + population)))
        agents = [_Agent(i, temporal=TemporalBehavior(TemporalKind.ONE_OFF))
                  for i in ids]
        assign = weighted_assignment(agents, num_shards, 1000.0)
        assert sorted(assign) == sorted(ids)    # exhaustive, one each
        sizes = [list(assign.values()).count(shard)
                 for shard in range(num_shards)]
        assert sum(sizes) == len(ids)           # every shard in range
        # equal weights deal round-robin: no shard sits idle while
        # another holds two scanners
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_shards(0)
        with pytest.raises(ExperimentError):
            resolve_shards("three")

    def test_resolve_shards(self):
        assert resolve_shards("auto") >= 1
        assert resolve_shards("3") == 3
        assert resolve_shards(5) == 5


class _Agent:
    """Minimal stand-in for the duck-typed agent protocol."""

    def __init__(self, scanner_id, **fields):
        self.scanner_id = scanner_id
        for name, value in fields.items():
            setattr(self, name, value)


class TestCostModel:
    DURATION = 1000.0

    def test_tga_branch_uses_period_and_probes(self):
        # no ``temporal`` attribute -> TGA branch: 1 + span/period rounds
        agent = _Agent(1, period=100.0, probes_per_round=30)
        sessions = 1.0 + self.DURATION / 100.0
        assert scanner_weight(agent, self.DURATION) == pytest.approx(
            sessions * (sharding._SESSION_COST + 30.0))

    def test_periodic_const_packets(self):
        agent = _Agent(1, temporal=TemporalBehavior(
            TemporalKind.PERIODIC, period=250.0),
            packets_per_session=ConstPackets(5))
        sessions = 1.0 + self.DURATION / 250.0
        assert scanner_weight(agent, self.DURATION) == pytest.approx(
            sessions * (sharding._SESSION_COST + 5.0))

    def test_uniform_packets_uses_mean(self):
        low = _Agent(1, temporal=TemporalBehavior(TemporalKind.ONE_OFF),
                     packets_per_session=UniformPackets(2, 4))
        high = _Agent(1, temporal=TemporalBehavior(TemporalKind.ONE_OFF),
                      packets_per_session=UniformPackets(200, 400))
        assert scanner_weight(high, self.DURATION) \
            > scanner_weight(low, self.DURATION)
        assert scanner_weight(low, self.DURATION) == pytest.approx(
            sharding._SESSION_COST + 3.0)

    def test_reactive_weight_scales_with_announcements(self):
        agent = _Agent(1, temporal=TemporalBehavior(TemporalKind.REACTIVE),
                       reaction_delay=60.0)
        assert scanner_weight(agent, self.DURATION, announce_count=0) == 0.0
        few = scanner_weight(agent, self.DURATION, announce_count=10)
        many = scanner_weight(agent, self.DURATION, announce_count=100)
        assert many == pytest.approx(10 * few)
        assert few > 0

    def test_activity_window_caps_sessions(self):
        full = _Agent(1, temporal=TemporalBehavior(
            TemporalKind.PERIODIC, period=100.0))
        half = _Agent(1, temporal=TemporalBehavior(
            TemporalKind.PERIODIC, period=100.0),
            active_start=0.0, active_end=self.DURATION / 2)
        assert scanner_weight(half, self.DURATION) \
            < scanner_weight(full, self.DURATION)

    def test_spread_sessions_multiplier(self):
        plain = _Agent(1, temporal=TemporalBehavior(
            TemporalKind.PERIODIC, period=100.0))
        spread = _Agent(1, temporal=TemporalBehavior(
            TemporalKind.PERIODIC, period=100.0),
            spread_prefix_sessions=True)
        assert scanner_weight(spread, self.DURATION) == pytest.approx(
            sharding._SPREAD_FACTOR * scanner_weight(plain, self.DURATION))


class TestWeightedAssignment:
    DURATION = 1000.0

    def _population(self):
        # two heavy hitters on the same modulo-2 residue plus light noise
        heavy = [_Agent(i, temporal=TemporalBehavior(
            TemporalKind.PERIODIC, period=1.0),
            packets_per_session=ConstPackets(500)) for i in (2, 4)]
        light = [_Agent(i, temporal=TemporalBehavior(TemporalKind.ONE_OFF))
                 for i in range(5, 25)]
        return heavy + light

    def test_disjoint_exhaustive_and_in_range(self):
        population = self._population()
        assign = weighted_assignment(population, 3, self.DURATION)
        assert sorted(assign) == sorted(a.scanner_id for a in population)
        assert set(assign.values()) <= set(range(3))

    def test_deterministic_across_orderings(self):
        population = self._population()
        forward = weighted_assignment(population, 4, self.DURATION)
        reordered = weighted_assignment(population[::-1], 4, self.DURATION)
        assert forward == reordered

    def test_heavy_hitters_split_where_modulo_stacks_them(self):
        population = self._population()
        # modulo-2 puts both heavy hitters (ids 2 and 4) on shard 0 ...
        assert 2 % 2 == 4 % 2 == 0
        # ... LPT places them on different shards
        assign = weighted_assignment(population, 2, self.DURATION)
        assert assign[2] != assign[4]

    def test_lpt_balances_loads(self):
        population = self._population()
        weights = {a.scanner_id: scanner_weight(a, self.DURATION)
                   for a in population}
        assign = weighted_assignment(population, 2, self.DURATION)
        loads = [0.0, 0.0]
        for scanner_id, shard in assign.items():
            loads[shard] += weights[scanner_id]
        heaviest = max(weights.values())
        # classic LPT bound: the two shard loads differ by at most the
        # largest single weight
        assert abs(loads[0] - loads[1]) <= heaviest

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ExperimentError):
            weighted_assignment(self._population(), 0, self.DURATION)


class TestDigestParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_sharded_build_is_byte_identical(self, tiny_result, num_shards):
        result = run_experiment(ExperimentConfig.tiny(), shards=num_shards)
        assert corpus_digest(result.corpus) \
            == corpus_digest(tiny_result.corpus)
        assert result.corpus.total_packets() \
            == tiny_result.corpus.total_packets()
        # coordinator folds worker emission totals
        assert result.context.packets_emitted \
            == tiny_result.context.packets_emitted
        assert result.context.packets_unrouted \
            == tiny_result.context.packets_unrouted
        if num_shards == 1:
            # one shard simulates in-process: no record pass, no worker
            assert tuple(result.stage_seconds) == STAGES
            assert result.shard_stats is None
            assert not result.stage_cpu_seconds
            return
        # stage accounting: one shard_simulate stage, per-worker stats
        assert "shard_simulate" in result.stage_seconds
        assert "simulate" not in result.stage_seconds
        assert len(result.shard_stats) == num_shards
        assert sum(s["scanners"] for s in result.shard_stats) \
            == len(result.population)
        for stats in result.shard_stats:
            assert {"simulate", "flush_batches"} \
                <= set(stats["stage_seconds"])
            assert {"simulate", "flush_batches"} \
                <= set(stats["stage_cpu_seconds"])

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_faulted_sharded_build_is_byte_identical(self, tiny_result,
                                                     num_shards, tmp_path):
        config = ExperimentConfig.tiny()
        plan = FaultPlan(
            blackouts=(BlackoutWindow("T1", config.duration * 0.2,
                                      config.duration * 0.35),),
            flaps=(BgpFlap(config.duration * 0.5, config.duration * 0.52),),
            loss_rate=0.01)
        base = run_experiment(ExperimentConfig.tiny(), faults=plan)
        # one shard fans out only with a checkpoint
        shd = run_experiment(
            ExperimentConfig.tiny(), faults=plan, shards=num_shards,
            checkpoint_dir=tmp_path if num_shards == 1 else None)
        assert len(shd.shard_stats) == num_shards
        assert corpus_digest(shd.corpus) == corpus_digest(base.corpus)
        assert shd.corpus.coverage_gaps == base.corpus.coverage_gaps
        # faults really bit: fewer packets than the clean tiny corpus
        assert shd.corpus.total_packets() \
            < tiny_result.corpus.total_packets()

    @pytest.mark.parametrize("shards", [None, 2])
    def test_overlapping_blackouts_merge_into_one_gap(self, shards):
        """Gap seconds are summed window by window, so every build path
        stores overlapping blackouts merged."""
        config = ExperimentConfig.tiny()
        d = config.duration
        plan = FaultPlan(blackouts=(BlackoutWindow("T1", 0.2 * d, 0.35 * d),
                                    BlackoutWindow("T1", 0.3 * d, 0.4 * d)))
        corpus = run_experiment(config, faults=plan, shards=shards).corpus
        assert corpus.coverage_gaps["T1"] == ((0.2 * d, 0.4 * d),)
        assert corpus.covered_fraction("T1") == pytest.approx(0.8)

    def test_worker_metrics_fold_into_coordinator(self):
        with obs.FlightRecorder() as recorder:
            run_experiment(ExperimentConfig.tiny(), shards=2)
        snapshot = recorder.metrics.snapshot()
        sharded_counters = [key for key in snapshot["counters"]
                            if "shard=" in key]
        assert sharded_counters, "no worker counters were folded"
        gauges = snapshot["gauges"]
        for shard in (0, 1):
            assert f"shard.stage_seconds{{shard={shard},stage=simulate}}" \
                in gauges


class TestDistributedTelemetry:
    """Cross-process trace/metric/event unification (DESIGN §10)."""

    NUM_SHARDS = 4

    @pytest.fixture()
    def telemetry_run(self, tmp_path):
        from repro.obs import events as obsevents
        with obs.FlightRecorder() as recorder, \
                obsevents.EventLog(tmp_path / "events.jsonl",
                                   run_id="telemetry") as log:
            run_experiment(ExperimentConfig.tiny(), shards=self.NUM_SHARDS)
        return recorder, log

    def test_merged_trace_labels_every_shard(self, telemetry_run):
        recorder, _ = telemetry_run
        trace = recorder.chrome_trace()
        names = {event["args"]["name"]: event["pid"]
                 for event in trace["traceEvents"]
                 if event.get("ph") == "M"
                 and event.get("name") == "process_name"}
        expected = {"coordinator"} | {f"shard {i}"
                                      for i in range(self.NUM_SHARDS)}
        assert expected <= set(names)
        # every labeled pid is distinct and has real spans under it
        assert len(set(names.values())) == len(names)
        spans_by_pid = {event["pid"] for event in trace["traceEvents"]
                        if event.get("ph") == "X"}
        for label in expected:
            assert names[label] in spans_by_pid, f"no spans for {label}"

    def test_worker_spans_land_on_coordinator_timeline(self, telemetry_run):
        recorder, _ = telemetry_run
        trace = recorder.chrome_trace()
        coordinator_pid = next(
            event["pid"] for event in trace["traceEvents"]
            if event.get("ph") == "M"
            and event["args"]["name"] == "coordinator")
        coord = [e for e in trace["traceEvents"]
                 if e.get("ph") == "X" and e["pid"] == coordinator_pid]
        workers = [e for e in trace["traceEvents"]
                   if e.get("ph") == "X" and e["pid"] != coordinator_pid]
        assert workers
        # anchor-shifted worker spans sit inside the coordinator's
        # traced window, not at their local epoch near ts=0
        coord_end = max(e["ts"] + e.get("dur", 0) for e in coord)
        assert min(e["ts"] for e in workers) > min(e["ts"] for e in coord)
        assert max(e["ts"] + e.get("dur", 0) for e in workers) \
            <= coord_end + 1e6  # ≤1s clock skew between processes

    def test_event_log_records_shard_lifecycle(self, telemetry_run):
        from repro.obs import events as obsevents
        _, log = telemetry_run
        events = obsevents.read_events(log.path)
        kinds = [e["kind"] for e in events]
        assert kinds.count("shard.start") == self.NUM_SHARDS
        assert kinds.count("shard.end") == self.NUM_SHARDS
        shards_seen = {e.get("shard") for e in events
                       if e["kind"] == "shard.end"}
        assert shards_seen == set(range(self.NUM_SHARDS))
        # forwarded worker records share the campaign run id; shard
        # attribution rides on the spool's static ``shard`` field
        worker_runs = {e["run_id"] for e in events
                       if e["kind"] == "shard.end"}
        assert worker_runs == {"telemetry"}
        # workers really ran out-of-process
        worker_pids = {e.get("pid") for e in events
                       if e["kind"] == "shard.start"}
        assert os.getpid() not in worker_pids

    def test_live_fold_equals_snapshot_fold(self, tmp_path):
        """Worker counters fold once, whatever else observes the run.

        The same sharded build is run twice under a recorder: once with
        an event log and once without. Either way the spool tailer folds
        the workers' ``metrics.delta`` records live, so the counter
        series must agree exactly.
        """
        from repro.obs import events as obsevents

        def shard_counters(with_event_log):
            with obs.FlightRecorder() as recorder:
                if with_event_log:
                    with obsevents.EventLog(tmp_path / "fold.jsonl"):
                        run_experiment(ExperimentConfig.tiny(), shards=2)
                else:
                    run_experiment(ExperimentConfig.tiny(), shards=2)
            return {key: value for key, value
                    in recorder.metrics.snapshot()["counters"].items()
                    if "shard=" in key}

        live = shard_counters(with_event_log=True)
        snapshot_only = shard_counters(with_event_log=False)
        assert live == snapshot_only
        assert live, "no shard-labeled counters were folded"

    def test_reset_shard_unfolds_only_that_shard(self, tmp_path):
        """Before a retry the tailer zeroes what it folded for the
        failed shard, so the retry's deltas fold from zero."""
        import json
        from repro.obs import events as obsevents

        def spool(shard, moved):
            record = {"kind": "metrics.delta",
                      "counters": {"sim.events_executed_total": moved}}
            with open(obsevents.spool_path(tmp_path, shard), "a") as fh:
                fh.write(json.dumps(record) + "\n")

        recorder = obs.FlightRecorder()

        def executed(shard):
            return recorder.metrics.counter("sim.events_executed_total",
                                            shard=str(shard)).value

        tailer = sharding.SpoolTailer(tmp_path, 2, recorder=recorder)
        spool(0, 2)
        spool(1, 5)
        assert tailer.drain() == 2
        assert (executed(0), executed(1)) == (2, 5)

        tailer.reset_shard(1)
        assert (executed(0), executed(1)) == (2, 0)
        assert not obsevents.spool_path(tmp_path, 1).exists()
        assert obsevents.spool_path(tmp_path, 0).exists()

        spool(1, 3)  # the retry's attempt
        assert tailer.drain() == 1
        assert (executed(0), executed(1)) == (2, 3)

    def test_tailer_keeps_end_and_trace_records(self, tmp_path):
        """``shard.end`` and ``shard.trace`` are kept for the end-of-run
        fold (the trace is never forwarded to the event log), and
        ``reset_shard`` drops a failed attempt's."""
        import json
        from repro.obs import events as obsevents

        def spool(shard, *records):
            with open(obsevents.spool_path(tmp_path, shard), "a") as fh:
                for record in records:
                    fh.write(json.dumps(record) + "\n")

        span = {"name": "shard.run", "ph": "X", "ts": 5.0, "dur": 2.0,
                "pid": 4242, "tid": 1, "args": {}}
        for shard in (0, 1):
            spool(shard,
                  {"kind": "shard.end", "stage_seconds": {"spill": 0.5},
                   "gauges": {"sim.queue_high_water": 9.0},
                   "histograms": {}},
                  {"kind": "shard.trace", "pid": 4242 + shard,
                   "anchor_wall": 100.0, "events": [dict(span)]})
        recorder = obs.FlightRecorder()
        with obsevents.EventLog(tmp_path / "unified.jsonl") as log:
            tailer = sharding.SpoolTailer(tmp_path, 2, event_log=log,
                                          recorder=recorder)
            assert tailer.drain() == 4
            tailer.reset_shard(1)
        assert [r["kind"] for r in obsevents.read_events(log.path)] \
            == ["shard.end", "shard.end"]
        assert set(tailer.ends) == set(tailer.traces) == {0}

        tailer.fold()
        gauges = recorder.metrics.snapshot()["gauges"]
        assert gauges["shard.stage_seconds{shard=0,stage=spill}"] == 0.5
        assert gauges["sim.queue_high_water{shard=0}"] == 9.0
        assert recorder.process_names == {4242: "shard 0"}
        # shifted by the anchor difference onto the recorder's timeline
        shift_us = (100.0 - recorder.tracer.anchor_wall()) * 1e6
        (event,) = recorder.foreign_events
        assert event["ts"] == pytest.approx(5.0 + shift_us, abs=1e4)

    def test_recorder_alone_merges_worker_spans(self):
        """No event log: the merged trace still has every worker's
        track and spans, shipped in its ``shard.trace`` spool record."""
        with obs.FlightRecorder() as recorder:
            run_experiment(ExperimentConfig.tiny(), shards=2)
        events = recorder.chrome_trace()["traceEvents"]
        tracks = {e["args"]["name"]: e["pid"] for e in events
                  if e.get("ph") == "M"}
        assert {"coordinator", "shard 0", "shard 1"} <= set(tracks)
        for shard in (0, 1):
            names = {e["name"] for e in events if e.get("ph") == "X"
                     and e["pid"] == tracks[f"shard {shard}"]}
            assert {"shard.run", "sim.run_until",
                    "scanner.batch_emit"} <= names

    def test_event_log_alone_records_shard_lifecycle(self, tmp_path):
        """No recorder: every shard's ``shard.start`` and ``shard.end``
        still reach the event log."""
        from repro.obs import events as obsevents
        assert obs.current() is None
        with obsevents.EventLog(tmp_path / "events.jsonl") as log:
            run_experiment(ExperimentConfig.tiny(), shards=2)
        events = obsevents.read_events(log.path)
        for kind in ("shard.start", "shard.end"):
            assert sorted(e["shard"] for e in events
                          if e["kind"] == kind) == [0, 1]
        assert not [e for e in events if e["kind"] == "shard.trace"]


class TestResumeTelemetry:
    def test_resume_forwards_only_its_own_records(self, tmp_path):
        """Restored shards ran in the killed run: resuming forwards and
        folds none of their spooled records, only its own."""
        from repro.obs import events as obsevents
        with obsevents.EventLog(tmp_path / "first.jsonl", run_id="first"):
            run_experiment(ExperimentConfig.tiny(), shards=2,
                           checkpoint_dir=tmp_path / "ckpt")
        with obs.FlightRecorder() as recorder, \
                obsevents.EventLog(tmp_path / "resumed.jsonl",
                                   run_id="resumed") as log:
            resumed = resume_experiment(tmp_path / "ckpt")
        assert {s["shard"] for s in resumed.shard_stats
                if s.get("restored")} == {0, 1}
        events = obsevents.read_events(log.path)
        assert {e["run_id"] for e in events} == {"resumed"}
        assert sorted(e["shard"] for e in events
                      if e["kind"] == "shard.skipped") == [0, 1]
        snapshot = recorder.metrics.snapshot()
        assert not [key for kind in ("counters", "gauges")
                    for key in snapshot[kind] if "shard=" in key]
        tracks = {e["args"]["name"]
                  for e in recorder.chrome_trace()["traceEvents"]
                  if e.get("ph") == "M"}
        assert not [name for name in tracks if name.startswith("shard ")]


class TestShardingGuards:
    def test_checkpointed_sharded_run_persists_manifest(self, tmp_path,
                                                        tiny_result):
        """The shards×checkpoint exclusion is lifted (DESIGN §11): the
        combination persists completed shards plus a shards.json
        manifest and still reproduces the unsharded corpus exactly."""
        result = run_experiment(ExperimentConfig.tiny(), shards=2,
                                checkpoint_dir=tmp_path)
        assert corpus_digest(result.corpus) \
            == corpus_digest(tiny_result.corpus)
        assert (tmp_path / sharding.SETUP_NAME).exists()
        manifest = sharding.ShardManifest.open(tmp_path, 2)
        assert set(manifest.completed) == {0, 1}
        restored = manifest.restorable(tmp_path / "shards")
        assert set(restored) == {0, 1}
        assert all(r["restored"] for r in restored.values())
