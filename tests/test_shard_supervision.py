"""Fault-tolerant sharded execution (DESIGN §11).

Three layers of coverage:

- pure unit tests of the shard attempts and backoff, timeout
  derivation, and window merging;
- supervisor unit tests against throwaway runner functions (a worker
  that always crashes, one that crashes once, one that hangs) — fast,
  no experiment involved;
- ``chaos``-marked integration tests that inject declarative process
  faults (:class:`repro.faults.ProcessFault`) into real tiny sharded
  runs and assert the supervised corpus stays byte-identical to the
  unsharded, fault-free one — including across a SIGKILLed coordinator
  resumed at shard granularity from the ``shards.json`` manifest.

An ``overhead``-marked guard bounds what supervision costs a clean run.
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro import obs
from repro.bgp.messages import UpdateKind
from repro.errors import ExperimentError, ShardError
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment import sharding
from repro.experiment.driver import deployment_for, resume_experiment
from repro.experiment.sharding import ShardSupervisor, ShardTask
from repro.experiment.store import corpus_digest
from repro.experiment.corpus import TELESCOPE_NAMES
from repro.faults import FaultPlan, ProcessFault
from repro.obs import events as obsevents
from repro.sim.rng import RngStreams

# -- shard attempts and backoff -------------------------------------------


class _Stop(Exception):
    """Ends a CLI build before it simulates."""


class TestShardAttempts:
    def test_defaults(self):
        assert ExperimentConfig().shard_attempts == 3
        assert sharding.RETRY_BASE_DELAY == 0.25
        assert sharding.RETRY_TIMEOUT_FACTOR == 2.0

    def test_backoff_doubles_per_attempt(self):
        assert [sharding.retry_delay(attempt) for attempt in (1, 2, 3)] \
            == [0.25, 0.5, 1.0]

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_validation(self, attempts):
        with pytest.raises(ExperimentError):
            replace(ExperimentConfig.tiny(), shard_attempts=attempts)

    @pytest.mark.parametrize("argv,attempts", [
        ([], 3), (["--shard-retries", "5"], 5), (["--shard-retries", "1"], 1),
    ])
    def test_shard_retries_flag_sets_attempts(self, monkeypatch, argv,
                                              attempts):
        from repro import cli
        configs = []

        def build(config, **kwargs):
            configs.append(config)
            raise _Stop

        monkeypatch.setattr(cli, "run_experiment", build)
        with pytest.raises(_Stop):
            cli._simulate(cli.build_parser().parse_args(["run", *argv]))
        assert configs[0].shard_attempts == attempts

    def test_config_rejects_bad_failure_mode(self):
        with pytest.raises(ExperimentError):
            replace(ExperimentConfig.tiny(), on_shard_failure="panic")
        with pytest.raises(ExperimentError):
            replace(ExperimentConfig.tiny(), shard_timeout=0.0)


# -- process-fault plans ---------------------------------------------------


class TestProcessFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(process_faults=(
            ProcessFault(kind="kill_shard", shard=1, at_fraction=0.5),
            ProcessFault(kind="hang_shard", shard=0, at_fraction=0.25,
                         max_attempt=99)))
        assert not plan.is_empty()
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("fault", [
        ProcessFault(kind="segv_shard", shard=0, at_fraction=0.5),
        ProcessFault(kind="kill_shard", shard=-1, at_fraction=0.5),
        ProcessFault(kind="kill_shard", shard=0, at_fraction=1.5),
        ProcessFault(kind="kill_shard", shard=0, at_fraction=0.5,
                     max_attempt=0),
    ])
    def test_validate_rejects(self, fault):
        with pytest.raises(Exception):
            FaultPlan(process_faults=(fault,)).validate()


# -- timeout derivation and window algebra ---------------------------------


class TestTimeoutsAndWindows:
    def test_derive_timeouts_scales_with_load(self):
        timeouts = sharding.derive_timeouts([10.0, 5.0, 1.0], 100.0)
        assert timeouts[0] == 100.0          # the peak gets the full budget
        assert timeouts[1] == 50.0           # half the load, half the budget
        assert timeouts[2] == 50.0           # floored at 50% of the budget
        assert sharding.derive_timeouts([1.0, 2.0], None) is None

    def test_merge_windows(self):
        merged = sharding.merge_windows(
            [(5.0, 7.0), (0.0, 2.0), (1.0, 3.0), (3.0, 3.0)])
        assert merged == ((0.0, 3.0), (5.0, 7.0))
        assert sharding.merge_windows([]) == ()


# -- supervisor unit tests (throwaway runners, no experiment) --------------


def _boom_runner(task):
    raise RuntimeError(f"shard {task.shard} always explodes")


def _flaky_runner(task):
    marker = Path(task.spill_dir) / f"flaky{task.shard:03d}.marker"
    if marker.exists():
        return {"shard": task.shard, "scanners": 0, "packets_emitted": 0}
    marker.write_text("armed")
    raise RuntimeError("first attempt fails")


def _hang_runner(task):
    time.sleep(600.0)


def _spooling_runner(task):
    """Append one spool record every ~50 ms for ~2 s, then succeed."""
    path = obsevents.spool_path(sharding.spool_dir(task.spill_dir),
                                task.shard)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for beat in range(40):
            fh.write(json.dumps({"kind": "heartbeat", "beat": beat}) + "\n")
            fh.flush()
            time.sleep(0.05)
    return {"shard": task.shard, "scanners": 0, "packets_emitted": 0}


def _make_tasks(tmp_path, num_shards=1):
    config = ExperimentConfig.tiny()
    return {i: ShardTask(config=config, plan=None, shard=i,
                         num_shards=num_shards, spill_dir=str(tmp_path),
                         feed=())
            for i in range(num_shards)}


class TestSupervisorUnit:
    def test_strict_exhaustion_raises_shard_error_with_stderr(self,
                                                              tmp_path):
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            attempts=2,
            runner=_boom_runner)
        with pytest.raises(ShardError) as exc_info:
            supervisor.run()
        err = exc_info.value
        assert err.shard == 0
        assert err.attempt == 2
        assert "exitcode" in err.cause
        # the worker's traceback was captured and surfaced
        assert "RuntimeError" in err.stderr_tail
        assert "always explodes" in err.stderr_tail
        assert "stderr tail" in str(err)

    def test_shard_error_is_an_experiment_error(self):
        assert issubclass(ShardError, ExperimentError)

    def test_crash_once_is_retried_to_success(self, tmp_path):
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            attempts=3,
            runner=_flaky_runner)
        results = supervisor.run()
        assert results[0]["shard"] == 0
        assert results[0]["attempts"] == 2
        assert supervisor.retries == 1

    def test_degrade_quarantines_instead_of_raising(self, tmp_path):
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            attempts=2,
            on_failure="degrade", runner=_boom_runner)
        results = supervisor.run()
        assert results == [None]
        assert supervisor.quarantined == [0]

    def test_hung_worker_is_killed_on_timeout(self, tmp_path):
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            attempts=2,
            timeouts={0: 0.3}, on_failure="degrade",
            runner=_hang_runner)
        started = time.monotonic()
        results = supervisor.run()
        assert results == [None]
        assert supervisor.retries == 1
        # both attempts were bounded by the (escalating) timeout, not
        # by the runner's 600s sleep
        assert time.monotonic() - started < 30.0

    def test_progressing_worker_outlives_its_budget(self, tmp_path):
        """With nothing observing the run, the budget still counts from
        the last spool record the supervisor consumed, not from launch:
        a worker that keeps writing runs three times its budget and is
        never shot."""
        assert obs.current() is None and obsevents.current() is None
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            attempts=1,
            timeouts={0: 0.6}, runner=_spooling_runner)
        started = time.monotonic()
        results = supervisor.run()   # a timeout would raise ShardError
        assert time.monotonic() - started >= 2.0
        assert results[0]["attempts"] == 1
        assert supervisor.retries == 0

    def test_restored_shards_are_not_re_run(self, tmp_path):
        snapshot = {"shard": 0, "scanners": 3, "packets_emitted": 7}
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            completed={0: snapshot}, runner=_boom_runner)
        results = supervisor.run()   # _boom_runner would raise if run
        assert results[0] == dict(snapshot, restored=True)

    def test_tasks_must_share_a_spill_dir(self, tmp_path):
        config = ExperimentConfig.tiny()
        tasks = {i: ShardTask(config=config, plan=None, shard=i,
                              num_shards=2,
                              spill_dir=str(tmp_path / f"spill{i}"),
                              feed=())
                 for i in range(2)}
        with pytest.raises(ExperimentError):
            ShardSupervisor(tasks)


# -- chaos integration: real runs, injected process faults -----------------


def _digest(result):
    return corpus_digest(result.corpus)


def _kill_plan(shard, at_fraction=0.5, max_attempt=1):
    return FaultPlan(process_faults=(
        ProcessFault(kind="kill_shard", shard=shard,
                     at_fraction=at_fraction, max_attempt=max_attempt),))


@pytest.mark.chaos
class TestKilledWorkerParity:
    """One SIGKILLed worker, retried: corpus byte-identical (ISSUE AC)."""

    @staticmethod
    def _observed(config, num_shards, log_path, faults=None):
        with obs.FlightRecorder() as recorder, \
                obsevents.EventLog(log_path):
            result = run_experiment(config, faults=faults,
                                    shards=num_shards)
        return recorder, result

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_retry_is_byte_identical(self, num_shards, tiny_result,
                                     tmp_path):
        """Under a recorder and an event log, the retried shard's dead
        attempt leaves no trace: one ``shard.run`` span per shard, and
        shard-labelled counters equal to a clean run's."""
        config = ExperimentConfig.tiny()
        recorder, result = self._observed(
            config, num_shards, tmp_path / "killed.jsonl",
            faults=_kill_plan(shard=1))
        assert _digest(result) == _digest(tiny_result)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["sharding.retries_total"] >= 1
        stats = {s["shard"]: s for s in result.shard_stats}
        assert stats[1]["attempts"] == 2
        runs = [e["args"]["shard"]
                for e in recorder.chrome_trace()["traceEvents"]
                if e.get("name") == "shard.run"]
        assert sorted(runs) == list(range(num_shards))

        clean, _ = self._observed(config, num_shards,
                                  tmp_path / "clean.jsonl")

        def shard_counters(rec):
            return {key: value for key, value
                    in rec.metrics.snapshot()["counters"].items()
                    if "shard=" in key}

        assert shard_counters(recorder) == shard_counters(clean)
        assert shard_counters(clean)

    def test_hung_worker_is_timed_out_and_retried(self, tiny_result):
        plan = FaultPlan(process_faults=(
            ProcessFault(kind="hang_shard", shard=0, at_fraction=0.5),))
        config = replace(ExperimentConfig.tiny(), shard_timeout=8.0)
        with obs.FlightRecorder() as recorder:
            result = run_experiment(config, faults=plan, shards=2)
        assert _digest(result) == _digest(tiny_result)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["sharding.timeouts_total"] >= 1
        assert counters["sharding.retries_total"] >= 1


@pytest.mark.chaos
class TestExhaustion:
    def test_strict_mode_raises_shard_error(self):
        config = replace(ExperimentConfig.tiny(), shard_attempts=2)
        plan = _kill_plan(shard=1, at_fraction=0.3, max_attempt=99)
        with pytest.raises(ShardError) as exc_info:
            run_experiment(config, faults=plan, shards=2)
        assert exc_info.value.shard == 1
        assert exc_info.value.attempt == 2

    def test_degrade_turns_shard_into_coverage_gaps(self, tiny_result):
        config = replace(ExperimentConfig.tiny(), shard_attempts=2,
                         on_shard_failure="degrade")
        plan = _kill_plan(shard=1, at_fraction=0.3, max_attempt=99)
        result = run_experiment(config, faults=plan, shards=2)
        assert result.quarantined_shards == (1,)
        # the lost shard's traffic is missing, and the corpus says so
        assert result.corpus.total_packets() \
            < tiny_result.corpus.total_packets()
        for name in TELESCOPE_NAMES:
            assert result.corpus.coverage_gaps.get(name), \
                f"telescope {name} has no recorded coverage gap"
        stats = {s["shard"]: s for s in result.shard_stats}
        assert stats[1] == {"shard": 1, "quarantined": True}


# -- chaos integration: coordinator SIGKILL + shard-granular resume --------


_COORD_KILLED_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.experiment import ExperimentConfig, run_experiment

count = 0
def die_after(path):
    global count
    count += 1
    if count == {die_at}:
        os._exit(9)   # hard kill: no atexit, workers reaped via PDEATHSIG

run_experiment(ExperimentConfig.tiny(), shards={shards},
               checkpoint_dir=sys.argv[1], after_checkpoint=die_after)
os._exit(0)
"""


@pytest.mark.chaos
class TestCoordinatorKillResume:
    """SIGKILL the coordinator mid-fan-out; resume re-runs only the
    missing shards and the corpus stays byte-identical (ISSUE AC)."""

    @pytest.mark.parametrize("num_shards,die_at", [(1, 1), (2, 1), (4, 2)])
    def test_resume_is_byte_identical(self, tmp_path, tiny_result,
                                      num_shards, die_at):
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             _COORD_KILLED_CHILD.format(src=src, shards=num_shards,
                                        die_at=die_at),
             str(tmp_path)],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 9, proc.stderr

        manifest = sharding.ShardManifest.open(tmp_path, num_shards)
        survivors = set(manifest.completed)
        assert len(survivors) == die_at, \
            "kill left an unexpected number of completed shards"

        resumed = resume_experiment(tmp_path)
        assert _digest(resumed) == _digest(tiny_result)
        # only the missing shards re-ran: the survivors were restored
        # from their on-disk spill segments
        restored = {s["shard"] for s in resumed.shard_stats
                    if s.get("restored")}
        assert restored == survivors
        fresh = {s["shard"] for s in resumed.shard_stats
                 if not s.get("restored")}
        assert fresh == set(range(num_shards)) - survivors


class TestManifestRestore:
    def test_shard_missing_a_column_file_re_runs(self, tmp_path,
                                                 tiny_result):
        """A completed shard with any chunk column file gone is not
        trusted: resume re-runs it instead of failing in the merge."""
        run_experiment(ExperimentConfig.tiny(), shards=2,
                       checkpoint_dir=tmp_path)
        (tmp_path / "shards" / "shard000" / "T1"
         / "chunk_0000.port.npy").unlink()

        resumed = resume_experiment(tmp_path)
        assert _digest(resumed) == _digest(tiny_result)
        restored = {s["shard"] for s in resumed.shard_stats
                    if s.get("restored")}
        assert restored == {1}


# -- supervision overhead --------------------------------------------------


def _segment_digests(shard_results) -> list[dict]:
    """Per-shard, per-telescope chunk sha256 lists of a fan-out."""
    return [{name: [chunk["sha256"] for chunk in info["manifest"]]
             for name, info in sorted(res["segments"].items())}
            for res in sorted(shard_results, key=lambda r: r["shard"])]


@pytest.mark.overhead
class TestSupervisionOverhead:
    def test_clean_run_overhead_within_five_percent(self, tmp_path):
        """Supervision must cost ≤5% of a clean run's ``shard_simulate``.

        The supervised run (one process per shard, exit and hang
        polling, result files) races a bare fork ``ProcessPoolExecutor``
        mapping :func:`~repro.experiment.sharding.run_shard` over the
        same tasks, timed from pool creation to the last result. Both
        fork their workers, and every worker writes its event spool in
        both, so the comparison isolates supervision. Best of five each,
        alternating, with no flight recorder in the coordinator; a small
        absolute floor absorbs timer noise and the supervisor's 50 ms
        poll interval on a tiny run.
        """
        obs.uninstall()
        config = ExperimentConfig.tiny()
        deployment = deployment_for(config, RngStreams(config.seed))
        deployment.simulator.run_until(config.duration)
        feed = tuple(e for e in deployment.collector.journal
                     if e.kind is UpdateKind.ANNOUNCE)
        fork = multiprocessing.get_context("fork")

        def supervised(_):
            result = run_experiment(config, shards=2)
            return (result.stage_seconds["shard_simulate"],
                    _segment_digests(result.shard_stats))

        def pooled(repeat):
            spill = tmp_path / f"pool{repeat}"
            tasks = [ShardTask(config=config, plan=None, shard=shard,
                               num_shards=2, spill_dir=str(spill),
                               feed=feed)
                     for shard in range(2)]
            started = time.perf_counter()
            with ProcessPoolExecutor(max_workers=2,
                                     mp_context=fork) as pool:
                results = list(pool.map(sharding.run_shard, tasks))
            return time.perf_counter() - started, _segment_digests(results)

        best = {supervised: float("inf"), pooled: float("inf")}
        segments = []
        for repeat in range(5):
            for run in (supervised, pooled):
                wall, digests = run(repeat)
                best[run] = min(best[run], wall)
                segments.append(digests)
        assert all(digests == segments[0] for digests in segments)
        assert best[supervised] <= 1.05 * best[pooled] + 0.05, \
            (f"supervised {best[supervised]:.3f}s vs "
             f"pooled {best[pooled]:.3f}s")
