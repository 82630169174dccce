"""Robustness layer — checkpointed build and fault-path cost.

A checkpointed build runs as one supervised shard persisted to the shard
manifest; it must leave a restart point on disk and a corpus
byte-identical to the plain run. The fault layer armed with an empty
plan must leave the corpus byte-identical to a plain run as well.
"""

import os

from conftest import print_comparison

from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.sharding import SETUP_NAME, ShardManifest
from repro.experiment.store import corpus_digest
from repro.faults import BlackoutWindow, FaultPlan


def _config() -> ExperimentConfig:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
    return ExperimentConfig(seed=42, scale=scale)


def test_checkpointed_build_is_byte_identical(benchmark, bench_result,
                                              tmp_path):
    result = benchmark.pedantic(
        run_experiment, args=(_config(),),
        kwargs={"checkpoint_dir": tmp_path},
        rounds=1, iterations=1)
    identical = corpus_digest(result.corpus) \
        == corpus_digest(bench_result.corpus)
    print_comparison("Checkpointed build", [
        ("wall vs plain build", "-",
         f"{result.wall_seconds:.3f}s vs {bench_result.wall_seconds:.3f}s"),
        ("record pass", "-",
         f"{result.stage_seconds['record_timeline']:.3f}s"),
        ("corpus", "byte-identical", "match" if identical else "DIVERGED"),
    ])
    assert (tmp_path / SETUP_NAME).exists(), "no restart point on disk"
    assert set(ShardManifest.open(tmp_path, 1).completed) == {0}
    assert identical


def test_empty_fault_plan_is_free(benchmark, bench_result):
    result = benchmark.pedantic(
        run_experiment, args=(_config(),),
        kwargs={"faults": FaultPlan()},
        rounds=1, iterations=1)
    base_sim = bench_result.stage_seconds["simulate"]
    sim = result.stage_seconds["simulate"]
    print_comparison("Empty fault plan", [
        ("simulate vs base", "parity", f"{sim:.3f}s vs {base_sim:.3f}s"),
        ("corpus", "byte-identical",
         "match" if corpus_digest(result.corpus)
         == corpus_digest(bench_result.corpus) else "DIVERGED"),
    ])
    assert corpus_digest(result.corpus) == corpus_digest(bench_result.corpus)


def test_faulted_campaign_end_to_end(benchmark, bench_result):
    config = _config()
    plan = FaultPlan(
        blackouts=(BlackoutWindow("T1", config.duration * 0.2,
                                  config.duration * 0.3),),
        loss_rate=0.01)
    result = benchmark.pedantic(
        run_experiment, args=(config,), kwargs={"faults": plan},
        rounds=1, iterations=1)
    base = bench_result.corpus.total_packets()
    faulted = result.corpus.total_packets()
    print_comparison("Faulted campaign", [
        ("packets vs base", "reduced", f"{faulted:,} vs {base:,}"),
        ("T1 coverage", "90%",
         f"{result.corpus.covered_fraction('T1'):.1%}"),
        ("install_faults stage", "cheap",
         f"{result.stage_seconds['install_faults']:.3f}s"),
    ])
    assert faulted < base
    assert result.corpus.coverage_gaps["T1"] == plan.blackouts_for("T1")
