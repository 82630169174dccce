"""Tests for repro.experiment.checkpoint (verified state files) and the
checkpointed unsharded run."""

import pytest

from repro.errors import CheckpointError
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment import config as config_module
from repro.experiment import sharding
from repro.experiment.checkpoint import (FORMAT_VERSION, read_checkpoint,
                                         write_state)
from repro.experiment.driver import resume_experiment
from repro.experiment.store import corpus_digest

STATE = {"format_version": FORMAT_VERSION, "sim_time": 0.0,
         "payload": list(range(64))}


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = write_state(tmp_path / "state.rpck", STATE)
        assert path == tmp_path / "state.rpck"
        assert read_checkpoint(path) == STATE

    def test_no_tmp_residue(self, tmp_path):
        write_state(tmp_path / "state.rpck", STATE)
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError) as exc_info:
            read_checkpoint(tmp_path / "nope.rpck")
        assert exc_info.value.check == "exists"

    def test_truncated_file(self, tmp_path):
        path = write_state(tmp_path / "state.rpck", STATE)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError) as exc_info:
            read_checkpoint(path)
        assert exc_info.value.check == "sha256"
        assert exc_info.value.path == path

    def test_bit_flip_detected(self, tmp_path):
        path = write_state(tmp_path / "state.rpck", STATE)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc_info:
            read_checkpoint(path)
        assert exc_info.value.check == "sha256"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "state.rpck"
        path.write_bytes(b"X" * 64)
        with pytest.raises(CheckpointError) as exc_info:
            read_checkpoint(path)
        assert exc_info.value.check == "magic"

    def test_unsupported_format_version(self, tmp_path):
        path = write_state(tmp_path / "state.rpck", {"format_version": 99})
        with pytest.raises(CheckpointError) as exc_info:
            read_checkpoint(path)
        assert exc_info.value.check == "format_version"


class TestCheckpointedRun:
    def test_checkpointing_does_not_change_corpus(self, tmp_path,
                                                  tiny_result):
        """An unsharded checkpointed run is the one-shard supervised
        pipeline: same corpus, shard-manifest restart state on disk."""
        result = run_experiment(ExperimentConfig.tiny(),
                                checkpoint_dir=tmp_path)
        assert corpus_digest(result.corpus) \
            == corpus_digest(tiny_result.corpus)
        assert (tmp_path / sharding.SETUP_NAME).exists()
        assert (tmp_path / sharding.MANIFEST_NAME).exists()
        assert set(sharding.ShardManifest.open(tmp_path, 1).completed) \
            == {0}
        assert len(result.shard_stats) == 1

    def test_resume_without_checkpoints_fails(self, tmp_path):
        with pytest.raises(CheckpointError):
            resume_experiment(tmp_path)

    def test_resume_refuses_a_format_1_snapshot(self, tmp_path,
                                                monkeypatch):
        """A format-1 setup snapshot pickles a config field whose class
        this code no longer defines: resume names the format version
        instead of failing to unpickle it."""

        class Knob:
            pass

        Knob.__module__ = config_module.__name__
        Knob.__qualname__ = "Knob"
        config = ExperimentConfig.tiny()
        del config.shard_attempts
        config.knob = Knob()
        with monkeypatch.context() as patch:
            # the class exists while the snapshot is written, not after
            patch.setattr(config_module, "Knob", Knob, raising=False)
            write_state(tmp_path / sharding.SETUP_NAME, {
                "format_version": 1, "config": config, "plan": None,
                "num_shards": 2})
        with pytest.raises(CheckpointError) as exc_info:
            resume_experiment(tmp_path)
        assert exc_info.value.check == "format_version"
