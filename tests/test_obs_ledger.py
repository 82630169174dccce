"""Tests for repro.obs.ledger — the run ledger and ``repro runs`` CLI."""

import json

import pytest

from repro.cli import main
from repro.experiment import ExperimentConfig, run_experiment
from repro.obs import events as obsevents
from repro.obs import ledger


def _manifest(run_id, stage_seconds, *, counters=None, corpus_digest=None,
              scale=0.04, seed=42):
    return ledger.build_manifest(
        run_id=run_id,
        config={"seed": seed, "scale": scale},
        stage_seconds=stage_seconds,
        wall_seconds=sum(stage_seconds.values()),
        corpus_summary={"total_packets": 1000, "telescopes": 4},
        corpus_digest=corpus_digest,
        metrics={"counters": counters or {}})


class TestManifest:
    def test_config_digest_is_canonical(self):
        assert ledger.config_digest({"a": 1, "b": 2}) \
            == ledger.config_digest({"b": 2, "a": 1})
        assert ledger.config_digest({"a": 1}) \
            != ledger.config_digest({"a": 2})

    def test_config_to_dict_handles_dataclass(self):
        config = ExperimentConfig.tiny(seed=7)
        as_dict = ledger.config_to_dict(config)
        assert as_dict["seed"] == 7
        assert as_dict["scale"] == 0.04
        # round-trips through JSON
        assert json.loads(json.dumps(as_dict)) == as_dict

    def test_build_manifest_shape(self):
        manifest = _manifest("r1", {"simulate": 1.23456})
        assert manifest["schema"] == ledger.LEDGER_SCHEMA
        assert manifest["run_id"] == "r1"
        assert manifest["seed"] == 42
        assert manifest["stage_seconds"]["simulate"] == 1.2346
        assert manifest["config_digest"] == ledger.config_digest(
            manifest["config"])
        assert json.loads(json.dumps(manifest)) == manifest

    def test_write_load_round_trip(self, tmp_path):
        manifest = _manifest("r1", {"simulate": 1.0})
        path = ledger.write_manifest(tmp_path, manifest)
        assert path == tmp_path / "r1" / ledger.MANIFEST_NAME
        assert ledger.load_manifest(tmp_path, "r1") == manifest
        with pytest.raises(FileNotFoundError):
            ledger.load_manifest(tmp_path, "absent")


class TestListRuns:
    def test_lists_sorted_and_skips_garbage(self, tmp_path):
        ledger.write_manifest(tmp_path, _manifest("b-run", {"s": 1.0}))
        ledger.write_manifest(tmp_path, _manifest("a-run", {"s": 1.0}))
        (tmp_path / "empty-dir").mkdir()
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / ledger.MANIFEST_NAME).write_text("{not json",
                                                   encoding="utf-8")
        (tmp_path / "stray-file").write_text("x", encoding="utf-8")
        runs = ledger.list_runs(tmp_path)
        assert [m["run_id"] for m in runs] == ["a-run", "b-run"]

    def test_missing_ledger_dir_is_empty(self, tmp_path):
        assert ledger.list_runs(tmp_path / "nowhere") == []

    def test_render_table(self, tmp_path):
        assert ledger.render_runs_table([]) == "(no runs in ledger)"
        table = ledger.render_runs_table([_manifest("r1", {"s": 1.0})])
        assert "r1" in table
        assert "1000" in table  # packets column


class TestRunComparison:
    def test_regression_flagged_beyond_threshold(self):
        old = _manifest("old", {"simulate": 1.0, "flush": 1.0})
        new = _manifest("new", {"simulate": 1.5, "flush": 1.0})
        comparison = ledger.RunComparison(old, new, threshold=0.10)
        assert comparison.regressions == ["simulate"]
        assert "REGRESSION" in comparison.render()

    def test_small_absolute_delta_not_flagged(self):
        # 100% slower but only 20ms absolute — scheduler noise, not code
        old = _manifest("old", {"tiny_stage": 0.02})
        new = _manifest("new", {"tiny_stage": 0.04})
        assert ledger.RunComparison(old, new).regressions == []

    def test_improvement_and_one_sided_stages(self):
        old = _manifest("old", {"simulate": 2.0, "legacy_only": 1.0})
        new = _manifest("new", {"simulate": 1.0, "new_only": 1.0})
        comparison = ledger.RunComparison(old, new)
        assert comparison.regressions == []
        rendered = comparison.render()
        assert "improved" in rendered
        assert rendered.count("only one run") == 2
        assert "no stage regressions" in rendered

    def test_digest_notes(self):
        same = ledger.RunComparison(
            _manifest("a", {"s": 1.0}, corpus_digest="d1"),
            _manifest("b", {"s": 1.0}, corpus_digest="d1"))
        assert any("corpus digests match" in n for n in same.notes)
        differ = ledger.RunComparison(
            _manifest("a", {"s": 1.0}, corpus_digest="d1", seed=1),
            _manifest("b", {"s": 1.0}, corpus_digest="d2", seed=2))
        assert any("DIFFER" in n for n in differ.notes)
        assert any("configs differ" in n for n in differ.notes)

    def test_changed_counters_listed(self):
        comparison = ledger.RunComparison(
            _manifest("a", {"s": 1.0}, counters={"pkts": 10, "same": 5}),
            _manifest("b", {"s": 1.0}, counters={"pkts": 12, "same": 5}))
        assert comparison.metric_rows == [("pkts", 10.0, 12.0)]


class TestRunExperimentLedger:
    def test_run_writes_manifest_next_to_event_log(self, tmp_path):
        run_id = "test-ledger-run"
        events_path = tmp_path / run_id / "events.jsonl"
        with obsevents.EventLog(events_path, run_id=run_id):
            result = run_experiment(ExperimentConfig.tiny(), run_id=run_id,
                                    ledger_dir=tmp_path)
        manifest = ledger.load_manifest(tmp_path, run_id)
        assert manifest["run_id"] == run_id
        assert manifest["seed"] == 42
        assert manifest["shards"] == 1
        assert manifest["corpus"]["total_packets"] \
            == result.corpus.total_packets()
        assert manifest["corpus_digest"]
        assert manifest["wall_seconds"] > 0
        assert {"build_population", "simulate", "flush_batches",
                "package_corpus"} <= set(manifest["stage_seconds"])
        assert manifest["fault_plan"] is None
        assert manifest["events_file"] == str(events_path)
        # the manifest lives next to the run's event log
        assert events_path.parent == (
            tmp_path / run_id / ledger.MANIFEST_NAME).parent
        kinds = [e["kind"]
                 for e in obsevents.read_events(events_path)]
        assert kinds[0] == "run.start"
        assert kinds[-1] == "run.end"
        assert "stage.start" in kinds and "stage.end" in kinds

    def test_no_ledger_dir_writes_nothing(self, tmp_path):
        run_experiment(ExperimentConfig.tiny(), ledger_dir=None)
        assert list(tmp_path.iterdir()) == []


class TestRunsCli:
    @pytest.fixture()
    def populated(self, tmp_path):
        ledger.write_manifest(tmp_path, _manifest(
            "run-old", {"simulate": 1.0}, corpus_digest="d1"))
        ledger.write_manifest(tmp_path, _manifest(
            "run-new", {"simulate": 2.0}, corpus_digest="d1"))
        ledger.write_manifest(tmp_path, _manifest(
            "run-same", {"simulate": 1.02}, corpus_digest="d1"))
        return tmp_path

    def test_list(self, populated, capsys):
        assert main(["runs", "list", "--ledger", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "run-old" in out and "run-new" in out

    def test_show(self, populated, capsys):
        assert main(["runs", "show", "run-old",
                     "--ledger", str(populated)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["run_id"] == "run-old"

    def test_compare_exit_codes(self, populated, capsys):
        assert main(["runs", "compare", "run-old", "run-same",
                     "--ledger", str(populated)]) == 0
        assert "no stage regressions" in capsys.readouterr().out
        assert main(["runs", "compare", "run-old", "run-new",
                     "--ledger", str(populated)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_threshold_flag(self, populated):
        # 2x slowdown passes under an absurdly lax threshold
        assert main(["runs", "compare", "run-old", "run-new",
                     "--ledger", str(populated),
                     "--threshold", "1.5"]) == 0

    def test_unknown_run_id_is_clean_error(self, populated, capsys):
        # 2 is the CLI's ReproError exit code (not a traceback)
        assert main(["runs", "show", "ghost",
                     "--ledger", str(populated)]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_runs_does_not_pollute_the_ledger(self, populated):
        before = sorted(p.name for p in populated.iterdir())
        main(["runs", "list", "--ledger", str(populated)])
        assert sorted(p.name for p in populated.iterdir()) == before
