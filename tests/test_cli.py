"""Tests for the command-line interface."""

import logging

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.cycles == 16

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--seed", "7", "--scale", "0.05"])
        assert args.seed == 7
        assert args.scale == 0.05

    def test_obs_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.trace is None
        assert args.metrics is None
        assert args.log_level == "info"
        assert args.verbose is False

    def test_obs_flags_parse(self):
        args = build_parser().parse_args(
            ["tables", "--trace", "t.json", "--metrics", "m.json",
             "--log-level", "debug", "-v"])
        assert args.trace == "t.json"
        assert args.metrics == "m.json"
        assert args.log_level == "debug"
        assert args.verbose is True

    def test_load_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["load", "somewhere", "--log-level", "warning"])
        assert args.log_level == "warning"


class TestCommands:
    def test_schedule_output(self, capsys):
        assert main(["schedule", "--cycles", "3"]) == 0
        out = capsys.readouterr().out
        assert "cycle  0" in out
        cycle_lines = [line for line in out.splitlines()
                       if line.startswith("  cycle")]
        assert len(cycle_lines) == 4

    def test_schedule_custom_prefix(self, capsys):
        assert main(["schedule", "--prefix", "2001:db8::/32",
                     "--cycles", "1"]) == 0
        assert "2001:db8::/33" in capsys.readouterr().out

    def test_run_small(self, capsys):
        assert main(["run", "--scale", "0.02", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        for telescope in ("T1", "T2", "T3", "T4"):
            assert telescope in out
        assert "stages" in out
        assert "simulate" in out

    def test_run_with_trace_and_metrics(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        assert main(["run", "--scale", "0.02", "--seed", "3",
                     "--trace", str(trace_path),
                     "--metrics", str(metrics_path), "-v"]) == 0
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "driver.run_experiment" in names
        assert "sim.run_until" in names
        assert "analysis.summary" in names
        # nested: every driver stage span sits inside the campaign span
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        root = by_name["driver.run_experiment"]
        stage = by_name["driver.simulate"]
        assert root["ts"] <= stage["ts"]
        assert stage["ts"] + stage["dur"] \
            <= root["ts"] + root["dur"] + 1e-3
        metrics = json.loads(metrics_path.read_text())
        for telescope in ("T1", "T2", "T3", "T4"):
            key = f"telescope.packets_total{{telescope={telescope}}}"
            assert metrics["counters"][key] > 0
        assert metrics["counters"]["sim.events_executed_total"] > 0

    def test_run_without_flags_leaves_recorder_uninstalled(self, capsys):
        from repro import obs

        assert main(["run", "--scale", "0.02", "--seed", "3"]) == 0
        capsys.readouterr()
        assert obs.current() is None

    def test_figures_single(self, capsys):
        assert main(["figures", "--scale", "0.02", "--seed", "3",
                     "--only", "fig9"]) == 0
        assert "Fig 9" in capsys.readouterr().out

    def test_guidance(self, capsys):
        assert main(["guidance", "--scale", "0.02", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Operational guidance" in out
        assert "bias report" in out

    def test_validate(self, capsys):
        assert main(["validate", "--scale", "0.03", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "temporal classifier" in out
        assert "accuracy" in out

    def test_save_and_load(self, capsys, tmp_path):
        out_dir = str(tmp_path / "corpus")
        assert main(["save", "--scale", "0.02", "--seed", "3",
                     "--out", out_dir]) == 0
        assert "corpus written" in capsys.readouterr().out
        assert main(["load", out_dir]) == 0
        assert "Table 2" in capsys.readouterr().out


class TestVerboseHeartbeats:
    """``-v`` logs every worker's weekly heartbeat for a fan-out run."""

    @staticmethod
    def _heartbeats(argv) -> list[str]:
        records: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("repro.obs")
        logger.addHandler(handler)
        try:
            assert main(argv) == 0
        finally:
            logger.removeHandler(handler)
        return [record.getMessage() for record in records
                if "heartbeat:" in record.getMessage()]

    def test_sharded_run_logs_each_shards_heartbeats(self, capsys):
        lines = self._heartbeats(["run", "--scale", "0.03", "--shards", "2",
                                  "-v"])
        capsys.readouterr()
        for shard in (0, 1):
            assert any(line.startswith(f"shard {shard} heartbeat: ")
                       for line in lines), lines

    def test_checkpointed_run_logs_its_shards_heartbeats(self, capsys,
                                                         tmp_path):
        lines = self._heartbeats(["run", "--scale", "0.03",
                                  "--checkpoint-dir", str(tmp_path), "-v"])
        capsys.readouterr()
        assert any(line.startswith("shard 0 heartbeat: ")
                   for line in lines), lines


class TestErrorHandling:
    def test_invalid_prefix_clean_error(self, capsys):
        assert main(["schedule", "--prefix", "not-a-prefix"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "Traceback" not in err

    def test_missing_corpus_clean_error(self, capsys):
        assert main(["load", "/tmp/no-such-corpus-dir"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_invalid_scale_clean_error(self, capsys):
        assert main(["run", "--scale", "-1"]) == 2
        assert "scale must be > 0" in capsys.readouterr().err

    def test_old_store_format_clean_error(self, capsys, tmp_path,
                                          tiny_corpus):
        import json
        from repro.experiment.store import save_corpus
        path = tmp_path / "corpus"
        save_corpus(tiny_corpus, path)
        meta_path = path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        meta_path.write_text(json.dumps(meta))
        assert main(["load", str(path)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1
        assert f"seed {tiny_corpus.config.seed}" in errors[0]
        assert "Traceback" not in err
