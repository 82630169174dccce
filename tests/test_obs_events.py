"""Tests for repro.obs.events — the structured run-event log."""

import json
import threading

from repro.obs import events as obsevents
from repro.obs.events import (EventLog, RESERVED, SCHEMA_VERSION,
                              iter_complete_lines, new_run_id, read_events)


class TestNewRunId:
    def test_unique_and_sortable_prefix(self):
        a, b = new_run_id(), new_run_id()
        assert a != b
        # leading timestamp component sorts chronologically
        date = a.split("-")[0]
        assert len(date) == 8 and date.isdigit()


class TestEmitRoundTrip:
    def test_record_schema(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, run_id="r1") as log:
            record = log.emit("stage.start", stage="simulate", shards=4)
        events = read_events(path)
        assert len(events) == 1
        on_disk = events[0]
        assert on_disk == json.loads(json.dumps(record))
        assert on_disk["v"] == SCHEMA_VERSION
        assert on_disk["run_id"] == "r1"
        assert on_disk["kind"] == "stage.start"
        assert on_disk["stage"] == "simulate"
        assert on_disk["shards"] == 4
        assert on_disk["seq"] == 1
        assert isinstance(on_disk["wall"], float)
        assert isinstance(on_disk["mono"], float)

    def test_seq_increments_per_record(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl") as log:
            first = log.emit("a")
            second = log.emit("b")
        assert (first["seq"], second["seq"]) == (1, 2)

    def test_reserved_field_collisions_get_x_prefix(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl", run_id="real") as log:
            record = log.emit("k", run_id="fake", wall="fake", kind="fake")
        assert record["run_id"] == "real"
        assert record["kind"] == "k"
        assert record["x_run_id"] == "fake"
        assert record["x_wall"] == "fake"
        assert record["x_kind"] == "fake"
        assert set(RESERVED) <= set(record)

    def test_static_fields_stamped_on_every_record(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl", shard=3) as log:
            log.emit("a")
            log.emit("b", shard=9)  # explicit field wins
        events = read_events(log.path)
        assert events[0]["shard"] == 3
        assert events[1]["shard"] == 9


class TestModuleSlot:
    def test_emit_is_noop_without_installed_log(self):
        obsevents.uninstall()
        assert obsevents.current() is None
        assert obsevents.emit("anything", key="value") is None

    def test_context_manager_installs_and_uninstalls(self, tmp_path):
        obsevents.uninstall()
        with EventLog(tmp_path / "e.jsonl") as log:
            assert obsevents.current() is log
            assert obsevents.emit("hello")["kind"] == "hello"
        assert obsevents.current() is None
        assert read_events(log.path)[0]["kind"] == "hello"


class TestCrashTolerance:
    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(path) as log:
            log.emit("a")
            log.emit("b")
        # simulate a process killed mid-write: torn final record
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v":1,"kind":"torn","seq":3,"wa')
        events = read_events(path)
        assert [e["kind"] for e in events] == ["a", "b"]

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('not json\n{"kind":"ok"}\n[1,2,3]\n\n',
                        encoding="utf-8")
        events = read_events(path)
        assert [e["kind"] for e in events] == ["ok"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_events(tmp_path / "absent.jsonl") == []

    def test_tail_bounds_the_read(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(path) as log:
            for index in range(10):
                log.emit("k", i=index)
        assert [e["i"] for e in read_events(path, tail=3)] == [7, 8, 9]
        assert read_events(path, tail=0) == []


class TestIterCompleteLines:
    def test_only_newline_terminated_lines_returned(self, tmp_path):
        path = tmp_path / "spool.jsonl"
        path.write_text('{"a":1}\n{"b":2}\n{"c":', encoding="utf-8")
        lines, offset = iter_complete_lines(path)
        assert lines == ['{"a":1}', '{"b":2}']
        # offset sits right past the last complete line
        assert offset == len('{"a":1}\n{"b":2}\n')

    def test_offset_resumes_without_rereading(self, tmp_path):
        path = tmp_path / "spool.jsonl"
        path.write_text("one\n", encoding="utf-8")
        lines, offset = iter_complete_lines(path)
        assert lines == ["one"]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("two\nthree")  # "three" still being written
        lines, offset = iter_complete_lines(path, offset)
        assert lines == ["two"]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        lines, offset = iter_complete_lines(path, offset)
        assert lines == ["three"]

    def test_missing_file_yields_nothing(self, tmp_path):
        lines, offset = iter_complete_lines(tmp_path / "gone.jsonl", 17)
        assert lines == []
        assert offset == 17


class TestListenersAndForward:
    def test_listeners_see_every_record(self, tmp_path):
        seen = []
        with EventLog(tmp_path / "e.jsonl") as log:
            log.add_listener(seen.append)
            log.emit("a")
            log.emit("b")
        assert [r["kind"] for r in seen] == ["a", "b"]

    def test_forward_preserves_fields_and_restamps_seq(self, tmp_path):
        worker = EventLog(tmp_path / "worker.jsonl", run_id="w", shard=1)
        record = worker.emit("heartbeat", sim_days=3.5)
        worker.close()
        seen = []
        with EventLog(tmp_path / "coord.jsonl", run_id="c") as coord:
            coord.add_listener(seen.append)
            coord.emit("local")
            coord.forward(read_events(worker.path)[0])
        merged = read_events(coord.path)
        assert [r["kind"] for r in merged] == ["local", "heartbeat"]
        forwarded = merged[1]
        # worker identity and timestamps survive the forward verbatim
        assert forwarded["run_id"] == "w"
        assert forwarded["shard"] == 1
        assert forwarded["wall"] == record["wall"]
        assert forwarded["sim_days"] == 3.5
        # only seq is re-stamped to keep the unified log ordered
        assert forwarded["seq"] == 2
        assert [r["seq"] for r in seen] == [1, 2]

    def test_emit_is_thread_safe(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(path) as log:
            threads = [threading.Thread(
                target=lambda: [log.emit("k") for _ in range(200)])
                for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        events = read_events(path)
        assert len(events) == 800
        assert sorted(e["seq"] for e in events) == list(range(1, 801))


class TestTraceSpool:
    def test_event_spool_path_is_per_shard(self, tmp_path):
        assert obsevents.spool_path(tmp_path, 0).name \
            == "shard000.events.jsonl"
        assert obsevents.spool_path(tmp_path, 12).name \
            == "shard012.events.jsonl"
