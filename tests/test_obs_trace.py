"""Tests for repro.obs.trace."""

import json
import threading

from repro.obs.trace import NULL_SPAN, Tracer


class TestSpanNesting:
    def test_parent_child_structure(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child2"):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["root"]
        root = roots[0]
        assert [c.name for c in root.children] == ["child1", "child2"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.duration >= inner.duration >= 0.0

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("s", telescope="T1") as span:
            span.set(sessions=42)
        assert span.attrs == {"telescope": "T1", "sessions": 42}

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        try:
            with tracer.span("boom") as span:
                raise ValueError("nope")
        except ValueError:
            pass
        assert span.attrs["error"] == "ValueError"
        assert span.end is not None

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None

    def test_find_by_name(self):
        tracer = Tracer()
        with tracer.span("x"):
            with tracer.span("y"):
                pass
            with tracer.span("y"):
                pass
        assert len(tracer.find("y")) == 2

    def test_reset_clears_roots(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots() == []

    def test_threads_get_separate_stacks(self):
        tracer = Tracer()
        seen = []

        def worker(name):
            with tracer.span(name):
                seen.append(tracer.current().name)

        with tracer.span("main-root"):
            threads = [threading.Thread(target=worker, args=(f"t{i}",))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # worker spans are roots of their own threads, not children of
        # the main thread's open span
        root_names = {r.name for r in tracer.roots()}
        assert root_names == {"main-root", "t0", "t1", "t2", "t3"}
        main_root = next(r for r in tracer.roots() if r.name == "main-root")
        assert main_root.children == []
        assert sorted(seen) == ["t0", "t1", "t2", "t3"]


class TestNullSpan:
    def test_null_span_is_reusable_and_inert(self):
        with NULL_SPAN as a:
            with NULL_SPAN as b:
                assert a is b is NULL_SPAN
        assert NULL_SPAN.set(x=1) is NULL_SPAN
        assert NULL_SPAN.duration == 0.0


class TestChromeTrace:
    def test_schema_and_nesting(self):
        tracer = Tracer()
        with tracer.span("root", seed=42):
            with tracer.span("child"):
                pass
        # round-trips through JSON
        events = json.loads(json.dumps(tracer.chrome_events()))
        assert len(events) == 2
        for event in events:
            for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid",
                        "args"):
                assert key in event
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        by_name = {e["name"]: e for e in events}
        root, child = by_name["root"], by_name["child"]
        assert root["args"] == {"seed": 42}
        # child interval contained in the root interval
        assert child["ts"] >= root["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-3

    def test_events_sorted_by_start(self):
        tracer = Tracer()
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        events = tracer.chrome_events()
        starts = [e["ts"] for e in events]
        assert starts == sorted(starts)

    def test_non_jsonable_attrs_stringified(self):
        tracer = Tracer()
        with tracer.span("s", level=object()):
            pass
        event = tracer.chrome_events()[0]
        assert isinstance(event["args"]["level"], str)


class TestRenderTree:
    def test_indented_output(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child", telescope="T1"):
                pass
        text = tracer.render_tree()
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "telescope=T1" in lines[1]
        assert "ms" in lines[0]
