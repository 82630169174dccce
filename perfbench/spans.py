"""The benchmark's own spans, and self times derived from a Chrome trace.

A :class:`BenchSpans` wraps each call the benchmark makes into the
program's public entry points. When a :class:`repro.obs.FlightRecorder`
is given, every benchmark span opens on the recorder's tracer, so the
program's own spans (``driver.*``, ``sim.run_until``, ``columnar.*``,
...) nest under it, and it records thread CPU, peak RSS and the run id
as span attributes. Without a recorder the spans cost nothing: that is
how the untraced end-to-end runs measure.

Peak RSS per span is real per-span peak, not the process high-water
mark: writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
``VmHWM`` at each span start, ``VmHWM`` is read at the span's end, and
a child's peak folds into its parent. Where the kernel refuses the
reset, spans carry ``peak_rss_mb=None`` (unmeasured).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_STATUS = "/proc/self/status"
_CLEAR_REFS = "/proc/self/clear_refs"


def read_hwm_kb() -> int:
    """This process's ``VmHWM`` (peak resident set) in KiB; 0 if unknown."""
    try:
        with open(_STATUS) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_hwm() -> bool:
    """Reset ``VmHWM`` to the current RSS; False if the kernel refuses."""
    try:
        with open(_CLEAR_REFS, "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


class BenchSpans:
    """Benchmark spans on an optional flight recorder's tracer."""

    def __init__(self, recorder=None, run_id: str = "") -> None:
        self.recorder = recorder
        self.run_id = run_id
        #: whether the VmHWM reset works here; decided on first use
        self.hwm_reset: bool | None = None
        #: running peak (KiB) of each open span, innermost last
        self._peaks: list[int] = []

    @contextmanager
    def span(self, name: str):
        if self.recorder is None:
            yield None
            return
        # fold the peak so far into the enclosing span before the reset
        # wipes it
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], read_hwm_kb())
        ok = reset_hwm()
        self.hwm_reset = ok if self.hwm_reset is None \
            else self.hwm_reset and ok
        self._peaks.append(read_hwm_kb())
        cpu_start = time.thread_time()
        with self.recorder.tracer.span(name, run_id=self.run_id) as sp:
            try:
                yield sp
            finally:
                peak = max(self._peaks.pop(), read_hwm_kb())
                if self._peaks:
                    self._peaks[-1] = max(self._peaks[-1], peak)
                sp.set(cpu_s=time.thread_time() - cpu_start,
                       peak_rss_mb=peak / 1024 if self.hwm_reset else None)


def span_forest(events: list[dict]) -> list[dict]:
    """Rebuild span nesting from flat Chrome ``X`` events.

    Spans of one thread nest by interval (each process records them on
    a per-thread stack), so a sweep in start order per ``(pid, tid)``
    recovers every span's parent. Returns one node per span, each with
    ``name``, ``start``/``dur`` (seconds), ``args``, ``pid``, ``parent``
    (index into the returned list, or ``None``) and ``children_s`` (the
    time its direct children cover).
    """
    nodes: list[dict] = []
    tracks: dict[tuple, list[dict]] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        tracks.setdefault((ev.get("pid"), ev.get("tid")), []).append(ev)
    for track in tracks.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[int] = []
        for ev in track:
            start, dur = ev["ts"] / 1e6, ev["dur"] / 1e6
            # a child starts no earlier and ends no later than its parent
            # (up to float rounding of the microsecond timestamps)
            while stack and nodes[stack[-1]]["start"] \
                    + nodes[stack[-1]]["dur"] < start + dur - 1e-6:
                stack.pop()
            parent = stack[-1] if stack else None
            nodes.append({"name": ev["name"], "start": start, "dur": dur,
                          "args": ev.get("args", {}), "pid": ev.get("pid"),
                          "parent": parent, "children_s": 0.0})
            if parent is not None:
                nodes[parent]["children_s"] += dur
            stack.append(len(nodes) - 1)
    return nodes


def self_seconds(node: dict) -> float:
    """A span's duration minus the time its child spans cover."""
    return max(0.0, node["dur"] - node["children_s"])
