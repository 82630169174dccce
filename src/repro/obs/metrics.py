"""Process-wide metrics registry: counters, gauges, log-scale histograms.

Zero-dependency (stdlib only) so every layer of the pipeline can be
instrumented without import-order concerns. A :class:`MetricsRegistry`
hands out typed metric instances keyed by ``(name, labels)``; instances
are cached, so call sites on hot paths can hold a bound reference and
skip the registry lookup entirely.

Exports snapshot to plain dicts (JSON-friendly) and to the Prometheus
text exposition format, so a campaign's self-measurements can be diffed
across PRs exactly like the paper's per-telescope packet counts.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterable

LabelItems = tuple[tuple[str, str], ...]

#: Default histogram bounds: half-decade log-scale steps, 1e-6 .. 1e6.
#: Observations above the last bound land in the +Inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (e / 2) for e in range(-12, 13))

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL = re.compile(r"[^a-zA-Z0-9_]")


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside ``label="..."``.
    """
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def escape_help_text(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _label_items(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`_render_key` for well-formed label values.

    Label values containing ``,`` or ``=`` are ambiguous in the rendered
    form and will not round-trip; the registry's own labels (telescope
    names, task names, shard indices) never contain either.
    """
    name, brace, rest = key.partition("{")
    if not brace:
        return key, {}
    labels: dict[str, str] = {}
    for item in rest[:-1].split(","):
        k, _, v = item.partition("=")
        labels[k] = v
    return name, labels


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """Instantaneous value that can move both ways."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Keep the high-water mark of everything seen."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket histogram with log-scale default bounds.

    Bucket counts are non-cumulative internally; the Prometheus export
    emits the conventional cumulative ``_bucket{le=...}`` series.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, labels: LabelItems = (),
                 bounds: Iterable[float] | None = None) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds)) if bounds is not None \
            else DEFAULT_BUCKETS
        if not self.bounds:
            raise ValueError(f"histogram {name} needs at least one bound")
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        bounds = self.bounds
        lo, hi = 0, len(bounds)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        with self._lock:
            self._counts[lo] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> dict[str, int]:
        """Non-cumulative counts keyed by upper bound ('inf' for overflow)."""
        out = {repr(b): c for b, c in zip(self.bounds, self._counts)}
        out["inf"] = self._counts[-1]
        return out

    def merge_snapshot(self, data: dict) -> None:
        """Fold a snapshot of a histogram with the same bounds into this
        one; buckets absent on either side are left untouched."""
        buckets = data.get("buckets", {})
        with self._lock:
            for index, bound in enumerate(self.bounds):
                self._counts[index] += int(buckets.get(repr(bound), 0))
            self._counts[-1] += int(buckets.get("inf", 0))
            self._sum += float(data.get("sum", 0.0))
            self._count += int(data.get("count", 0))

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0


class MetricsRegistry:
    """Thread-safe get-or-create store for all of a run's metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelItems], Counter] = {}
        self._gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}

    # -- get-or-create -----------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_items(labels))
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter(*key))
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_items(labels))
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge(*key))
        return metric

    def histogram(self, name: str, bounds: Iterable[float] | None = None,
                  **labels: object) -> Histogram:
        key = (name, _label_items(labels))
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    key, Histogram(key[0], key[1], bounds=bounds))
        return metric

    # -- snapshot / reset --------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view of every metric (JSON-serializable)."""
        with self._lock:
            counters = {_render_key(*k): c.value
                        for k, c in sorted(self._counters.items())}
            gauges = {_render_key(*k): g.value
                      for k, g in sorted(self._gauges.items())}
            histograms = {
                _render_key(*k): {"count": h.count, "sum": h.sum,
                                  "buckets": h.bucket_counts()}
                for k, h in sorted(self._histograms.items())}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def reset(self) -> None:
        """Zero every metric in place (bound references stay valid)."""
        with self._lock:
            metrics = (list(self._counters.values())
                       + list(self._gauges.values())
                       + list(self._histograms.values()))
        for metric in metrics:
            metric.reset()

    def merge_snapshot(self, snapshot: dict, **extra_labels: object) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used by the sharded corpus builder to surface worker-process
        metrics in the coordinator's registry: counters add, gauges keep
        the maximum observed value, histograms merge bucket counts (same
        bounds assumed). ``extra_labels`` are appended to every folded
        metric — pass ``shard=i`` so worker series stay attributable and
        never collide with the coordinator's own.
        """
        for key, value in snapshot.get("counters", {}).items():
            name, labels = _parse_key(key)
            labels.update(extra_labels)
            self.counter(name, **labels).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = _parse_key(key)
            labels.update(extra_labels)
            self.gauge(name, **labels).set_max(value)
        for key, data in snapshot.get("histograms", {}).items():
            name, labels = _parse_key(key)
            labels.update(extra_labels)
            bounds = sorted(float(b) for b in data.get("buckets", {})
                            if b != "inf")
            self.histogram(name, bounds=bounds or None,
                           **labels).merge_snapshot(data)

    # -- export ------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one block per metric name).

        Conformant with the text format 0.0.4: every family gets one
        ``# HELP`` and one ``# TYPE`` line, label values are escaped (backslash, quote,
        newline), histograms emit cumulative ``_bucket`` series ending
        in ``le="+Inf"`` plus ``_sum``/``_count``, and the exposition
        ends with a trailing newline.
        """
        lines: list[str] = []
        seen_types: set[str] = set()

        def header(name: str, kind: str) -> str:
            """Sanitized family name, emitting HELP/TYPE exactly once."""
            prom = _PROM_NAME.sub("_", name)
            if prom not in seen_types:
                seen_types.add(prom)
                lines.append(f"# HELP {prom} "
                             f"{escape_help_text(f'repro {kind} {name}')}")
                lines.append(f"# TYPE {prom} {kind}")
            return prom

        def sample(prom: str, labels: LabelItems, value: float,
                   extra: tuple[tuple[str, str], ...] = ()) -> None:
            items = labels + extra
            rendered = "{" + ",".join(
                f'{_PROM_LABEL.sub("_", k)}="{escape_label_value(v)}"'
                for k, v in items) + "}" if items else ""
            if value == math.inf:
                text = "+Inf"
            elif float(value).is_integer():
                text = str(int(value))
            else:
                text = repr(float(value))
            lines.append(f"{prom}{rendered} {text}")

        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        for (name, labels), counter in counters:
            sample(header(name, "counter"), labels, counter.value)
        for (name, labels), gauge in gauges:
            sample(header(name, "gauge"), labels, gauge.value)
        for (name, labels), hist in histograms:
            prom = header(name, "histogram")
            cumulative = 0
            for bound, count in zip(hist.bounds, hist._counts):
                cumulative += count
                sample(prom + "_bucket", labels, cumulative,
                       extra=(("le", repr(bound)),))
            sample(prom + "_bucket", labels, hist.count,
                   extra=(("le", "+Inf"),))
            sample(prom + "_sum", labels, hist.sum)
            sample(prom + "_count", labels, hist.count)
        return "\n".join(lines) + "\n"
