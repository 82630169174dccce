"""Parallel analysis fan-out.

Table and figure generators are independent given a warm
:class:`~repro.analysis.context.CorpusAnalysis`, and their heavy lifting
is NumPy column work that releases the GIL — so a small thread pool
overlaps them effectively. Each task runs inside an ``analysis.fanout``
span carrying the task name; the tracer keeps per-thread span stacks, so
attribution survives the pool (spans record their thread id).

Tasks are deterministic, so a task that raised would raise again: each
runs exactly once, and the first failure (in task order) surfaces as an
:class:`~repro.errors.AnalysisError` naming the task, chained to the
original exception.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping

from repro import obs
from repro.errors import AnalysisError


def _run_once(name: str, fn: Callable[[], object],
              jobs: int) -> tuple[float, object]:
    started = time.perf_counter()
    with obs.span("analysis.fanout", task=name, jobs=jobs):
        try:
            result = fn()
        except Exception as exc:
            raise AnalysisError(f"analysis task {name!r} failed: "
                                f"{exc}") from exc
    return time.perf_counter() - started, result


def fan_out(tasks: Mapping[str, Callable[[], object]],
            jobs: int = 1) -> dict[str, tuple[float, object]]:
    """Run named zero-arg tasks, optionally across ``jobs`` threads.

    Returns ``{name: (seconds, result)}`` in the tasks' insertion order
    regardless of completion order, so callers render deterministically.
    A task that raises is not retried: :class:`AnalysisError` names it.
    """
    if jobs < 1:
        raise AnalysisError(f"jobs must be >= 1, got {jobs}")

    if jobs == 1 or len(tasks) <= 1:
        return {name: _run_once(name, fn, jobs)
                for name, fn in tasks.items()}

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {name: pool.submit(_run_once, name, fn, jobs)
                   for name, fn in tasks.items()}
        return {name: future.result() for name, future in futures.items()}
