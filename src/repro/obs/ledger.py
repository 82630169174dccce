"""Run ledger: a durable, structured record of every campaign run.

One 11-month measurement is one run; the longitudinal frontier
(Tanveer et al., CoNEXT 2025) is *comparing* runs across telescope
configurations and over time. The ledger is the substrate for that:
``run_experiment(ledger_dir=...)`` writes a ``run.json`` manifest per
run — run id, config (full dict + sha256 digest), git provenance,
seeds, per-stage wall/CPU seconds, the final metrics snapshot, the
corpus digest, the armed fault plan, and coverage gaps — into
``<ledger_dir>/<run_id>/``, next to the run's event log when one was
recorded.

``repro runs list|show|compare`` reads the ledger back:

- ``list`` — one line per run (id, date, scale/seed/shards, packets,
  wall seconds);
- ``show`` — the full manifest of one run;
- ``compare`` — diff two runs' stage timings and metrics, flagging
  stage-time regressions beyond a threshold (default 10%) and exiting
  non-zero when any is found.

The module is deliberately pure stdlib + pure data (no imports from the
experiment layer), so the obs package never participates in an import
cycle with the code it observes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path

#: Bumped whenever manifest fields change meaning.
LEDGER_SCHEMA = 1

MANIFEST_NAME = "run.json"

#: Default regression threshold for ``compare_runs`` (fractional).
DEFAULT_THRESHOLD = 0.10

#: Stages shorter than this (seconds) are never flagged as regressions —
#: their timing is dominated by scheduler noise, not code.
MIN_REGRESSION_SECONDS = 0.05


def run_dir(ledger_dir: str | Path, run_id: str) -> Path:
    return Path(ledger_dir) / run_id


def config_to_dict(config) -> dict:
    """A JSON-able dict of an :class:`ExperimentConfig` (duck-typed)."""
    if is_dataclass(config) and not isinstance(config, type):
        return json.loads(json.dumps(asdict(config), default=str))
    return dict(config) if isinstance(config, dict) else {"repr": repr(config)}


def config_digest(config_dict: dict) -> str:
    """Canonical sha256 of a config dict (key-sorted JSON)."""
    blob = json.dumps(config_dict, sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def git_provenance(cwd: str | Path | None = None) -> dict | None:
    """``{"commit": ..., "dirty": ...}`` of the working tree, if any."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5.0)
        if commit.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, capture_output=True,
            text=True, timeout=5.0)
        return {"commit": commit.stdout.strip(),
                "dirty": bool(status.stdout.strip())
                if status.returncode == 0 else None}
    except (OSError, subprocess.SubprocessError):
        return None


def build_manifest(*, run_id: str, config, stage_seconds: dict,
                   wall_seconds: float,
                   stage_cpu_seconds: dict | None = None,
                   shards: int | None = None,
                   corpus_summary: dict | None = None,
                   corpus_digest: str | None = None,
                   coverage_gaps: dict | None = None,
                   fault_plan: dict | None = None,
                   metrics: dict | None = None,
                   events_file: str | None = None) -> dict:
    """Assemble one schema-versioned ``run.json`` payload."""
    config_dict = config_to_dict(config)
    return {
        "schema": LEDGER_SCHEMA,
        "run_id": run_id,
        "created_wall": time.time(),
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": config_dict,
        "config_digest": config_digest(config_dict),
        "git": git_provenance(),
        "seed": config_dict.get("seed"),
        "scale": config_dict.get("scale"),
        "shards": shards,
        "wall_seconds": round(float(wall_seconds), 4),
        "stage_seconds": {k: round(float(v), 4)
                          for k, v in (stage_seconds or {}).items()},
        "stage_cpu_seconds": {k: round(float(v), 4)
                              for k, v in (stage_cpu_seconds or {}).items()},
        "corpus": corpus_summary or {},
        "corpus_digest": corpus_digest,
        "coverage_gaps": {k: [list(w) for w in v]
                          for k, v in (coverage_gaps or {}).items()},
        "fault_plan": fault_plan,
        "metrics": metrics or {},
        "events_file": events_file,
    }


def write_manifest(ledger_dir: str | Path, manifest: dict) -> Path:
    """Atomically persist ``manifest`` under its run's ledger directory."""
    directory = run_dir(ledger_dir, manifest["run_id"])
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / MANIFEST_NAME
    tmp = final.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, default=str)
        fh.write("\n")
    os.replace(tmp, final)
    return final


def load_manifest(ledger_dir: str | Path, run_id: str) -> dict:
    """Read one run's manifest; raises ``FileNotFoundError`` if absent."""
    path = run_dir(ledger_dir, run_id) / MANIFEST_NAME
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def list_runs(ledger_dir: str | Path) -> list[dict]:
    """Every readable manifest in the ledger, oldest run id first.

    Unreadable or manifest-less entries are skipped: the ledger is an
    operational artifact and a partial listing beats a crash.
    """
    directory = Path(ledger_dir)
    if not directory.is_dir():
        return []
    manifests = []
    for child in sorted(directory.iterdir()):
        path = child / MANIFEST_NAME
        if not path.is_file():
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(manifest, dict) and manifest.get("run_id"):
            manifests.append(manifest)
    return manifests


def render_runs_table(manifests: list[dict]) -> str:
    """The ``repro runs list`` table."""
    if not manifests:
        return "(no runs in ledger)"
    header = (f"{'run_id':<24} {'date':<20} {'scale':>6} {'seed':>6} "
              f"{'shards':>6} {'packets':>12} {'wall_s':>8}")
    lines = [header, "-" * len(header)]
    for m in manifests:
        corpus = m.get("corpus") or {}
        lines.append(
            f"{m.get('run_id', '?'):<24} "
            f"{str(m.get('created_iso', ''))[:19]:<20} "
            f"{m.get('scale', '?'):>6} {m.get('seed', '?'):>6} "
            f"{m.get('shards') or 1:>6} "
            f"{corpus.get('total_packets', '?'):>12} "
            f"{m.get('wall_seconds', '?'):>8}")
    return "\n".join(lines)


class RunComparison:
    """The diff of two run manifests (``repro runs compare``)."""

    def __init__(self, old: dict, new: dict,
                 threshold: float = DEFAULT_THRESHOLD) -> None:
        self.old = old
        self.new = new
        self.threshold = threshold
        self.stage_rows: list[tuple[str, float | None, float | None,
                                    float | None, str]] = []
        self.metric_rows: list[tuple[str, float, float]] = []
        self.notes: list[str] = []
        #: stage names whose wall time regressed beyond the threshold.
        self.regressions: list[str] = []
        self._diff()

    def _diff(self) -> None:
        old, new = self.old, self.new
        if old.get("config_digest") != new.get("config_digest"):
            self.notes.append(
                "configs differ (digest "
                f"{str(old.get('config_digest'))[:12]}… vs "
                f"{str(new.get('config_digest'))[:12]}…) — timing deltas "
                "reflect workload changes, not just code")
        old_digest, new_digest = old.get("corpus_digest"), \
            new.get("corpus_digest")
        if old_digest and new_digest:
            self.notes.append(
                "corpus digests match" if old_digest == new_digest
                else "corpus digests DIFFER — the runs produced "
                     "different packets")
        old_stages = old.get("stage_seconds", {})
        new_stages = new.get("stage_seconds", {})
        for stage in sorted(set(old_stages) | set(new_stages)):
            a, b = old_stages.get(stage), new_stages.get(stage)
            if a is None or b is None:
                self.stage_rows.append((stage, a, b, None, "only one run"))
                continue
            ratio = b / a if a > 0 else float("inf")
            flag = ""
            if b > a * (1.0 + self.threshold) \
                    and b - a > MIN_REGRESSION_SECONDS:
                flag = "REGRESSION"
                self.regressions.append(stage)
            elif a > b * (1.0 + self.threshold) \
                    and a - b > MIN_REGRESSION_SECONDS:
                flag = "improved"
            self.stage_rows.append((stage, a, b, ratio, flag))
        old_counters = (old.get("metrics") or {}).get("counters", {})
        new_counters = (new.get("metrics") or {}).get("counters", {})
        for key in sorted(set(old_counters) | set(new_counters)):
            a = float(old_counters.get(key, 0.0))
            b = float(new_counters.get(key, 0.0))
            if a != b:
                self.metric_rows.append((key, a, b))

    def render(self) -> str:
        lines = [f"compare {self.old.get('run_id')} (old) -> "
                 f"{self.new.get('run_id')} (new), "
                 f"threshold {self.threshold:.0%}"]
        lines += [f"  note: {note}" for note in self.notes]
        lines.append(f"  {'stage':<22} {'old_s':>9} {'new_s':>9} "
                     f"{'ratio':>7}")
        for stage, a, b, ratio, flag in self.stage_rows:
            a_s = f"{a:9.3f}" if a is not None else "        -"
            b_s = f"{b:9.3f}" if b is not None else "        -"
            r_s = f"{ratio:7.2f}" if ratio is not None else "      -"
            lines.append(f"  {stage:<22} {a_s} {b_s} {r_s}"
                         + (f"  {flag}" if flag else ""))
        if self.metric_rows:
            lines.append("  changed counters:")
            for key, a, b in self.metric_rows[:40]:
                lines.append(f"    {key}: {a:g} -> {b:g} "
                             f"({b - a:+g})")
            if len(self.metric_rows) > 40:
                lines.append(f"    ... and {len(self.metric_rows) - 40} more")
        if self.regressions:
            lines.append(f"  RESULT: {len(self.regressions)} stage "
                         f"regression(s): {', '.join(self.regressions)}")
        else:
            lines.append("  RESULT: no stage regressions beyond "
                         f"{self.threshold:.0%}")
        return "\n".join(lines)


def compare_runs(ledger_dir: str | Path, old_id: str, new_id: str,
                 threshold: float = DEFAULT_THRESHOLD) -> RunComparison:
    return RunComparison(load_manifest(ledger_dir, old_id),
                         load_manifest(ledger_dir, new_id),
                         threshold=threshold)
