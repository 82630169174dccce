"""Benchmark of the reproduction pipeline: one workload, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build --seed 42 --seconds 10 --trace 0

Workloads (see NOTES.md for why each exists):

- ``build``          paper-scale corpus build, v2 store save, digest;
- ``sharded_build``  the same over two shard workers under the
  ``repro save --shards 2 --ledger`` telemetry stack;
- ``reproduce``      cold load of a small saved corpus, then Tables 2-8,
  the 13 figures, the section 8 guidance and the bias report.

``--seed`` picks one of the configuration seeds committed in
``golden.json``, each with its golden values (see NOTES.md).

Every step runs in a fresh interpreter (``workload.py``). Set-up is
measured ``SETUP_REPS`` times and reported as the median; timed
iterations repeat until ``--seconds`` of timed work (at least one) and
report medians. Every time reported is put at the reference host
speed by a reference job timed while each step runs (``calibrate.py``).
With ``--trace 0`` the result line carries the
end-to-end metrics; with ``--trace 1`` an extra traced iteration gives
the per-layer rows, written with the Chrome trace under ``.perfbench/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibrate import SpeedGauge
from layers import CATALOGUE, OVERHEAD_LIMIT
from spans import reset_hwm
from workload import SCALES, SHARDS, WORKLOADS, config_seed, golden_for

#: Fresh-process set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 2

#: Stop starting timed iterations once a run has used this much wall
#: time, so a run ends well inside its 180 s limit.
RUN_BUDGET_S = 150.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"),
              ("store_mb", "MiB"), ("setup_s", "s"))

HERE = Path(__file__).resolve().parent


class Step:
    """Starts ``workload.py`` steps of one run in fresh processes."""

    def __init__(self, root: Path, args, workdir: Path) -> None:
        self.root = root
        self.args = args
        self.workdir = workdir
        self.started = time.monotonic()
        path = os.environ.get("PYTHONPATH")
        # shard spills go to a temporary directory: keep it in the checkout
        tmp = workdir / "tmp"
        tmp.mkdir()
        self.env = dict(os.environ, TMPDIR=str(tmp),
                        PYTHONPATH=str(root / "src")
                        + (os.pathsep + path if path else ""))
        self.count = 0
        self.gauge = SpeedGauge()
        #: host speed during each step, as a share of the reference's
        self.speeds: list[float] = []

    def __call__(self, mode: str, trace: bool = False, store=None,
                 expect_digest: str | None = None) -> tuple[dict, float]:
        """Run one step; returns its result and its wall seconds.

        The step's seconds and the result's ``wall_s`` and ``cpu_s`` are
        put at the reference host speed by the reference job timed
        while it runs; ``speed`` holds the factor applied and
        ``raw_wall_s`` and ``raw_cpu_s`` the seconds as timed.
        """
        self.count += 1
        step_dir = self.workdir / f"{self.count:02d}-{mode}"
        step_dir.mkdir(parents=True)
        out = step_dir / "result.json"
        cmd = [sys.executable, str(HERE / "workload.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed",
               str(self.args.seed), "--scale", str(self.args.scale),
               "--workdir", str(step_dir), "--out", str(out)]
        if trace:
            cmd.append("--trace")
        if store is not None:
            cmd += ["--store", str(store)]
        if expect_digest is not None:
            cmd += ["--expect-digest", expect_digest]
        log = step_dir / "output.log"
        timeout = max(1.0, 175.0 - (time.monotonic() - self.started))
        start = time.perf_counter()
        with open(log, "w") as fh, self.gauge.sampling() as samples:
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                      stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=timeout)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        seconds = time.perf_counter() - start
        speed = self.gauge.speed(samples)
        self.speeds.append(speed)
        # a timed build's saved corpus is only needed by its own checks
        shutil.rmtree(step_dir / "store", ignore_errors=True)
        if code != 0 or not out.exists():
            tail = log.read_text(errors="replace")[-2000:]
            print(f"{mode} step failed ({code}):\n{tail}", file=sys.stderr)
            return {"attempted": 1, "failed": [f"{mode}: exit {code}"],
                    "speed": speed}, seconds * speed
        result = json.loads(out.read_text())
        for key in ("wall_s", "cpu_s"):
            if key in result:
                result[f"raw_{key}"] = result[key]
                result[key] *= speed
        result["speed"] = speed
        return result, seconds * speed


def failed_frac(checks: dict) -> float:
    """Failed checked operations over attempted ones."""
    return len(checks["failed"]) / checks["attempted"] \
        if checks["attempted"] else 1.0


def machine() -> dict:
    """The box the figures were measured on."""
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
        mem_kb = next(int(line.split()[1]) for line in
                      Path("/proc/meminfo").read_text().splitlines()
                      if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        mem_kb = 0
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "mem_total_mb": round(mem_kb / 1024),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "vmhwm_reset": reset_hwm()}


def run(args, root: Path, workdir: Path,
        box: dict) -> tuple[dict, dict, list[str]]:
    """Set up, time and (optionally) trace one workload on machine ``box``.

    Returns the metrics, the check totals and notes for the reader.
    """
    step = Step(root, args, workdir)
    attempted, failed, skipped, notes = 0, [], [], []
    if args.workload == "sharded_build" and box["nproc"] < SHARDS:
        notes.append(f"time-sliced: {SHARDS} shard workers on "
                     f"{box['nproc']} CPU(s); sharded_build timings are "
                     "not a parallel speed-up")

    def tally(result: dict) -> dict:
        nonlocal attempted
        attempted += result.get("attempted", 0)
        failed.extend(result.get("failed", []))
        skipped.extend(result.get("skipped", []))
        return result

    # in a fresh checkout the first set-up also compiles bytecode: once
    # per checkout, and the medians over runs absorb it
    reproduce = args.workload == "reproduce"
    setups = [step("setup", store=workdir / f"store{i}" if reproduce else None)
              for i in range(SETUP_REPS)]
    for result, _ in setups:
        tally(result)
    setup_s = statistics.median(seconds for _, seconds in setups)

    store = expect = None
    if reproduce:
        store = workdir / "store0"
        digests = {result.get("digest") for result, _ in setups}
        attempted += 1
        if len(digests) != 1:
            failed.append("setup: one seed saved different corpora")
        expect = digests.pop()
        for i in range(1, SETUP_REPS):
            shutil.rmtree(workdir / f"store{i}", ignore_errors=True)
    elif args.workload == "sharded_build":
        golden = golden_for(args.workload, args.seed, args.scale)
        if golden is not None:
            expect = golden["corpus_digest"]
        else:
            expect = tally(step("reference")[0]).get("digest")

    timed: list[dict] = []
    spent = longest = 0.0
    while not timed or spent < args.seconds:
        elapsed = time.monotonic() - step.started
        if timed and elapsed + longest * (1 + args.trace) > RUN_BUDGET_S:
            notes.append(f"stopped after {len(timed)} iterations to stay "
                         "inside the run's time limit")
            break
        result, seconds = step("run", store=store, expect_digest=expect)
        timed.append(tally(result))
        spent += result.get("wall_s", 0.0)
        longest = max(longest, seconds)

    def median(key: str) -> float:
        values = [r[key] for r in timed if key in r]
        return statistics.median(values) if values else 0.0

    metrics = {"wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
               "peak_rss_mb": median("peak_rss_mb"),
               "store_mb": median("store_mb"), "setup_s": setup_s}
    raw = {"wall_s": median("raw_wall_s"), "cpu_s": median("raw_cpu_s")}
    notes.append(f"{len(timed)} timed iteration(s), {SETUP_REPS} set-ups")
    notes.append(f"host speed {median('speed'):.3f} of the reference; as "
                 f"timed, wall_s {raw['wall_s']:.4g} s and cpu_s "
                 f"{raw['cpu_s']:.4g} s")
    if skipped:
        reasons = sorted({reason.partition(": ")[2] for reason in skipped})
        notes.append(f"{len(set(skipped))} check(s) skipped, not passed: "
                     + "; ".join(reasons))
    if not args.trace:
        return metrics, {"attempted": attempted, "failed": failed}, notes

    traced, _ = step("run", trace=True, store=store, expect_digest=expect)
    tally(traced)
    layers = dict(traced.get("layers", {}))
    overhead = traced.get("wall_s", 0.0) / metrics["wall_s"] - 1.0 \
        if metrics["wall_s"] else 0.0
    layers["obs.trace_overhead_frac"] = overhead
    layers["failed_frac"] = failed_frac({"attempted": attempted,
                                         "failed": failed})
    if overhead > OVERHEAD_LIMIT:
        notes.append(f"traced run {overhead:.1%} slower than untraced "
                     f"(> {OVERHEAD_LIMIT:.0%}): per-layer rows may mislead")
    if traced.get("hwm_reset") is False:
        notes.append("the kernel refused the VmHWM reset: per-layer "
                     "peak_rss_mb rows are unmeasured and read 0")
    # a traced step's seconds go to the reference speed like the rest
    speed = traced.get("speed", 1.0)
    for row in CATALOGUE:
        if row.unit == "s" and row.name in layers:
            layers[row.name] *= speed
    rows = [{"name": row.name, "value": layers.get(row.name, 0.0),
             "unit": row.unit, "layer": row.layer, "workload": row.workload,
             "moves": row.moves,
             "measured": not (row.unit == "MiB"
                              and traced.get("hwm_reset") is False)}
            for row in CATALOGUE]
    out_dir = root / ".perfbench"
    if "trace" in traced:
        shutil.copy(traced["trace"], out_dir / f"{args.workload}.trace.json")
    (out_dir / f"{args.workload}.layers.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "config_seed": config_seed(args), "scale": args.scale,
        "run_id": traced.get("run_id"), "machine": box,
        "end_to_end_untraced": metrics, "end_to_end_as_timed": raw,
        "traced_speed": speed, "step_speeds": step.speeds,
        "notes": notes, "rows": rows},
        indent=1) + "\n")
    notes.append(f"per-layer rows and Chrome trace in .perfbench/"
                 f"{args.workload}.layers.json and .trace.json")
    return ({row["name"]: row["value"] for row in rows},
            {"attempted": attempted, "failed": failed}, notes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's corpus scale "
                             "(self-test only; golden checks then skip)")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = SCALES[args.workload]

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    box = machine()
    try:
        metrics, checks, notes = run(args, root, workdir, box)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine: " + json.dumps(box))
    units = dict(END_TO_END) if not args.trace \
        else {row.name: row.unit for row in CATALOGUE}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        # a per-layer row, so that no end-to-end metric reads 0
        print(f"failed_frac = {failed_frac(checks):.6g} ratio")
    for note in notes:
        print(f"note: {note}")
    for failure in checks["failed"]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not checks["failed"],
        "attempted": max(1, checks["attempted"]),
        "failed": len(checks["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
