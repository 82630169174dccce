"""Self-test of the benchmark: every workload once, at a tiny scale.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each run emits every metric ``BENCHMARK.json`` names, with
its unit, that two traced runs repeat the per-layer counts exactly, that
no span in a traced run's Chrome trace has children adding up to more
than its own duration, that benchmark seeds map to the committed
inputs, and that the runner refuses to run where there is no program to
measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import CATALOGUE  # noqa: E402
from spans import self_seconds, span_forest  # noqa: E402
from workload import SCALES, golden_for  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: metric["unit"]
            for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = result_line(run_bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"]
                             for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


#: Per-layer counts that two traced runs of one seed must repeat exactly.
REPEATABLE = ("sim.events_executed", "bgp.announcements", "bgp.withdrawals",
              "scanners.packets_emitted", "telescope.packets_captured",
              "columnar.packets_sessionized", "store.chunks_opened",
              "analysis.packet_objects")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_rows_and_trace(workload):
    counts = []
    for _ in range(2):
        result = result_line(run_bench(workload, 1))
        assert units(result) == {m["name"]: m["unit"]
                                 for m in BENCH["per_layer"]}
        counts.append({name: result["metrics"][name]["value"]
                       for name in REPEATABLE})
    assert counts[0] == counts[1]
    trace = json.loads((ROOT / ".perfbench" / f"{workload}.trace.json")
                       .read_text())
    nodes = span_forest(trace["traceEvents"])
    assert any(node["name"].startswith("bench.") for node in nodes)
    for node in nodes:
        assert node["children_s"] <= node["dur"] + 1e-6, node["name"]
    rows = json.loads((ROOT / ".perfbench" / f"{workload}.layers.json")
                      .read_text())
    assert rows["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_map_to_committed_inputs(workload):
    golden = json.loads((HERE / "golden.json").read_text())
    listed = golden["reproduce" if workload == "reproduce" else "build"]
    assert SCALES[workload] == listed["scale"]
    for seed in range(2 * len(listed["seeds"])):
        assert golden_for(workload, seed, listed["scale"]) in listed["seeds"]
    assert golden_for(workload, 0, listed["scale"] / 2) is None
    for entry in listed["seeds"]:
        assert abs(entry["packets"] / listed["median_packets"] - 1) \
            <= listed["tolerance"]


def test_catalogue_is_benchmark_json():
    assert [(row.name, row.unit, row.better) for row in CATALOGUE] == \
        [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]


def test_self_time_excludes_children():
    def ev(name, ts, dur, tid=1):
        return {"ph": "X", "name": name, "ts": ts, "dur": dur, "pid": 1,
                "tid": tid, "args": {}}
    nodes = span_forest([ev("a", 0, 100), ev("b", 10, 30), ev("c", 50, 20),
                         ev("d", 55, 5), ev("e", 0, 40, tid=2)])
    by_name = {node["name"]: node for node in nodes}
    assert self_seconds(by_name["a"]) == pytest.approx(50e-6)
    assert self_seconds(by_name["c"]) == pytest.approx(15e-6)
    assert by_name["e"]["parent"] is None


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("build", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
