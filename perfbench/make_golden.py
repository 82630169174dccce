"""Write ``golden.json``: the benchmark's input seeds and golden values.

Run from the root of a checkout:

    python3 perfbench/make_golden.py                      # refresh digests
    python3 perfbench/make_golden.py --screen build 0 80  # choose seeds

Refreshing recomputes, for every listed configuration seed, the corpus
digest (``build``, shared by ``sharded_build``) and, for ``reproduce``,
the digest of each artifact's rendered text. Do it after a deliberate
change to the simulation's or the analyses' output.

Screening builds the corpus of every configuration seed in ``[LO, HI)``
and keeps those whose packet count lies within ``TOLERANCE`` of the
median, so every benchmark seed measures the pipeline at one stated
input size (see NOTES.md). A paper-scale build takes about 12 s a seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

from spans import BenchSpans
from workload import GOLDEN, SCALES, Checks, import_entry_points, reproduce

#: Largest relative distance of a kept seed's packet count from the
#: median packet count of the seeds screened.
TOLERANCE = 0.015


def golden_entry(workload: str, seed: int, scratch: Path,
                 artifacts: bool = True) -> dict:
    """Packet count and golden values of one configuration seed."""
    repro, store, *_ = import_entry_points()
    result = repro.run_experiment(
        repro.ExperimentConfig(seed=seed, scale=SCALES[workload]))
    entry = {"seed": seed, "packets": result.corpus.total_packets(),
             "corpus_digest": store.corpus_digest(result.corpus)}
    if workload == "reproduce" and artifacts:
        path = scratch / f"store-{seed}"
        store.save_corpus(result.corpus, path)
        checks = Checks()
        out = reproduce(SimpleNamespace(store=path), BenchSpans(), checks)
        if checks.failed:
            raise SystemExit(f"seed {seed}: {checks.failed}")
        entry["artifacts"] = out["outputs"]
        shutil.rmtree(path)
    print(f"{workload} seed {seed}: {entry['packets']} packets",
          file=sys.stderr)
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--screen", nargs=3, metavar=("WORKLOAD", "LO", "HI"),
                        help="choose WORKLOAD's (build or reproduce) seeds "
                             "anew from configuration seeds LO..HI-1")
    args = parser.parse_args(argv)
    if args.screen and args.screen[0] not in ("build", "reproduce"):
        parser.error("--screen takes build or reproduce")
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench" / "golden"
    scratch.mkdir(parents=True, exist_ok=True)
    golden = json.loads(GOLDEN.read_text())
    try:
        if args.screen:
            workload, lo, hi = args.screen[0], *map(int, args.screen[1:])
            found = [golden_entry(workload, seed, scratch, artifacts=False)
                     for seed in range(lo, hi)]
            median = statistics.median(e["packets"] for e in found)
            kept = [e for e in found
                    if abs(e["packets"] / median - 1) <= TOLERANCE]
            if workload == "reproduce":
                kept = [golden_entry(workload, e["seed"], scratch)
                        for e in kept]
            golden[workload] = {"scale": SCALES[workload],
                                "tolerance": TOLERANCE,
                                "median_packets": median, "seeds": kept}
        else:
            for workload, listed in golden.items():
                listed["seeds"] = [golden_entry(workload, e["seed"], scratch)
                                   for e in listed["seeds"]]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
