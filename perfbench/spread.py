"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload inventory_20k --seeds 1 2 3 4 5

Runs the benchmark once per seed (untraced, with the run length from
BENCHMARK.json), then prints for every end-to-end metric its median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound.  A spread above a third of its bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        runs.append(run_once(bench["command"], args.workload, seed, bench["run_seconds"]))
        print(f"seed {seed}: wall_s {runs[-1]['wall_s']['value']:.4f}", flush=True)
    for spec in bench["end_to_end"]:
        values = [r[spec["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        mark = "  <-- above bound/3" if spread > spec["bound"] / 3 else ""
        print(f"{spec['name']:<20} median {med:12.6g} {spec['unit']:<6} "
              f"spread {spread:7.4f}  bound {spec['bound']}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
