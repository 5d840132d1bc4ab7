"""How steady is the benchmark?  Ten seeds per workload, spread per metric.

    python3 benchmarks/perf/steady.py [--workload NAME] [--first-seed 1]

Runs the command of ``BENCHMARK.json`` once per seed, as the driver does,
and prints for every end-to-end metric the distance between the first and
the third quartile of the ten values as a share of their median, beside
the metric's bound.  A spread above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
SEEDS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    wide = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            walls.append(perf_counter() - t0)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} ops failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {SEEDS} runs, {median(walls):.1f} s each (longest {max(walls):.1f} s)")
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            p25, _, p75 = quantiles(v, n=4)
            spread = (p75 - p25) / median(v)
            mark = "" if spread < metric["bound"] / 3 else "  <-- above a third of the bound"
            wide += bool(mark)
            print(
                f"  {metric['name']:12s} median {median(v):<10.5g} [{min(v):.5g} .. {max(v):.5g}]"
                f"  spread {spread:.3f}  bound {metric['bound']:g}{mark}"
            )
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
